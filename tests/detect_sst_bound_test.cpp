// Exactness of the alarm-threshold bound, IkaSst::score_against.
//
// The contract (detect/scorer.h): when score(window) is NaN or exceeds the
// threshold, score_against(window, threshold) returns exactly that value,
// bit for bit; otherwise it returns something <= threshold. The scorer's
// warm future basis advances exactly as under score(). Checked over the
// scorebits corpus (sst_corpus.h) at ω = 5, 9, 15, a range of thresholds
// and novelty floors below and above 1 (the bound is
// factor · max(1, novelty_floor)):
//   * the contract itself, window by window;
//   * batch all_alarms and OnlineDetector alarm lists are identical whether
//     the scorer is bounded or raw;
//   * a scorer fed bounded calls and then score() matches one fed only
//     score();
//   * the bounded path makes no heap allocation per window.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <span>
#include <vector>

#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "sst_corpus.h"

namespace funnel::detect {
namespace {

constexpr std::size_t kOmegas[] = {5, 9, 15};
constexpr double kThresholds[] = {0.0, 0.1, 0.22, 0.5, 2.0};
constexpr double kNoveltyFloors[] = {0.25, 1.5};

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

SstGeometry geometry(std::size_t omega, double novelty_floor) {
  return SstGeometry{.omega = omega, .eta = 3, .novelty_floor = novelty_floor};
}

// Forwards score() only, so every alarm path reaches the raw score through
// ChangeScorer's default score_against.
class RawOnly final : public ChangeScorer {
 public:
  explicit RawOnly(SstGeometry geo) : inner_(geo) {}
  std::size_t window_size() const override { return inner_.window_size(); }
  std::size_t change_offset() const override {
    return inner_.change_offset();
  }
  double score(std::span<const double> window) override {
    return inner_.score(window);
  }
  const char* name() const override { return "raw-only"; }

 private:
  IkaSst inner_;
};

template <typename Fn>
void for_each_setting(Fn&& fn) {
  for (std::size_t omega : kOmegas) {
    for (double nf : kNoveltyFloors) {
      for (double threshold : kThresholds) fn(geometry(omega, nf), threshold);
    }
  }
}

TEST(SstBound, ExceedancesAndNaNsBitExactEverythingElseAtOrBelow) {
  const auto corpus = sst_corpus();
  for_each_setting([&](const SstGeometry& geo, double threshold) {
    std::size_t exact = 0, bounded = 0, skipped = 0;
    for (const std::vector<double>& series : corpus) {
      IkaSst raw(geo);
      IkaSst bound(geo);
      const std::span<const double> x(series);
      const std::size_t w = geo.window();
      for (std::size_t s = 0; s + w <= x.size(); ++s) {
        const double r = raw.score(x.subspan(s, w));
        const double b = bound.score_against(x.subspan(s, w), threshold);
        if (std::isnan(r) || r > threshold) {
          ++exact;
          ASSERT_EQ(bits_of(b), bits_of(r))
              << "omega=" << geo.omega << " nf=" << geo.novelty_floor
              << " threshold=" << threshold << " window " << s;
        } else {
          ++bounded;
          ASSERT_LE(b, threshold)
              << "omega=" << geo.omega << " nf=" << geo.novelty_floor
              << " threshold=" << threshold << " window " << s;
          skipped += bits_of(b) != bits_of(r) ? 1 : 0;
        }
      }
    }
    // The corpus must reach both sides of every threshold but the
    // largest, and the bound must actually cut work somewhere.
    EXPECT_GT(exact, 0u) << "threshold=" << threshold;
    if (threshold < 2.0) {
      EXPECT_GT(bounded, 0u) << "threshold=" << threshold;
    }
    if (threshold >= 0.1) {
      EXPECT_GT(skipped, 0u) << "omega=" << geo.omega
                             << " nf=" << geo.novelty_floor
                             << " threshold=" << threshold;
    }
  });
}

void expect_same_alarms(const std::vector<Alarm>& a,
                        const std::vector<Alarm>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].minute, b[i].minute) << what << " alarm " << i;
    EXPECT_EQ(a[i].first_window, b[i].first_window) << what << " alarm " << i;
    EXPECT_EQ(bits_of(a[i].peak_score), bits_of(b[i].peak_score))
        << what << " alarm " << i;
  }
}

// Every alarm an OnlineDetector over `scorer` raises across `series`,
// re-armed after each one.
std::vector<Alarm> online_alarms(ChangeScorer& scorer,
                                 const std::vector<double>& series,
                                 const AlarmPolicy& policy) {
  OnlineDetector detector(scorer, policy, 0);
  std::vector<Alarm> out;
  for (double v : series) {
    if (const std::optional<Alarm> a = detector.push(v)) {
      out.push_back(*a);
      detector.rearm();
    }
  }
  return out;
}

TEST(SstBound, AlarmListsIdenticalBatchAndOnline) {
  const auto corpus = sst_corpus();
  std::size_t alarms_seen = 0;
  for_each_setting([&](const SstGeometry& geo, double threshold) {
    for (const AlarmPolicy& policy :
         {AlarmPolicy{.threshold = threshold, .persistence = 7,
                      .patience = 10},
          AlarmPolicy{.threshold = threshold, .persistence = 1}}) {
      for (const std::vector<double>& series : corpus) {
        IkaSst raw(geo);
        IkaSst bound(geo);
        const auto batch_raw =
            all_alarms(score_series(raw, series), geo.window(), 0, policy);
        const auto batch_bound =
            all_alarms(score_series(bound, series, threshold), geo.window(),
                       0, policy);
        expect_same_alarms(batch_raw, batch_bound, "batch");

        RawOnly online_raw(geo);
        IkaSst online_bound(geo);
        const auto live_raw = online_alarms(online_raw, series, policy);
        expect_same_alarms(live_raw,
                           online_alarms(online_bound, series, policy),
                           "online");
        alarms_seen += batch_raw.size() + live_raw.size();
      }
    }
  });
  EXPECT_GT(alarms_seen, 0u);
}

TEST(SstBound, WarmBasisAdvancesAsUnderScore) {
  const auto corpus = sst_corpus();
  for_each_setting([&](const SstGeometry& geo, double threshold) {
    for (const std::vector<double>& series : corpus) {
      IkaSst plain(geo);
      IkaSst mixed(geo);
      const std::span<const double> x(series);
      const std::size_t w = geo.window();
      const std::size_t n = x.size() - w + 1;
      // Bounded for the first half of the windows, raw after: every raw
      // score, sub-threshold ones included, must match bit for bit.
      for (std::size_t s = 0; s < n; ++s) {
        const double p = plain.score(x.subspan(s, w));
        if (s < n / 2) {
          (void)mixed.score_against(x.subspan(s, w), threshold);
        } else {
          ASSERT_EQ(bits_of(mixed.score(x.subspan(s, w))), bits_of(p))
              << "omega=" << geo.omega << " nf=" << geo.novelty_floor
              << " threshold=" << threshold << " window " << s;
        }
      }
    }
  });
}

TEST(SstBound, BoundedPathMakesNoHeapAllocation) {
  const auto corpus = sst_corpus();
  for_each_setting([&](const SstGeometry& geo, double threshold) {
    IkaSst scorer(geo);
    const std::size_t w = geo.window();
    const auto run = [&](const std::vector<double>& series) {
      const std::span<const double> x(series);
      for (std::size_t s = 0; s + w <= x.size(); ++s) {
        (void)scorer.score_against(x.subspan(s, w), threshold);
      }
    };
    run(corpus.front());  // warm-up: the per-thread workspace
    for (const std::vector<double>& series : corpus) {
      const AllocationScope scope;
      run(series);
      EXPECT_EQ(scope.count(), 0u)
          << "omega=" << geo.omega << " threshold=" << threshold;
    }
  });
}

}  // namespace
}  // namespace funnel::detect
