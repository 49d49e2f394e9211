// Bit-level pin of every IKA-SST score.
//
// Hashes the raw IEEE-754 bits of every score the scorer tiers produce over
// a fixed-seed corpus, at ω = 5, 9 and 15. A kernel rewrite that claims to
// do "the same floating-point operations in the same order" must leave
// every hash unchanged; an intended scoring change updates the table below
// and says so in CHANGES.md.
//
// Tiers covered:
//   * default — IkaSst, warm future basis, per-direction Lanczos + QL;
//   * cold    — default scorer reset() before every window;
//   * cascade — cascade_score_series in front of the default scorer.
//
// The corpus (sst_corpus.h) is built from the src/workload KPI classes with
// level shifts, ramps and transient spikes, then dirtied with NaN gaps,
// flat runs, quantised stretches and one-sample spikes.
//
// The same tiers are held to the allocation-free contract: once a scorer
// has seen one series, scoring further windows makes no heap allocation.
// A counting replacement of the global operator new checks it.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "sst_corpus.h"

namespace funnel::detect {
namespace {

// FNV-1a over the raw bits of each score.
struct BitHash {
  std::uint64_t hash = 1469598103934665603ull;
  std::size_t n = 0;
  std::size_t nans = 0, zeros = 0, positives = 0;
  void add(double v) {
    nans += std::isnan(v) ? 1 : 0;
    zeros += v == 0.0 ? 1 : 0;
    positives += v > 0.0 ? 1 : 0;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xFFu;
      hash *= 1099511628211ull;
    }
    ++n;
  }
};

enum class Tier { kDefault, kCold, kCascade };

BitHash hash_tier(Tier tier, std::size_t omega) {
  const SstGeometry geo{.omega = omega, .eta = 3};
  BitHash hash;
  for (const std::vector<double>& series : sst_corpus()) {
    IkaSst scorer(geo);
    std::vector<double> scores;
    switch (tier) {
      case Tier::kDefault:
        scores = score_series(scorer, series);
        break;
      case Tier::kCold: {
        const std::size_t w = scorer.window_size();
        for (std::size_t s = 0; s + w <= series.size(); ++s) {
          scorer.reset();
          scores.push_back(
              scorer.score(std::span<const double>(series).subspan(s, w)));
        }
        break;
      }
      case Tier::kCascade:
        scores = cascade_score_series(scorer, series, CascadeConfig{},
                                      nullptr, nullptr);
        break;
    }
    for (double v : scores) hash.add(v);
  }
  return hash;
}

struct Golden {
  Tier tier;
  const char* name;
  std::size_t omega;
  std::uint64_t hash;
};

// Computed from the scorer as it stood before the allocation-free kernels.
constexpr Golden kGolden[] = {
    {Tier::kDefault, "default", 5, 0x3db35216e0cad620ull},
    {Tier::kDefault, "default", 9, 0x30b970278e5e8bdfull},
    {Tier::kDefault, "default", 15, 0xdb09e3544c09dab7ull},
    {Tier::kCold, "cold", 5, 0x0a2add1594233ba8ull},
    {Tier::kCold, "cold", 9, 0x4c64dc3321050496ull},
    {Tier::kCold, "cold", 15, 0xb27ed918901029a7ull},
    {Tier::kCascade, "cascade", 5, 0x086cd39161cbd8b4ull},
    {Tier::kCascade, "cascade", 9, 0x11542af2b2853a7cull},
    {Tier::kCascade, "cascade", 15, 0xad0d323d25caadb2ull},
};

TEST(SstScoreBits, GoldenHashesPerTierAndOmega) {
  for (const Golden& g : kGolden) {
    const BitHash got = hash_tier(g.tier, g.omega);
    // The corpus must exercise dirty, quiet and scoring windows alike.
    EXPECT_GT(got.nans, 0u) << g.name << " omega=" << g.omega;
    EXPECT_GT(got.zeros, 0u) << g.name << " omega=" << g.omega;
    EXPECT_GT(got.positives, 100u) << g.name << " omega=" << g.omega;
    EXPECT_EQ(got.hash, g.hash)
        << g.name << " omega=" << g.omega << ": got 0x" << std::hex
        << got.hash << std::dec << " over " << got.n << " scores (" << got.nans
        << " NaN, " << got.zeros << " zero, " << got.positives << " > 0)";
  }
}

// Scores every window of `series` through `score`, one call per window.
template <typename ScoreFn>
void score_windows(const std::vector<double>& series, std::size_t w,
                   ScoreFn&& score) {
  const std::span<const double> all(series);
  for (std::size_t s = 0; s + w <= series.size(); ++s) {
    (void)score(all.subspan(s, w));
  }
}

TEST(SstScoreBits, AllocationCounterSeesHeapAllocations) {
  const AllocationScope scope;
  const auto v = std::make_unique<std::vector<double>>(64, 1.0);
  EXPECT_EQ(scope.count(), 2u);
}

TEST(SstScoreBits, SteadyStateScoringMakesNoHeapAllocation) {
  const std::vector<std::vector<double>> series = sst_corpus();
  for (std::size_t omega : {5u, 9u, 15u}) {
    const SstGeometry geo{.omega = omega, .eta = 3};
    IkaSst plain(geo);
    IkaSst cold(geo);
    CascadeGate gate(std::make_unique<IkaSst>(geo), CascadeConfig{});
    const auto run_all = [&](const std::vector<double>& x) {
      const std::size_t w = geo.window();
      score_windows(x, w, [&](auto win) { return plain.score(win); });
      score_windows(x, w, [&](auto win) {
        cold.reset();
        return cold.score(win);
      });
      score_windows(x, w, [&](auto win) { return gate.score(win); });
    };
    run_all(series.front());  // warm-up
    for (const std::vector<double>& x : series) {
      const AllocationScope scope;
      run_all(x);
      EXPECT_EQ(scope.count(), 0u) << "omega=" << omega;
    }
  }
}

}  // namespace
}  // namespace funnel::detect
