// Bit-level pin of every IKA-SST score.
//
// Hashes the raw IEEE-754 bits of every score the scorer tiers produce over
// a fixed-seed corpus, at ω = 5, 9 and 15. A kernel rewrite that claims to
// do "the same floating-point operations in the same order" must leave
// every hash unchanged; an intended scoring change updates the table below
// and says so in CHANGES.md.
//
// Tiers covered:
//   * default   — IkaSst, warm future basis, per-direction Lanczos + QL;
//   * warm_past — IkaSst with the past subspace persisted too;
//   * cold      — default scorer reset() before every window;
//   * cascade   — cascade_score_series in front of the default scorer.
//
// The corpus is built from the src/workload KPI classes with level shifts,
// ramps and transient spikes, then dirtied with NaN gaps, flat runs,
// quantised stretches and one-sample spikes.
//
// The same tiers are held to the allocation-free contract: once a scorer
// has seen one series, scoring further windows makes no heap allocation.
// A counting replacement of the global operator new checks it.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "detect/cascade.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "workload/generators.h"
#include "workload/stream.h"

// Heap allocations made by this thread while counting is on.
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
// Out of line so the compiler does not pair an inlined free() with a
// caller's operator new and warn about a mismatch.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace funnel::detect {
namespace {

// Counts the heap allocations made inside its scope.
class AllocationScope {
 public:
  AllocationScope() {
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocationScope() { g_counting = false; }
  std::size_t count() const { return g_allocations; }
};

constexpr MinuteTime kLen = 360;

std::vector<double> dirty_series(tsdb::KpiClass cls, std::uint64_t seed) {
  workload::KpiStream s(workload::make_default(cls, Rng(seed)));
  s.add_effect(workload::LevelShift{120, 25.0});
  s.add_effect(workload::Ramp{200, 230, -30.0});
  s.add_effect(workload::TransientSpike{280, 3, 60.0});
  std::vector<double> x = workload::render(s, 0, kLen);

  Rng rng(seed ^ 0xD1E7u);
  // NaN gaps: a few short bursts.
  for (int g = 0; g < 3; ++g) {
    const auto at = static_cast<std::size_t>(rng.uniform_int(10, kLen - 10));
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t i = at; i < at + len && i < x.size(); ++i) {
      x[i] = std::nan("");
    }
  }
  // Flat runs: a collector latching its last value.
  for (int g = 0; g < 2; ++g) {
    const auto at = static_cast<std::size_t>(rng.uniform_int(1, kLen - 40));
    const auto len = static_cast<std::size_t>(rng.uniform_int(8, 36));
    for (std::size_t i = at; i < at + len && i < x.size(); ++i) {
      x[i] = x[at - 1];
    }
  }
  // Quantised stretch: integer-rounded counters.
  const auto q0 = static_cast<std::size_t>(rng.uniform_int(0, kLen - 80));
  for (std::size_t i = q0; i < q0 + 80; ++i) x[i] = std::round(x[i]);
  // One-sample spikes.
  for (int g = 0; g < 4; ++g) {
    const auto at = static_cast<std::size_t>(rng.uniform_int(0, kLen - 1));
    x[at] += rng.uniform(-200.0, 200.0);
  }
  return x;
}

std::vector<std::vector<double>> corpus() {
  std::vector<std::vector<double>> out;
  std::uint64_t seed = 9001;
  for (tsdb::KpiClass cls :
       {tsdb::KpiClass::kSeasonal, tsdb::KpiClass::kStationary,
        tsdb::KpiClass::kVariable}) {
    for (int rep = 0; rep < 2; ++rep) out.push_back(dirty_series(cls, seed++));
  }
  // A constant series: every window standardizes to zeros.
  out.emplace_back(static_cast<std::size_t>(kLen), 42.0);
  return out;
}

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

enum class Tier { kDefault, kWarmPast, kCold, kCascade };

BitHash hash_tier(Tier tier, std::size_t omega) {
  const SstGeometry geo{.omega = omega, .eta = 3};
  IkaParams params;
  params.warm_past = tier == Tier::kWarmPast;
  BitHash hash;
  for (const std::vector<double>& series : corpus()) {
    IkaSst scorer(geo, params);
    std::vector<double> scores;
    switch (tier) {
      case Tier::kDefault:
      case Tier::kWarmPast:
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
    {Tier::kWarmPast, "warm_past", 5, 0x7122d8dc68578846ull},
    {Tier::kWarmPast, "warm_past", 9, 0x49df0b203a65d5aeull},
    {Tier::kWarmPast, "warm_past", 15, 0xb13f33f6cd0c0356ull},
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
  const std::vector<std::vector<double>> series = corpus();
  for (std::size_t omega : {5u, 9u, 15u}) {
    const SstGeometry geo{.omega = omega, .eta = 3};
    IkaParams fast;
    fast.warm_past = true;
    IkaSst plain(geo);
    IkaSst warm_past(geo, fast);
    IkaSst cold(geo);
    CascadeGate gate(std::make_unique<IkaSst>(geo), CascadeConfig{});
    const auto run_all = [&](const std::vector<double>& x) {
      const std::size_t w = geo.window();
      score_windows(x, w, [&](auto win) { return plain.score(win); });
      score_windows(x, w, [&](auto win) { return warm_past.score(win); });
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
