#include "sst_corpus.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace {

// Heap allocations made by this thread while counting is on.
thread_local bool g_counting = false;
thread_local std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line so the compiler does not pair an inlined free() with a
// caller's operator new and warn about a mismatch.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

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

AllocationScope::AllocationScope() {
  g_allocations = 0;
  g_counting = true;
}

AllocationScope::~AllocationScope() { g_counting = false; }

std::size_t AllocationScope::count() const { return g_allocations; }

namespace {

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

}  // namespace

std::vector<std::vector<double>> sst_corpus() {
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

}  // namespace funnel::detect
