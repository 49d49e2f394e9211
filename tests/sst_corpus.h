// Test helpers shared by the IKA-SST bit-level suites
// (detect_sst_scorebits_test, detect_sst_bound_test):
//   * sst_corpus() — a fixed-seed corpus built from the src/workload KPI
//     classes with level shifts, ramps and transient spikes, then dirtied
//     with NaN gaps, flat runs, quantised stretches and one-sample spikes,
//     plus one constant series;
//   * AllocationScope — counts the heap allocations the current thread
//     makes inside its scope, through a counting replacement of the global
//     operator new that sst_corpus.cpp links into the test binary.
#pragma once

#include <cstddef>
#include <vector>

namespace funnel::detect {

/// The scorebits corpus (7 series of 360 minutes).
std::vector<std::vector<double>> sst_corpus();

/// Counts the heap allocations made by this thread inside its scope.
class AllocationScope {
 public:
  AllocationScope();
  ~AllocationScope();
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;
  std::size_t count() const;
};

}  // namespace funnel::detect
