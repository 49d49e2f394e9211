// Warm-start lifecycle of the IKA-SST scorer and the bit-exactness
// contract of the blocked Hankel kernel it runs on.
//
// The locked-down invariants:
//   * HankelGramOperator::apply_block is bit-identical to apply() and to
//     apply_block_reference.
//   * Retargeting a warm scorer onto an unrelated series (no reset())
//     re-converges instead of poisoning scores — the PR 5 regression.
//   * reset() fully clears warm state: score, reset, re-score is
//     byte-identical (the ThreadPool per-slot reuse contract).
// Fidelity of the warm scorer against the exact SVD scorer is guarded by
// detect_sst_fidelity_test's correlation floor.
#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "common/rng.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "detect/sst_common.h"
#include "linalg/hankel.h"
#include "workload/generators.h"
#include "workload/stream.h"

namespace funnel::detect {
namespace {

constexpr SstGeometry kGeom{.omega = 9, .eta = 3};

std::vector<double> class_series(tsdb::KpiClass cls, std::uint64_t seed,
                                 MinuteTime len, double shift = 0.0,
                                 MinuteTime tc = 0) {
  workload::KpiStream s(workload::make_default(cls, Rng(seed)));
  if (shift != 0.0) s.add_effect(workload::LevelShift{tc, shift});
  return workload::render(s, 0, len);
}

// ---------------------------------------------------------------------------
// Blocked Hankel kernels: bit-exactness vs the scalar reference.
// ---------------------------------------------------------------------------

TEST(BatchHankelKernels, ApplyBlockBitIdenticalToApply) {
  Rng rng(314);
  const std::size_t omega = 9, count = 9, cols = 3;
  std::vector<double> window(linalg::hankel_span(omega, count));
  for (double& v : window) v = rng.gaussian(0.0, 3.0);
  const linalg::HankelGramOperator op(window, omega, count);

  std::vector<double> x(omega * cols);
  for (double& v : x) v = rng.gaussian(0.0, 1.0);

  // Column-at-a-time apply().
  std::vector<double> expected(omega * cols);
  std::vector<double> xi(omega), yi(omega);
  for (std::size_t b = 0; b < cols; ++b) {
    for (std::size_t i = 0; i < omega; ++i) xi[i] = x[i * cols + b];
    op.apply(xi, yi);
    for (std::size_t i = 0; i < omega; ++i) expected[i * cols + b] = yi[i];
  }

  std::vector<double> y(omega * cols), yref(omega * cols);
  std::vector<double> scratch(op.count() * cols);
  op.apply_block(x, y, cols, scratch);
  op.apply_block_reference(x, yref, cols);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], expected[i]) << "apply_block diverged at " << i;
    EXPECT_EQ(yref[i], expected[i]) << "reference diverged at " << i;
  }
}

// ---------------------------------------------------------------------------
// Warm-state lifecycle.
// ---------------------------------------------------------------------------

// Regression: pointing a warm scorer at an unrelated series without
// reset() must re-converge, not poison subsequent scores.
TEST(WarmStartLifecycle, RetargetWithoutResetReconverges) {
  const std::vector<double> a =
      class_series(tsdb::KpiClass::kStationary, 3, 300);
  const std::vector<double> b =
      class_series(tsdb::KpiClass::kVariable, 91, 300, 8.0, 150);

  IkaSst retargeted(kGeom);
  const std::size_t w = kGeom.window();
  const auto sa = std::span<const double>(a);
  for (std::size_t i = 0; i + w <= a.size(); ++i) {
    (void)retargeted.score(sa.subspan(i, w));  // warm up on series A
  }

  IkaSst fresh(kGeom);
  const auto sb = std::span<const double>(b);
  const std::size_t burn_in = 5;  // warm sweeps re-converge within a few windows
  for (std::size_t i = 0; i + w <= b.size(); ++i) {
    const double stale = retargeted.score(sb.subspan(i, w));
    const double clean = fresh.score(sb.subspan(i, w));
    ASSERT_EQ(std::isnan(stale), std::isnan(clean)) << "window " << i;
    if (std::isnan(stale)) continue;
    EXPECT_TRUE(std::isfinite(stale)) << "window " << i;
    if (i >= burn_in) {
      EXPECT_NEAR(stale, clean, 0.12) << "window " << i;
    }
  }
}

// reset() must clear every piece of warm state: a reset scorer replays the
// series byte-for-byte (the ThreadPool per-slot reuse contract).
TEST(WarmStartLifecycle, ResetReplaysByteIdentical) {
  const std::vector<double> series =
      class_series(tsdb::KpiClass::kVariable, 13, 260, 8.0, 130);
  IkaSst scorer(kGeom);
  const auto first = score_series(scorer, series);
  scorer.reset();
  const auto second = score_series(scorer, series);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (std::isnan(first[i])) {
      EXPECT_TRUE(std::isnan(second[i])) << "window " << i;
    } else {
      EXPECT_EQ(first[i], second[i]) << "window " << i;
    }
  }
}

}  // namespace
}  // namespace funnel::detect
