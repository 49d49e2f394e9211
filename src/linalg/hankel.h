// Hankel (trajectory) matrices over sliding KPI windows.
//
// SST compares the dynamics before and after a candidate change point by
// embedding the raw series into Hankel matrices (Eq. 1 and 3):
//   B(t) = [q(t-δ), ..., q(t-1)],  q(t) = [x(t-ω+1), ..., x(t)]ᵀ
// Both the past matrix B and the future matrix A are built by `hankel` from
// the corresponding window slice. The Gram operator C = B·Bᵀ is applied
// implicitly (never materialized) — the paper's "matrix compression and
// implicit inner product calculation".
#pragma once

#include <span>

#include "linalg/lanczos.h"
#include "linalg/matrix.h"

namespace funnel::linalg {

/// Build an omega x count Hankel matrix whose column j is
/// window[j .. j+omega-1]. The window must contain exactly
/// omega + count - 1 samples.
Matrix hankel(std::span<const double> window, std::size_t omega,
              std::size_t count);

/// Number of raw samples a Hankel embedding of `count` lagged windows of
/// size `omega` consumes.
constexpr std::size_t hankel_span(std::size_t omega, std::size_t count) {
  return omega + count - 1;
}

/// Implicit Gram operator y = B·(Bᵀ·x) for a Hankel matrix B defined by a
/// raw window, computed directly from the samples without forming B or
/// B·Bᵀ. Cost per apply is O(omega * count) multiply-adds.
///
/// The window is copied (it is at most a few dozen samples), so the operator
/// remains valid after the source buffer changes — important for the online
/// sliding-window detector. set_window() re-points a long-lived operator at
/// the next window in place, without touching the heap.
class HankelGramOperator final : public LinearOperator {
 public:
  HankelGramOperator(std::span<const double> window, std::size_t omega,
                     std::size_t count);

  /// Replace the window (same length as the one constructed with).
  void set_window(std::span<const double> window);

  std::size_t dim() const override { return omega_; }
  /// apply() keeps Bᵀ·x (count() doubles) in the scratch.
  std::size_t scratch_size() const override { return count_; }
  using LinearOperator::apply;
  void apply(std::span<const double> x, std::span<double> y,
             std::span<double> scratch) const override;

  /// Y = C X for a block of `cols` vectors stored row-major
  /// (x[i * cols + b] = X(i, b), i < dim()), column by column through the
  /// same register-accumulating Hankel kernel apply() uses: each
  /// accumulator sums the same products in the same order as a
  /// column-at-a-time apply(), so the result is bit-identical to the scalar
  /// reference path (asserted by detect_sst_warmstart_test). `scratch`
  /// must hold at least count() * cols doubles and is fully overwritten.
  void apply_block(std::span<const double> x, std::span<double> y,
                   std::size_t cols, std::span<double> scratch) const;

  /// Reference implementation of apply_block: column-at-a-time apply()
  /// on copied columns. Tests compare apply_block against it.
  void apply_block_reference(std::span<const double> x, std::span<double> y,
                             std::size_t cols) const;

  std::size_t count() const { return count_; }

 private:
  std::size_t omega_;
  std::size_t count_;
  Vector window_;
};

/// K independent Hankel Gram operators applied in lockstep: operator k is
/// defined by windows[k * span .. (k+1) * span) and is applied to its own
/// block of `cols` vectors. Storage is KPI-interleaved (sample-major):
/// windows[i * kpis + k] is sample i of KPI k, x[(i * cols + b) * kpis + k]
/// is X_k(i, b) — so the innermost loop of the combined pass runs
/// unit-stride across the KPI lane, turning K tiny mat-vecs into one
/// cache-friendly strided sweep. Bit-identical to applying each operator
/// separately (same per-accumulator summation order).
class BatchHankelGram {
 public:
  /// `windows` holds kpis * hankel_span(omega, count) samples, interleaved
  /// as described above.
  BatchHankelGram(std::span<const double> windows, std::size_t kpis,
                  std::size_t omega, std::size_t count);

  std::size_t kpis() const { return kpis_; }
  std::size_t dim() const { return omega_; }

  /// y[(i * cols + b) * kpis + k] = (C_k X_k)(i, b) for every KPI lane k.
  /// `scratch` must hold at least count * cols * kpis doubles.
  void apply_block(std::span<const double> x, std::span<double> y,
                   std::size_t cols, std::span<double> scratch) const;

 private:
  std::size_t kpis_;
  std::size_t omega_;
  std::size_t count_;
  Vector windows_;  ///< interleaved copy
};

}  // namespace funnel::linalg
