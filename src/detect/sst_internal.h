// Internal building blocks shared by IkaSst and IkaSstBatch.
//
// The batch scorer's contract is bit-identical per-lane results vs a
// standalone fast-path IkaSst, which only holds if both run literally the
// same per-lane arithmetic in the same order. These helpers are that
// arithmetic; keep them header-inline so there is exactly one definition to
// drift. They work in place in a caller-owned RitzWorkspace, so a scorer
// that keeps one per geometry scores windows without heap allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>

#include "linalg/matrix.h"
#include "linalg/sym_eigen.h"

namespace funnel::detect::internal {

/// Buffers of one Rayleigh-Ritz step on an omega x eta block.
struct RitzWorkspace {
  RitzWorkspace(std::size_t omega, std::size_t eta)
      : t(eta, eta), next(omega, eta), col(omega) {
    te.values.resize(eta);
    te.vectors.resize(eta, eta);
    eig.m.resize(eta, eta);
    eig.q.resize(eta, eta);
    eig.diag.resize(eta);
    eig.order.resize(eta);
  }
  linalg::Matrix t;     ///< eta x eta projected operator Bᵀ·C·B
  linalg::SymEigen te;  ///< its eigenpairs
  linalg::SymEigenWorkspace eig;
  linalg::Matrix next;  ///< omega x eta rotated block
  linalg::Vector col;   ///< one column being orthonormalized
};

/// Orthonormalize the columns of b in place (modified Gram-Schmidt); columns
/// that collapse to zero are replaced with canonical basis vectors so the
/// block keeps full rank. `col` (b.rows() doubles) holds the working column.
inline void orthonormalize(linalg::Matrix& b, std::span<double> col) {
  const std::size_t n = b.rows();
  const auto remove_previous = [&](std::size_t j) {
    for (std::size_t k = 0; k < j; ++k) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += col[i] * b(i, k);
      for (std::size_t i = 0; i < n; ++i) col[i] -= proj * b(i, k);
    }
  };
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
    remove_previous(j);
    if (linalg::normalize(col) <= 1e-12) {
      std::fill(col.begin(), col.end(), 0.0);
      col[j % n] = 1.0;
      remove_previous(j);
      linalg::normalize(col);
    }
    for (std::size_t i = 0; i < n; ++i) b(i, j) = col[i];
  }
}

/// Seed a cold block with lagged windows spread across the half, plus a
/// small perturbation on the first column, then orthonormalize.
inline void seed_basis(linalg::Matrix& basis, std::span<const double> half,
                       std::size_t omega, std::size_t eta,
                       RitzWorkspace& ws) {
  basis.resize(omega, eta);
  for (std::size_t j = 0; j < eta; ++j) {
    const std::size_t offset =
        eta > 1 ? j * (half.size() - omega) / (eta - 1) : 0;
    for (std::size_t i = 0; i < omega; ++i) {
      basis(i, j) = half[offset + i] + (j == 0 ? 1e-3 : 0.0);
    }
  }
  orthonormalize(basis, ws.col);
}

/// One Rayleigh-Ritz step given Y = C·B: T = Bᵀ Y (eta x eta, symmetric),
/// eigendecompose, B <- orth(Y·Q). Writes the Ritz values (non-increasing
/// estimates of C's leading eigenvalues) into `lambdas` (eta doubles).
inline void ritz_rotate(linalg::Matrix& basis, const linalg::Matrix& y,
                        std::span<double> lambdas, RitzWorkspace& ws) {
  const std::size_t omega = basis.rows();
  const std::size_t eta = basis.cols();
  for (std::size_t a = 0; a < eta; ++a) {
    for (std::size_t b = a; b < eta; ++b) {
      double v = 0.0;
      for (std::size_t i = 0; i < omega; ++i) v += basis(i, a) * y(i, b);
      ws.t(a, b) = v;
      ws.t(b, a) = v;
    }
  }
  linalg::sym_eigen(ws.t, ws.te, ws.eig);
  ws.next.resize(omega, eta);
  for (std::size_t j = 0; j < eta; ++j) {
    for (std::size_t a = 0; a < eta; ++a) {
      const double q = ws.te.vectors(a, j);
      for (std::size_t i = 0; i < omega; ++i) ws.next(i, j) += y(i, a) * q;
    }
  }
  orthonormalize(ws.next, ws.col);
  std::swap(basis, ws.next);
  std::copy(ws.te.values.begin(), ws.te.values.end(), lambdas.begin());
}

/// Squared Frobenius residual ||C·B − B·diag(ρ)||² of a Ritz block, given
/// y = C·B for the *updated* basis, with ρc the current Rayleigh quotients
/// bcᵀ·C·bc (not the one-sweep-stale Ritz values). `scale` receives the
/// leading quotient ρ₀ — the natural reference for a relative tolerance.
/// Fixed summation order (columns outer, rows inner) so scalar and batch
/// paths compute the identical double.
inline double ritz_residual2(const linalg::Matrix& basis,
                             const linalg::Matrix& y, double& scale) {
  double res2 = 0.0;
  scale = 0.0;
  for (std::size_t c = 0; c < basis.cols(); ++c) {
    double rho = 0.0;
    for (std::size_t i = 0; i < basis.rows(); ++i) {
      rho += basis(i, c) * y(i, c);
    }
    if (c == 0) scale = rho;
    for (std::size_t i = 0; i < basis.rows(); ++i) {
      const double r = y(i, c) - rho * basis(i, c);
      res2 += r * r;
    }
  }
  return res2;
}

/// Warm-start escalation predicate: the warm sweeps failed to track the
/// subspace when the Ritz residual exceeds `tol` relative to the leading
/// Rayleigh quotient. Windows where this fires re-run the full cold
/// iteration, so warm-start drift is bounded by construction (the
/// escalated window is bit-identical to a cold restart).
inline bool needs_escalation(double res2, double lambda_scale, double tol) {
  const double scale = std::max(lambda_scale, 1e-12);
  return res2 > tol * tol * scale * scale;
}

/// Fast-path Eq. 9 accumulation: for each positive future Ritz value λᵢ,
/// φᵢ = clamp(1 − Σⱼ (βᵢ·uⱼ)², 0, 1) over the positive-μ past directions.
inline void accumulate_fast_score(std::span<const double> lambdas,
                                  const linalg::Matrix& future_basis,
                                  std::span<const double> mus,
                                  const linalg::Matrix& past_basis,
                                  std::size_t eta, double& weighted,
                                  double& total_weight) {
  const std::size_t omega = future_basis.rows();
  for (std::size_t i = 0; i < eta; ++i) {
    const double lambda = std::max(lambdas[i], 0.0);
    if (lambda <= 0.0) break;
    double proj2 = 0.0;
    for (std::size_t j = 0; j < eta; ++j) {
      if (mus[j] <= 0.0) break;
      double p = 0.0;
      for (std::size_t r = 0; r < omega; ++r) {
        p += future_basis(r, i) * past_basis(r, j);
      }
      proj2 += p * p;
    }
    const double phi = std::clamp(1.0 - proj2, 0.0, 1.0);
    weighted += lambda * phi;  // Eq. 9
    total_weight += lambda;
  }
}

}  // namespace funnel::detect::internal
