#include "linalg/lanczos.h"

#include <cmath>

#include "common/error.h"

namespace funnel::linalg {

void LinearOperator::apply(std::span<const double> x,
                           std::span<double> y) const {
  Vector scratch(scratch_size());
  apply(x, y, scratch);
}

DenseOperator::DenseOperator(Matrix m) : m_(std::move(m)) {
  FUNNEL_REQUIRE(m_.rows() == m_.cols(), "DenseOperator requires square matrix");
}

void DenseOperator::apply(std::span<const double> x, std::span<double> y,
                          std::span<double> /*scratch*/) const {
  FUNNEL_REQUIRE(x.size() == m_.cols(), "matvec dimension mismatch");
  for (std::size_t r = 0; r < m_.rows(); ++r) {
    const auto row = m_.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void lanczos(const LinearOperator& op, std::span<const double> v0,
             std::size_t k, Tridiagonal& t, LanczosWorkspace& ws) {
  const std::size_t n = op.dim();
  FUNNEL_REQUIRE(v0.size() == n, "lanczos seed dimension mismatch");
  FUNNEL_REQUIRE(k >= 1, "lanczos needs at least one step");
  k = std::min(k, n);

  ws.basis.resize(k, n);
  ws.v.assign(v0.begin(), v0.end());
  ws.w.assign(n, 0.0);
  ws.scratch.resize(op.scratch_size());
  const std::span<double> v(ws.v);
  const std::span<double> w(ws.w);
  const double v0norm = normalize(v);
  FUNNEL_REQUIRE(v0norm > 0.0, "lanczos seed must be nonzero");

  // Every step but the last appends one beta, so subdiag always ends with
  // diag.size() - 1 entries.
  Vector& alphas = t.diag;
  Vector& betas = t.subdiag;
  alphas.clear();
  betas.clear();
  alphas.reserve(k);
  betas.reserve(k);

  for (std::size_t j = 0; j < k; ++j) {
    std::copy(v.begin(), v.end(), ws.basis.row(j).begin());
    op.apply(v, w, ws.scratch);
    const double alpha = dot(w, v);
    alphas.push_back(alpha);
    // w <- w - alpha v - beta v_{j-1}, then full reorthogonalization.
    axpy(-alpha, v, w);
    if (j > 0) axpy(-betas.back(), ws.basis.row(j - 1), w);
    for (std::size_t b = 0; b <= j; ++b) {
      const double proj = dot(w, ws.basis.row(b));
      axpy(-proj, ws.basis.row(b), w);
    }
    const double beta = norm2(w);
    if (j + 1 == k) break;
    if (beta <= 1e-13 * std::abs(alphas.front() == 0.0 ? 1.0 : alphas.front()) ||
        beta <= 1e-300) {
      // Krylov space exhausted (C has low rank relative to the seed).
      break;
    }
    betas.push_back(beta);
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / beta;
  }
}

LanczosResult lanczos(const LinearOperator& op, std::span<const double> v0,
                      std::size_t k, bool want_basis) {
  LanczosResult out;
  LanczosWorkspace ws;
  lanczos(op, v0, k, out.t, ws);
  if (want_basis) {
    out.basis = Matrix(op.dim(), out.steps());
    for (std::size_t j = 0; j < out.steps(); ++j) {
      out.basis.set_col(j, ws.basis.row(j));
    }
  }
  return out;
}

}  // namespace funnel::linalg
