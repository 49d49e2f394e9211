#include "detect/ika_sst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.h"
#include "linalg/hankel.h"
#include "linalg/lanczos.h"
#include "linalg/sym_eigen.h"
#include "linalg/tridiag.h"

namespace funnel::detect {
namespace {

// Power-iteration sweeps of the future basis: a cold start (no previous
// basis) iterates to convergence; a warm start from the previous window's
// basis, which differs by one sample, needs only a few.
constexpr int kColdIterations = 30;
constexpr int kWarmIterations = 3;

// Buffers of one Rayleigh-Ritz step on an omega x eta block.
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

// Orthonormalize the columns of b in place (modified Gram-Schmidt); columns
// that collapse to zero are replaced with canonical basis vectors so the
// block keeps full rank. `col` (b.rows() doubles) holds the working column.
void orthonormalize(linalg::Matrix& b, std::span<double> col) {
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

// Seed a cold block with lagged windows spread across the half, plus a
// small perturbation on the first column, then orthonormalize.
void seed_basis(linalg::Matrix& basis, std::span<const double> half,
                std::size_t omega, std::size_t eta, RitzWorkspace& ws) {
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

// One Rayleigh-Ritz step given Y = C·B: T = Bᵀ Y (eta x eta, symmetric),
// eigendecompose, B <- orth(Y·Q). Writes the Ritz values (non-increasing
// estimates of C's leading eigenvalues) into `lambdas` (eta doubles).
void ritz_rotate(linalg::Matrix& basis, const linalg::Matrix& y,
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

// Block power sweeps with Rayleigh-Ritz extraction:
// B <- orth((C B) Q) with Q the eigenvectors of T = Bᵀ C B. Writes the Ritz
// values (estimates of C's leading eigenvalues, non-increasing) into
// `lambdas`. The C·B product runs through apply_block — bit-identical to
// column-at-a-time applies — into `y`, with `block` as its scratch.
void ritz_iterate(const linalg::HankelGramOperator& op, linalg::Matrix& basis,
                  int iterations, linalg::Matrix& y, linalg::Vector& block,
                  std::span<double> lambdas, RitzWorkspace& ritz) {
  const std::size_t eta = basis.cols();
  std::fill(lambdas.begin(), lambdas.end(), 0.0);
  for (int it = 0; it < iterations; ++it) {
    op.apply_block(basis.data(), y.data(), eta, block);
    ritz_rotate(basis, y, lambdas, ritz);
  }
}

// Every buffer score() touches, sized from the geometry. It carries nothing
// from one window to the next, so all scorers on a thread share one
// (workspace_for): per-scorer copies would cost a few KB each, and an
// online assessor keeps a scorer per watched KPI.
struct Workspace {
  explicit Workspace(const SstGeometry& geo);
  std::size_t omega;
  std::size_t eta;
  WindowScratch window;  ///< standardized window + median/MAD buffer
  linalg::HankelGramOperator past_op;
  linalg::HankelGramOperator future_op;
  linalg::Matrix y;        ///< omega x eta, C·B
  linalg::Vector block;    ///< apply_block scratch
  linalg::Vector lambdas;  ///< future Ritz values
  RitzWorkspace ritz;
  linalg::Vector beta;  ///< one future direction
  linalg::LanczosWorkspace lanczos;
  linalg::Tridiagonal tk;  ///< T_k of the past operator
  linalg::TridiagWorkspace ql;
  linalg::SymEigen tk_eigen;
};

Workspace::Workspace(const SstGeometry& geo)
    : omega(geo.omega),
      eta(geo.eta),
      window(geo.window()),
      past_op(linalg::Vector(geo.half(), 0.0), geo.omega, geo.omega),
      future_op(linalg::Vector(geo.half(), 0.0), geo.omega, geo.omega),
      y(geo.omega, geo.eta),
      block(geo.omega * geo.eta),
      lambdas(geo.eta),
      ritz(geo.omega, geo.eta),
      beta(geo.omega) {
  // Lanczos may stop short of k steps on a low-rank window, so T_k's size
  // varies; reserve for the largest so no later window grows a buffer.
  const std::size_t k = geo.krylov_k();
  lanczos.basis.resize(k, geo.omega);
  lanczos.v.reserve(geo.omega);
  lanczos.w.reserve(geo.omega);
  lanczos.scratch.reserve(geo.omega);
  tk.diag.reserve(k);
  tk.subdiag.reserve(k);
  ql.d.reserve(k);
  ql.e.reserve(k);
  ql.z.resize(k, k);
  ql.order.reserve(k);
  tk_eigen.values.reserve(k);
  tk_eigen.vectors.resize(k, k);
}

// This thread's workspace, rebuilt only when the thread moves on to a
// scorer of another geometry.
Workspace& workspace_for(const SstGeometry& geo) {
  thread_local std::unique_ptr<Workspace> ws;
  if (ws == nullptr || ws->omega != geo.omega || ws->eta != geo.eta) {
    ws = std::make_unique<Workspace>(geo);
  }
  return *ws;
}

}  // namespace

IkaSst::IkaSst(SstGeometry geometry) : geo_(geometry) {
  FUNNEL_REQUIRE(geo_.omega >= 2, "SST needs omega >= 2");
  FUNNEL_REQUIRE(geo_.eta >= 1 && geo_.eta < geo_.omega,
                 "SST needs 1 <= eta < omega");
  FUNNEL_REQUIRE(geo_.krylov_k() <= geo_.omega,
                 "Krylov dimension k must not exceed omega");
}

double IkaSst::score(std::span<const double> window) {
  return score_bounded(window, -std::numeric_limits<double>::infinity());
}

double IkaSst::score_against(std::span<const double> window,
                             double threshold) {
  return score_bounded(window, threshold);
}

double IkaSst::score_bounded(std::span<const double> window, double bound) {
  FUNNEL_REQUIRE(window.size() == geo_.window(),
                 "IkaSst window size mismatch");
  Workspace& ws = workspace_for(geo_);
  if (!standardize_window(window, geo_.half(), ws.window.z, ws.window.work)) {
    return std::numeric_limits<double>::quiet_NaN();
  }

  const std::size_t omega = geo_.omega;
  const std::size_t eta = geo_.eta;
  const std::size_t k = geo_.krylov_k();
  const std::span<const double> z(ws.window.z);
  const std::span<const double> past = z.subspan(0, geo_.half());
  const std::span<const double> future = z.subspan(geo_.half(), geo_.half());

  // Eq. 11 damping factor.
  const double factor = robust_score_factor(past, future, ws.window.work);

  // --- Future: eta leading eigenpairs of A·Aᵀ by warm-started block power
  // iteration with Rayleigh-Ritz extraction.
  ws.future_op.set_window(future);
  if (!warm_) seed_basis(future_basis_, future, omega, eta, ws.ritz);
  ritz_iterate(ws.future_op, future_basis_,
               warm_ ? kWarmIterations : kColdIterations, ws.y, ws.block,
               ws.lambdas, ws.ritz);
  warm_ = true;

  // Exact alarm bound. The score is x̂ · factor with x̂ in
  // [0, max(1, novelty_floor)]: every φᵢ is clamped to [0, 1], so
  // Σλφ <= Σλ and weighted / total_weight <= 1 (rounding is monotone).
  // A window with factor · max(1, novelty_floor) <= bound therefore
  // scores <= bound, and the per-direction Lanczos + QL work is skipped.
  // The future sweep above has run, so the warm basis still advances.
  // A +0.0 factor scores +0.0 on the full path too (x̂ is finite and the
  // zero-weight branch returns +0.0), so score() skips it as well: its
  // bound is -inf, and 0.0 <= -inf fails, hence the second test. A NaN
  // factor fails both and takes the full path.
  if (factor == 0.0 ||
      factor * std::max(1.0, geo_.novelty_floor) <= bound) {
    return 0.0;
  }

  // --- Past: phi_i per future direction. ---
  ws.past_op.set_window(past);

  double weighted = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < eta; ++i) {
    const double lambda = std::max(ws.lambdas[i], 0.0);
    if (lambda <= 0.0) break;
    for (std::size_t r = 0; r < omega; ++r) {
      ws.beta[r] = future_basis_(r, i);
    }

    linalg::lanczos(ws.past_op, ws.beta, k, ws.tk, ws.lanczos);
    linalg::tridiag_eigen(ws.tk, ws.tk_eigen, ws.ql);
    const linalg::SymEigen& pe = ws.tk_eigen;
    double proj2 = 0.0;
    const std::size_t n_past = std::min<std::size_t>(eta, pe.values.size());
    for (std::size_t j = 0; j < n_past; ++j) {
      if (pe.values[j] <= 0.0) break;
      const double x0 = pe.vectors(0, j);  // Eq. 13: first components
      proj2 += x0 * x0;
    }
    const double phi = std::clamp(1.0 - proj2, 0.0, 1.0);
    weighted += lambda * phi;  // Eq. 9
    total_weight += lambda;
  }
  if (total_weight <= 0.0) return 0.0;
  const double xhat =
      std::max(weighted / total_weight, geo_.novelty_floor);

  return xhat * factor;  // Eq. 11
}

}  // namespace funnel::detect
