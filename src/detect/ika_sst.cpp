#include "detect/ika_sst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/error.h"
#include "detect/sst_internal.h"
#include "linalg/hankel.h"
#include "linalg/lanczos.h"
#include "linalg/tridiag.h"

namespace funnel::detect {
namespace {

using internal::seed_basis;

// One or more block power sweeps with Rayleigh-Ritz extraction:
// B <- orth((C B) Q) with Q the eigenvectors of T = Bᵀ C B. Writes the Ritz
// values (estimates of C's leading eigenvalues, non-increasing) into
// `lambdas`. The C·B product runs through apply_block — bit-identical to
// column-at-a-time applies — into `y`, with `block` as its scratch. When
// `residual` is non-null, one extra apply against the final basis fills it
// with the squared Ritz residual (the warm-start escalation signal); the
// extra apply never perturbs basis or lambdas.
struct RitzResidual {
  double res2 = 0.0;
  double scale = 0.0;  ///< leading Rayleigh quotient
};

void ritz_iterate(const linalg::HankelGramOperator& op, linalg::Matrix& basis,
                  int iterations, linalg::Matrix& y, linalg::Vector& block,
                  std::span<double> lambdas, internal::RitzWorkspace& ritz,
                  RitzResidual* residual = nullptr) {
  const std::size_t eta = basis.cols();
  std::fill(lambdas.begin(), lambdas.end(), 0.0);
  for (int it = 0; it < iterations; ++it) {
    op.apply_block(basis.data(), y.data(), eta, block);
    internal::ritz_rotate(basis, y, lambdas, ritz);
  }
  if (residual != nullptr) {
    op.apply_block(basis.data(), y.data(), eta, block);
    residual->res2 = internal::ritz_residual2(basis, y, residual->scale);
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
  linalg::Vector mus;      ///< past Ritz values (fast path)
  internal::RitzWorkspace ritz;
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
      mus(geo.eta),
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

IkaSst::IkaSst(SstGeometry geometry, IkaParams params)
    : geo_(geometry), params_(params) {
  FUNNEL_REQUIRE(geo_.omega >= 2, "SST needs omega >= 2");
  FUNNEL_REQUIRE(geo_.eta >= 1 && geo_.eta < geo_.omega,
                 "SST needs 1 <= eta < omega");
  FUNNEL_REQUIRE(geo_.krylov_k() <= geo_.omega,
                 "Krylov dimension k must not exceed omega");
  FUNNEL_REQUIRE(params_.cold_iterations >= 1 && params_.warm_iterations >= 1,
                 "iteration counts must be positive");
  FUNNEL_REQUIRE(params_.restart_period >= 1,
                 "restart period must be positive");
}

double IkaSst::score(std::span<const double> window) {
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

  // Deterministic cold restart (fast path only): rebuilding both bases from
  // scratch every restart_period scored windows keeps warm-start drift
  // bounded and makes a run's scores a pure function of the series.
  if (params_.warm_past && windows_since_restart_ >= params_.restart_period) {
    warm_ = false;
    past_warm_ = false;
    windows_since_restart_ = 0;
    ++cold_restarts_;
  }
  if (params_.warm_past) ++windows_since_restart_;

  // Eq. 11 damping factor, shared by every path. On the fast path it also
  // gates the escalation check: when the factor is exactly zero the window
  // scores 0 regardless of basis quality (score = x̂ · factor), so warm
  // sweeps proceed without the residual apply and cannot contribute drift.
  const double factor = robust_score_factor(past, future, ws.window.work);

  // --- Future: eta leading eigenpairs of A·Aᵀ by warm-started block power
  // iteration with Rayleigh-Ritz extraction. On the fast path, a warm
  // window whose Ritz residual shows the basis lost the subspace escalates
  // to a full cold re-seed — bit-identical to a cold restart at this
  // window, so drift is bounded per window, not just per restart period.
  ws.future_op.set_window(future);
  const bool future_was_warm = warm_;
  if (!warm_) seed_basis(future_basis_, future, omega, eta, ws.ritz);
  const bool check_future =
      params_.warm_past && future_was_warm && factor > 0.0;
  RitzResidual future_res;
  ritz_iterate(ws.future_op, future_basis_,
               future_was_warm ? params_.warm_iterations
                               : params_.cold_iterations,
               ws.y, ws.block, ws.lambdas, ws.ritz,
               check_future ? &future_res : nullptr);
  if (check_future &&
      internal::needs_escalation(future_res.res2, future_res.scale,
                                 params_.warm_residual_tol)) {
    seed_basis(future_basis_, future, omega, eta, ws.ritz);
    ritz_iterate(ws.future_op, future_basis_, params_.cold_iterations, ws.y,
                 ws.block, ws.lambdas, ws.ritz);
    ++escalations_;
  }
  warm_ = true;

  // Exact zero-factor short-circuit (default path). The score is
  // x̂ · factor with x̂ finite in [0, max(1, novelty_floor)], and the
  // zero-weight branch below returns +0.0 as well, so a +0.0 factor scores
  // +0.0 whatever the past subspace holds: the per-direction Lanczos + QL
  // work is skipped. The future sweep above still ran, so the warm basis
  // advances exactly as before. `==` (not `!(factor > 0)`) keeps a NaN
  // factor on the full path. The fast path cannot skip: its past basis is
  // warm state of its own.
  if (!params_.warm_past && factor == 0.0) return 0.0;

  // --- Past: phi_i per future direction. ---
  ws.past_op.set_window(past);

  double weighted = 0.0;
  double total_weight = 0.0;
  if (params_.warm_past) {
    // Fast path: persist the past eigen-subspace the same way the future one
    // is persisted and read φᵢ = 1 − Σⱼ (βᵢ·uⱼ)² over the positive-λ past
    // directions uⱼ — the quantity the per-direction Lanczos runs
    // approximate (Eq. 13), for one warm block sweep per window instead of
    // eta cold Krylov factorizations.
    const bool past_was_warm = past_warm_;
    if (!past_warm_) seed_basis(past_basis_, past, omega, eta, ws.ritz);
    const bool check_past = past_was_warm && factor > 0.0;
    RitzResidual past_res;
    ritz_iterate(ws.past_op, past_basis_,
                 past_was_warm ? params_.warm_iterations
                               : params_.cold_iterations,
                 ws.y, ws.block, ws.mus, ws.ritz,
                 check_past ? &past_res : nullptr);
    if (check_past &&
        internal::needs_escalation(past_res.res2, past_res.scale,
                                   params_.warm_residual_tol)) {
      seed_basis(past_basis_, past, omega, eta, ws.ritz);
      ritz_iterate(ws.past_op, past_basis_, params_.cold_iterations, ws.y,
                   ws.block, ws.mus, ws.ritz);
      ++escalations_;
    }
    past_warm_ = true;
    internal::accumulate_fast_score(ws.lambdas, future_basis_, ws.mus,
                                    past_basis_, eta, weighted, total_weight);
  } else {
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
  }
  if (total_weight <= 0.0) return 0.0;
  const double xhat =
      std::max(weighted / total_weight, geo_.novelty_floor);

  return xhat * factor;  // Eq. 11
}

}  // namespace funnel::detect
