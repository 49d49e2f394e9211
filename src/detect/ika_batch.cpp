#include "detect/ika_batch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "detect/sst_common.h"
#include "detect/sst_internal.h"
#include "linalg/hankel.h"

namespace funnel::detect {
namespace {

// Run `iterations` Rayleigh-Ritz power sweeps for every lane in `group`
// over its standardized half, with the Gram applies of all lanes fused
// into one BatchHankelGram pass per sweep. `halves[g]` is lane g's
// standardized half (2ω−1 samples — exactly the Hankel span for count=ω),
// `bases[g]` its persisted basis. Returns per-lane Ritz values.
//
// The interleave/deinterleave steps are pure data movement and the
// per-lane math is internal::ritz_rotate — the same helper IkaSst's fast
// path runs — so each lane's result is bit-identical to iterating it alone.
struct RitzResidual {
  double res2 = 0.0;
  double scale = 0.0;  ///< leading Rayleigh quotient
};

std::vector<linalg::Vector> batch_ritz(
    const std::vector<std::span<const double>>& halves,
    const std::vector<linalg::Matrix*>& bases, int iterations,
    std::size_t omega, std::size_t eta, internal::RitzWorkspace& ritz,
    std::vector<RitzResidual>* residuals = nullptr) {
  const std::size_t g_count = halves.size();
  std::vector<linalg::Vector> lambdas(g_count, linalg::Vector(eta, 0.0));
  if (residuals != nullptr) residuals->assign(g_count, RitzResidual{});
  if (g_count == 0) return lambdas;

  const std::size_t span = linalg::hankel_span(omega, omega);
  linalg::Vector windows(span * g_count);
  for (std::size_t g = 0; g < g_count; ++g) {
    for (std::size_t i = 0; i < span; ++i) {
      windows[i * g_count + g] = halves[g][i];
    }
  }
  const linalg::BatchHankelGram op(windows, g_count, omega, omega);

  linalg::Vector x(omega * eta * g_count), y(omega * eta * g_count);
  linalg::Vector scratch(omega * eta * g_count);
  linalg::Matrix ylane(omega, eta);
  const auto pack = [&] {
    for (std::size_t g = 0; g < g_count; ++g) {
      const linalg::Matrix& b = *bases[g];
      for (std::size_t i = 0; i < omega; ++i) {
        for (std::size_t c = 0; c < eta; ++c) {
          x[(i * eta + c) * g_count + g] = b(i, c);
        }
      }
    }
  };
  const auto unpack_lane = [&](std::size_t g) {
    for (std::size_t i = 0; i < omega; ++i) {
      for (std::size_t c = 0; c < eta; ++c) {
        ylane(i, c) = y[(i * eta + c) * g_count + g];
      }
    }
  };
  for (int it = 0; it < iterations; ++it) {
    pack();
    op.apply_block(x, y, eta, scratch);
    for (std::size_t g = 0; g < g_count; ++g) {
      unpack_lane(g);
      internal::ritz_rotate(*bases[g], ylane, lambdas[g], ritz);
    }
  }
  // Ritz residual against the final bases — one more fused apply, fed
  // through the same per-lane helper the scalar path uses.
  if (residuals != nullptr) {
    pack();
    op.apply_block(x, y, eta, scratch);
    for (std::size_t g = 0; g < g_count; ++g) {
      unpack_lane(g);
      (*residuals)[g].res2 =
          internal::ritz_residual2(*bases[g], ylane, (*residuals)[g].scale);
    }
  }
  return lambdas;
}

}  // namespace

IkaSstBatch::IkaSstBatch(std::size_t kpis, SstGeometry geometry,
                         IkaParams params)
    : geo_(geometry),
      params_(params),
      lanes_(kpis),
      ritz_(geometry.omega, geometry.eta) {
  FUNNEL_REQUIRE(kpis >= 1, "IkaSstBatch needs at least one lane");
  params_.warm_past = true;
  // Same invariants IkaSst enforces.
  FUNNEL_REQUIRE(geo_.omega >= 2, "SST needs omega >= 2");
  FUNNEL_REQUIRE(geo_.eta >= 1 && geo_.eta < geo_.omega,
                 "SST needs 1 <= eta < omega");
  FUNNEL_REQUIRE(params_.cold_iterations >= 1 && params_.warm_iterations >= 1,
                 "iteration counts must be positive");
  FUNNEL_REQUIRE(params_.restart_period >= 1,
                 "restart period must be positive");
}

void IkaSstBatch::reset() {
  for (Lane& lane : lanes_) lane = Lane{};
}

void IkaSstBatch::score_all(std::span<const double> windows,
                            std::span<double> out) {
  const std::size_t w = geo_.window();
  const std::size_t k = lanes_.size();
  FUNNEL_REQUIRE(windows.size() == k * w, "IkaSstBatch window size mismatch");
  FUNNEL_REQUIRE(out.size() >= k, "IkaSstBatch output too small");

  // Standardize every lane; dirty lanes score NaN and keep their state.
  std::vector<std::vector<double>> z(k);
  std::vector<std::size_t> active;
  active.reserve(k);
  for (std::size_t lane = 0; lane < k; ++lane) {
    z[lane] = standardize_window(windows.subspan(lane * w, w), geo_.half());
    if (z[lane].empty()) {
      out[lane] = std::numeric_limits<double>::quiet_NaN();
    } else {
      active.push_back(lane);
    }
  }

  // Eq. 11 damping factor per lane — reused for the final score and as the
  // escalation gate (factor == 0 ⟹ the lane scores 0 whatever the basis
  // quality, so warm drift there is exactly zero; same gate as IkaSst).
  std::vector<double> factor(k, 0.0);
  for (std::size_t lane : active) {
    const std::span<const double> zl(z[lane]);
    factor[lane] = robust_score_factor(zl.subspan(0, geo_.half()),
                                       zl.subspan(geo_.half(), geo_.half()));
  }

  // Restart policy per lane, then partition into cold and warm groups so
  // every lane in a group runs the same number of sweeps (a requirement
  // for fusing their applies — and for bit-identity with IkaSst).
  std::vector<std::size_t> cold, warm;
  for (std::size_t lane : active) {
    Lane& st = lanes_[lane];
    if (st.windows_since_restart >= params_.restart_period) {
      st.warm = false;
      st.windows_since_restart = 0;
    }
    ++st.windows_since_restart;
    (st.warm ? warm : cold).push_back(lane);
  }

  std::vector<linalg::Vector> lambdas(k), mus(k);

  // One fused batch_ritz over `group` for the chosen half (futures or
  // pasts), seeding first when `seed` is set, writing results into
  // lambdas/mus. Per-lane arithmetic is the same helpers IkaSst runs, so
  // each lane stays bit-identical to a standalone scorer.
  const auto run_group = [&](const std::vector<std::size_t>& group,
                             bool future_half, bool seed, int iters,
                             std::vector<RitzResidual>* residuals) {
    if (group.empty()) {
      if (residuals != nullptr) residuals->clear();
      return;
    }
    std::vector<std::span<const double>> halves;
    std::vector<linalg::Matrix*> bases;
    for (std::size_t lane : group) {
      Lane& st = lanes_[lane];
      const std::span<const double> zl(z[lane]);
      const auto half = future_half ? zl.subspan(geo_.half(), geo_.half())
                                    : zl.subspan(0, geo_.half());
      linalg::Matrix& basis = future_half ? st.future_basis : st.past_basis;
      if (seed) internal::seed_basis(basis, half, geo_.omega, geo_.eta, ritz_);
      halves.push_back(half);
      bases.push_back(&basis);
    }
    const auto lam = batch_ritz(halves, bases, iters, geo_.omega, geo_.eta,
                                ritz_, residuals);
    for (std::size_t g = 0; g < group.size(); ++g) {
      (future_half ? lambdas : mus)[group[g]] = lam[g];
    }
  };

  // Warm lanes first: warm sweeps + residual check; lanes whose basis lost
  // the subspace escalate and join the cold group for a full re-seed —
  // the identical decision the scalar fast path makes per window.
  for (const bool future_half : {true, false}) {
    std::vector<std::size_t> cold_group = cold;
    std::vector<RitzResidual> res;
    run_group(warm, future_half, /*seed=*/false, params_.warm_iterations,
              &res);
    for (std::size_t g = 0; g < warm.size(); ++g) {
      if (factor[warm[g]] > 0.0 &&
          internal::needs_escalation(res[g].res2, res[g].scale,
                                     params_.warm_residual_tol)) {
        cold_group.push_back(warm[g]);
      }
    }
    run_group(cold_group, future_half, /*seed=*/true, params_.cold_iterations,
              nullptr);
  }
  for (std::size_t lane : active) lanes_[lane].warm = true;

  for (std::size_t lane : active) {
    const Lane& st = lanes_[lane];
    double weighted = 0.0, total_weight = 0.0;
    internal::accumulate_fast_score(lambdas[lane], st.future_basis, mus[lane],
                                    st.past_basis, geo_.eta, weighted,
                                    total_weight);
    if (total_weight <= 0.0) {
      out[lane] = 0.0;
      continue;
    }
    const double xhat =
        std::max(weighted / total_weight, geo_.novelty_floor);
    out[lane] = xhat * factor[lane];  // Eq. 11
  }
}

}  // namespace funnel::detect
