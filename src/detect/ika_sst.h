// FUNNEL's production detector: improved SST accelerated with the Implicit
// Krylov Approximation (§3.2.3, Idé & Tsuda 2007).
//
// Identical score semantics to ImprovedSst (Eq. 9-11) but with every dense
// decomposition replaced by the cheap path:
//   * the Gram matrices C = B·Bᵀ (past) and A·Aᵀ (future) are never formed —
//     HankelGramOperator applies them implicitly from the raw samples
//     ("matrix compression and implicit inner product calculation");
//   * the future eigen-directions β₁..β_eta are maintained by warm-started
//     block power iteration with Rayleigh-Ritz extraction: consecutive
//     windows overlap in all but one sample, so the previous window's basis
//     is an excellent starting guess and two or three iterations suffice
//     (Idé & Tsuda's "feedback" mechanism); a cold start simply iterates
//     longer;
//   * each φᵢ is read off a k-step Lanczos run on the past operator seeded
//     at βᵢ: in the Krylov basis the seed is e₁, so
//     φᵢ ≈ 1 − Σ_{j≤eta} x_j[0]²  (Eq. 13)
//     with x_j the leading eigenvectors of the k×k tridiagonal T_k,
//     extracted by the QL iteration; k = 2·eta or 2·eta−1 (Eq. 14).
//
// The warm start makes the scorer stateful: feeding it consecutive sliding
// windows (the only access pattern in FUNNEL) is both fastest and most
// accurate. Non-consecutive windows are still correct — the iteration
// re-converges — just marginally slower.
#pragma once

#include <cstdint>

#include "detect/scorer.h"
#include "detect/sst_common.h"
#include "linalg/matrix.h"

namespace funnel::detect {

struct IkaParams {
  /// Power-iteration sweeps on a cold start (no previous basis).
  int cold_iterations = 30;
  /// Sweeps when warm-started from the previous window's basis.
  int warm_iterations = 3;
  /// Fast path: also persist the *past* eigen-subspace across windows and
  /// read each φᵢ as a projection onto it, instead of running a fresh
  /// k-step Lanczos per future direction per window. Approximates the same
  /// Eq. 13 quantity; fidelity vs exact SVD is guarded by
  /// detect_sst_fidelity_test (corr ≥ 0.92). Off by default — the default
  /// path stays bit-identical to the original scorer.
  bool warm_past = false;
  /// Deterministic cold-restart policy for the fast path: every
  /// `restart_period` scored windows both warm bases are rebuilt from
  /// scratch, so accumulated drift cannot compound and a run's scores are a
  /// pure function of (series, params) regardless of where timing noise
  /// lands. Ignored when warm_past is false.
  int restart_period = 64;
  /// Fast path, warm windows only: after the warm sweeps, the Ritz residual
  /// ||C·B − B·diag(λ)||_F is checked against `warm_residual_tol · λ₁`;
  /// when the warm basis failed to track the subspace (sharp dynamics
  /// change, near-degenerate spectrum), the window escalates to a full cold
  /// re-seed + cold_iterations — bit-identical to what a cold restart would
  /// compute. This bounds warm-start drift per window by construction
  /// (locked down by detect_sst_warmstart_test's differential suite).
  double warm_residual_tol = 0.02;
};

class IkaSst final : public ChangeScorer {
 public:
  explicit IkaSst(SstGeometry geometry = {}, IkaParams params = {});

  std::size_t window_size() const override { return geo_.window(); }
  std::size_t change_offset() const override { return geo_.half(); }
  double score(std::span<const double> window) override;
  const char* name() const override { return "funnel-ika-sst"; }

  const SstGeometry& geometry() const { return geo_; }
  const IkaParams& params() const { return params_; }

  /// Drop ALL warm-start state (both bases, warm flags, and the restart
  /// counter) — e.g. when retargeting the scorer to a different KPI stream,
  /// or when a ThreadPool slot reuses the scorer for the next metric. After
  /// reset() the scorer is *scoring-state* equivalent to a freshly
  /// constructed one: every subsequent score is byte-identical to a fresh
  /// scorer's. The lifetime telemetry counters below deliberately survive —
  /// they describe the scorer object, not the stream, and the per-slot
  /// assessor scorers would lose their totals on every KPI otherwise.
  void reset() {
    warm_ = false;
    past_warm_ = false;
    windows_since_restart_ = 0;
  }

  /// Lifetime count of deterministic cold restarts taken by the fast path
  /// (the restart_period policy firing; excludes the initial cold start of
  /// each stream). Never reset; diff around a run to attribute.
  std::uint64_t cold_restarts() const { return cold_restarts_; }
  /// Lifetime count of warm windows escalated to a full cold re-seed by the
  /// Ritz-residual check (future + past subspaces both count). Never reset.
  std::uint64_t escalations() const { return escalations_; }

 private:
  SstGeometry geo_;
  IkaParams params_;
  linalg::Matrix future_basis_;  ///< omega x eta, persisted across windows
  linalg::Matrix past_basis_;    ///< omega x eta, fast path only
  bool warm_ = false;
  bool past_warm_ = false;
  int windows_since_restart_ = 0;
  std::uint64_t cold_restarts_ = 0;  ///< lifetime telemetry, survives reset()
  std::uint64_t escalations_ = 0;    ///< lifetime telemetry, survives reset()
};

}  // namespace funnel::detect
