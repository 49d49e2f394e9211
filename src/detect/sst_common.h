// Shared pieces of the SST detector family.
//
// Geometry (§3.2.1 with the §3.2.2 parameter policy rho = 0, gamma = delta =
// omega): the window holds 2*omega-1 "past" samples followed by 2*omega-1
// "future" samples, W = 4*omega-2 — for omega = 9 this gives W = 34, the
// paper's W_FUNNEL. The candidate change point is the first future sample.
//
// All SST variants standardize the window robustly before embedding so that
// one threshold works across KPIs with arbitrary units: the center and scale
// come from the *past* half (median / MAD) — the pre-change baseline — so a
// post-change excursion is expressed in baseline-noise units instead of
// being compressed by its own magnitude. The improved variants additionally
// damp the raw score by the |Δmedian|·√|ΔMAD| factor of Eq. 11.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace funnel::detect {

/// Window layout shared by the SST variants.
struct SstGeometry {
  std::size_t omega = 9;  ///< lagged-window size ω (5 = fast, 15 = precise)
  std::size_t eta = 3;    ///< subspace dimension η (3-4 works for ω ~ 100)

  /// Floor on the subspace-discordance term x̂ of Eq. 9 in the improved
  /// variants. Mid-way through a ramp (or a few minutes after a shift) the
  /// change direction has already entered the *past* trajectory subspace,
  /// so x̂ collapses even though the level difference between the halves is
  /// blatant; the Eq. 11 level factor then gets a minimum weight instead of
  /// being annihilated. Windows with no level difference still score ~0
  /// because the Eq. 11 factor itself vanishes.
  double novelty_floor = 0.25;

  std::size_t half() const { return 2 * omega - 1; }
  std::size_t window() const { return 4 * omega - 2; }

  /// Krylov dimension k of Eq. 14.
  std::size_t krylov_k() const { return eta % 2 == 0 ? 2 * eta : 2 * eta - 1; }
};

/// Working buffers for standardizing one window and computing its Eq. 11
/// factor without touching the heap: `z` receives the standardized window,
/// `work` is the median/MAD buffer. Sized from the window length once.
struct WindowScratch {
  WindowScratch() = default;
  explicit WindowScratch(std::size_t window) : z(window), work(window) {}
  std::vector<double> z;
  std::vector<double> work;
};

/// Robustly standardized window: (x - center) / scale where center is the
/// median of the first `baseline_len` samples (the pre-change baseline) and
/// scale its MAD-sigma, falling back to the baseline stddev, then to the
/// whole-window MAD-sigma/stddev, then to 1 (constant windows pass through
/// centered). Writes into `out` (window.size() doubles) using `work`
/// (at least window.size() doubles); returns false, leaving `out`
/// untouched, when the window contains non-finite samples.
bool standardize_window(std::span<const double> window,
                        std::size_t baseline_len, std::span<double> out,
                        std::span<double> work);

/// Allocating form of the above: returns the standardized copy, or empty
/// for a window with non-finite samples.
std::vector<double> standardize_window(std::span<const double> window,
                                       std::size_t baseline_len);

/// Eq. 11's damping factor computed on the standardized window:
/// max(|median_b - median_a| - slack, 0) * sqrt(|MAD_b - MAD_a|) over the
/// past (`a`) and future (`b`) halves. Near zero when the local level and
/// spread are unchanged — exactly when raw SST scores are dominated by
/// noise. The slack (in robust-sigma units, the data is standardized)
/// suppresses sub-noise median wobble, including the small median drag a
/// one-off spike exerts — the persistence rule's first line of defence.
/// `work` must hold max(past.size(), future.size()) doubles.
double robust_score_factor(std::span<const double> past,
                           std::span<const double> future,
                           std::span<double> work, double slack = 0.5);

/// Allocating form of the above.
double robust_score_factor(std::span<const double> past,
                           std::span<const double> future,
                           double slack = 0.5);

}  // namespace funnel::detect
