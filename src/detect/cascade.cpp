#include "detect/cascade.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "detect/cusum.h"
#include "detect/sst_common.h"
#include "detect/week_over_week.h"

namespace funnel::detect {

const char* to_string(GateDecision d) {
  switch (d) {
    case GateDecision::kDirty:
      return "dirty";
    case GateDecision::kVarianceSuppressed:
      return "variance_suppressed";
    case GateDecision::kCusumSuppressed:
      return "cusum_suppressed";
    case GateDecision::kForcedByWow:
      return "wow_forced";
    case GateDecision::kScored:
      return "scored";
  }
  return "unknown";
}

CascadeCounters& CascadeCounters::operator+=(const CascadeCounters& o) {
  windows += o.windows;
  scored += o.scored;
  suppressed_variance += o.suppressed_variance;
  suppressed_cusum += o.suppressed_cusum;
  wow_forced += o.wow_forced;
  dirty += o.dirty;
  return *this;
}

GateDecision gate_window(std::span<const double> window,
                         const SstGeometry& geometry,
                         const CascadeConfig& config, WindowScratch& scratch) {
  FUNNEL_REQUIRE(window.size() == geometry.window(),
                 "gate_window size mismatch");
  if (!standardize_window(window, geometry.half(), scratch.z, scratch.work)) {
    return GateDecision::kDirty;
  }
  const std::span<const double> z(scratch.z);
  const std::span<const double> past = z.subspan(0, geometry.half());
  const std::span<const double> future =
      z.subspan(geometry.half(), geometry.half());
  // Stage 0: the Eq. 11 factor upper-bounds the score (x̂ ≤ 1), so
  // factor ≤ threshold proves no exceedance is possible here.
  if (robust_score_factor(past, future, scratch.work) <=
      config.sst_threshold) {
    return GateDecision::kVarianceSuppressed;
  }
  // Stage 1: raw max-CUSUM of the standardized future half (the past half
  // is the baseline standardization already subtracted out).
  if (Cusum::max_cusum(future, config.cusum_slack) < config.cusum_min) {
    return GateDecision::kCusumSuppressed;
  }
  return GateDecision::kScored;
}

GateDecision gate_window(std::span<const double> window,
                         const SstGeometry& geometry,
                         const CascadeConfig& config) {
  WindowScratch scratch(geometry.window());
  return gate_window(window, geometry, config, scratch);
}

std::vector<double> cascade_score_series(
    IkaSst& scorer, std::span<const double> series,
    const CascadeConfig& config, CascadeCounters* counters,
    std::vector<GateDecision>* decisions) {
  const std::size_t w = scorer.window_size();
  std::vector<double> out;
  if (decisions) decisions->clear();
  if (series.size() < w) return out;
  const std::size_t n = series.size() - w + 1;
  out.reserve(n);
  if (decisions) decisions->reserve(n);

  // WoW force scores, aligned so wow[i] covers the compare block ending at
  // sample i; a window starting at sample s ends at s + w - 1.
  std::vector<double> wow;
  if (config.wow_season > 0) {
    WeekOverWeekParams wp;
    wp.season = config.wow_season;
    wow = wow_score_series(series, wp);
  }

  WindowScratch scratch(w);
  for (std::size_t s = 0; s < n; ++s) {
    const std::span<const double> window = series.subspan(s, w);
    GateDecision d = gate_window(window, scorer.geometry(), config, scratch);
    if (d != GateDecision::kScored && d != GateDecision::kDirty &&
        !wow.empty()) {
      const double wz = wow[s + w - 1];
      if (std::isfinite(wz) && wz >= config.wow_force) {
        d = GateDecision::kForcedByWow;
      }
    }
    double score;
    switch (d) {
      case GateDecision::kDirty:
        // Exactly what IkaSst::score returns for this window, without
        // advancing its warm state (IkaSst bails before touching it too).
        score = std::numeric_limits<double>::quiet_NaN();
        break;
      case GateDecision::kVarianceSuppressed:
      case GateDecision::kCusumSuppressed:
        score = 0.0;
        break;
      case GateDecision::kForcedByWow:
      case GateDecision::kScored:
        score = scorer.score(window);
        break;
      default:
        score = std::numeric_limits<double>::quiet_NaN();
        break;
    }
    out.push_back(score);
    if (decisions) decisions->push_back(d);
    if (counters) {
      ++counters->windows;
      switch (d) {
        case GateDecision::kDirty:
          ++counters->dirty;
          break;
        case GateDecision::kVarianceSuppressed:
          ++counters->suppressed_variance;
          break;
        case GateDecision::kCusumSuppressed:
          ++counters->suppressed_cusum;
          break;
        case GateDecision::kForcedByWow:
          ++counters->wow_forced;
          ++counters->scored;
          break;
        case GateDecision::kScored:
          ++counters->scored;
          break;
      }
    }
  }
  return out;
}

CascadeGate::CascadeGate(std::unique_ptr<IkaSst> inner, CascadeConfig config,
                         CascadeCounters* counters)
    : inner_(std::move(inner)), config_(config), counters_(counters) {
  FUNNEL_REQUIRE(inner_ != nullptr, "CascadeGate needs a scorer");
  scratch_ = WindowScratch(inner_->window_size());
}

double CascadeGate::score(std::span<const double> window) {
  const GateDecision d =
      gate_window(window, inner_->geometry(), config_, scratch_);
  last_decision_ = d;
  double score;
  switch (d) {
    case GateDecision::kDirty:
      score = std::numeric_limits<double>::quiet_NaN();
      break;
    case GateDecision::kVarianceSuppressed:
    case GateDecision::kCusumSuppressed:
      score = 0.0;
      break;
    default:
      score = inner_->score(window);
      break;
  }
  if (counters_) {
    ++counters_->windows;
    switch (d) {
      case GateDecision::kDirty:
        ++counters_->dirty;
        break;
      case GateDecision::kVarianceSuppressed:
        ++counters_->suppressed_variance;
        break;
      case GateDecision::kCusumSuppressed:
        ++counters_->suppressed_cusum;
        break;
      default:
        ++counters_->scored;
        break;
    }
  }
  return score;
}

}  // namespace funnel::detect
