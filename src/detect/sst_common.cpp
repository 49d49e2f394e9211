#include "detect/sst_common.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace funnel::detect {

bool standardize_window(std::span<const double> window,
                        std::size_t baseline_len, std::span<double> out,
                        std::span<double> work) {
  FUNNEL_REQUIRE(baseline_len >= 2 && baseline_len <= window.size(),
                 "baseline must be a non-trivial prefix of the window");
  FUNNEL_REQUIRE(out.size() == window.size(),
                 "standardized output must match the window");
  if (!all_finite(window)) return false;
  const std::span<const double> baseline = window.subspan(0, baseline_len);
  const double center = median(baseline, work);
  double scale = 1.4826 * mad(baseline, center, work);  // mad_sigma
  if (scale <= 0.0) scale = stddev(baseline);
  if (scale <= 0.0) scale = mad_sigma(window, work);
  if (scale <= 0.0) scale = stddev(window);
  if (scale <= 0.0) scale = 1.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    out[i] = (window[i] - center) / scale;
  }
  return true;
}

std::vector<double> standardize_window(std::span<const double> window,
                                       std::size_t baseline_len) {
  WindowScratch scratch(window.size());
  if (!standardize_window(window, baseline_len, scratch.z, scratch.work)) {
    return {};
  }
  return std::move(scratch.z);
}

double robust_score_factor(std::span<const double> past,
                           std::span<const double> future,
                           std::span<double> work, double slack) {
  const double med_a = median(past, work);
  const double med_b = median(future, work);
  const double mad_a = mad(past, med_a, work);
  const double mad_b = mad(future, med_b, work);
  const double level = std::max(std::abs(med_b - med_a) - slack, 0.0);
  return level * std::sqrt(std::abs(mad_b - mad_a));
}

double robust_score_factor(std::span<const double> past,
                           std::span<const double> future, double slack) {
  std::vector<double> work(std::max(past.size(), future.size()));
  return robust_score_factor(past, future, work, slack);
}

}  // namespace funnel::detect
