// Robust and classical descriptive statistics used throughout FUNNEL.
//
// The paper (§3.2.2) replaces mean/stddev with median/MAD because the former
// are not robust in the presence of level shifts and outliers; these helpers
// are the single implementation every module shares.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace funnel {

/// Arithmetic mean. Returns 0 for empty input.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Median (average of middle two for even n). Throws InvalidArgument on
/// empty input. Does not reorder the caller's data: works on a copy in
/// `work`, which must hold at least xs.size() doubles.
double median(std::span<const double> xs, std::span<double> work);

/// Median absolute deviation about the median: median(|x - median(x)|).
/// Not scaled by the 1.4826 Gaussian consistency factor; callers that need
/// a sigma estimate should use `mad_sigma`. `work` as for median().
double mad(std::span<const double> xs, std::span<double> work);

/// median(|x - center|): the MAD when `center` is median(xs), for callers
/// that already hold the median. `work` as for median().
double mad(std::span<const double> xs, double center, std::span<double> work);

/// MAD scaled to be a consistent estimator of sigma for Gaussian data.
double mad_sigma(std::span<const double> xs, std::span<double> work);

/// Allocating forms of the three above.
double median(std::span<const double> xs);
double mad(std::span<const double> xs);
double mad_sigma(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0, 1]. Throws on empty input.
double quantile(std::span<const double> xs, double q);

/// Pearson correlation coefficient. Returns 0 when either side is constant.
double correlation(std::span<const double> xs, std::span<const double> ys);

/// Min/max convenience (throw on empty input).
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Standardize a copy of `xs` to zero median and unit MAD-sigma; falls back
/// to mean/stddev when MAD is zero, and to pure centering when both scales
/// vanish (constant series).
std::vector<double> robust_standardize(std::span<const double> xs);

/// True when every element is finite.
bool all_finite(std::span<const double> xs);

/// Empirical CCDF evaluated at each point of `grid`:
/// ccdf[i] = fraction of xs strictly greater than grid[i].
std::vector<double> ccdf(std::span<const double> xs, std::span<const double> grid);

}  // namespace funnel
