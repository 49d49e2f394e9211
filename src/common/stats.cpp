#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace funnel {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

namespace {

// Ranges up to this length take small_median below.
constexpr std::size_t kSmallMedian = 32;

// Median of a short range by rank counting: element i's rank is the number
// of elements ordered before it by (value, index), so the ranks are a
// permutation and the elements of rank n/2 (and n/2 - 1) are the order
// statistics nth_element would find. The inner loops are branch-free, so
// the cost does not hinge on predicting the data the way nth_element's
// partitioning does. Returns false when a NaN (ranks are no permutation)
// or a -0.0 (which ties with +0.0, so the bits returned would depend on the
// algorithm) is present; the caller then uses nth_element.
bool small_median(std::span<const double> xs, double& out) {
  const std::size_t n = xs.size();
  bool plain = true;
  for (double x : xs) plain &= !std::isnan(x) && !(x == 0.0 && std::signbit(x));
  if (!plain) return false;
  const std::size_t mid = n / 2;
  std::size_t wanted = n % 2 == 1 ? 1 : 2;
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < n && wanted > 0; ++i) {
    const double xi = xs[i];
    std::size_t rank = 0;
    for (std::size_t j = 0; j < i; ++j) rank += xs[j] <= xi ? 1 : 0;
    for (std::size_t j = i + 1; j < n; ++j) rank += xs[j] < xi ? 1 : 0;
    if (rank == mid) {
      hi = xi;
      --wanted;
    } else if (n % 2 == 0 && rank + 1 == mid) {
      lo = xi;
      --wanted;
    }
  }
  out = n % 2 == 1 ? hi : 0.5 * (lo + hi);
  return true;
}

// Median of `buf`, reordering it.
double median_in_place(std::span<double> buf) {
  double small = 0.0;
  if (buf.size() <= kSmallMedian && small_median(buf, small)) return small;
  const std::size_t mid = buf.size() / 2;
  std::nth_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid), buf.end());
  double hi = buf[mid];
  if (buf.size() % 2 == 1) return hi;
  const double lo = *std::max_element(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace

double median(std::span<const double> xs, std::span<double> work) {
  FUNNEL_REQUIRE(!xs.empty(), "median of empty range");
  FUNNEL_REQUIRE(work.size() >= xs.size(), "median work buffer too small");
  const std::span<double> buf = work.first(xs.size());
  std::copy(xs.begin(), xs.end(), buf.begin());
  return median_in_place(buf);
}

double mad(std::span<const double> xs, double center,
           std::span<double> work) {
  FUNNEL_REQUIRE(!xs.empty(), "median of empty range");
  FUNNEL_REQUIRE(work.size() >= xs.size(), "median work buffer too small");
  const std::span<double> dev = work.first(xs.size());
  std::transform(xs.begin(), xs.end(), dev.begin(),
                 [center](double x) { return std::abs(x - center); });
  return median_in_place(dev);
}

double mad(std::span<const double> xs, std::span<double> work) {
  return mad(xs, median(xs, work), work);
}

double mad_sigma(std::span<const double> xs, std::span<double> work) {
  return 1.4826 * mad(xs, work);
}

double median(std::span<const double> xs) {
  std::vector<double> work(xs.size());
  return median(xs, work);
}

double mad(std::span<const double> xs) {
  std::vector<double> work(xs.size());
  return mad(xs, work);
}

double mad_sigma(std::span<const double> xs) { return 1.4826 * mad(xs); }

double quantile(std::span<const double> xs, double q) {
  FUNNEL_REQUIRE(!xs.empty(), "quantile of empty range");
  FUNNEL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level outside [0,1]");
  std::vector<double> buf(xs.begin(), xs.end());
  std::sort(buf.begin(), buf.end());
  if (buf.size() == 1) return buf.front();
  const double pos = q * static_cast<double>(buf.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, buf.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return buf[lo] * (1.0 - frac) + buf[hi] * frac;
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  FUNNEL_REQUIRE(xs.size() == ys.size(), "correlation requires equal lengths");
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double min_value(std::span<const double> xs) {
  FUNNEL_REQUIRE(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  FUNNEL_REQUIRE(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

std::vector<double> robust_standardize(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  if (out.empty()) return out;
  const double center = median(xs);
  double scale = mad_sigma(xs);
  if (scale <= 0.0) scale = stddev(xs);
  if (scale <= 0.0) scale = 1.0;
  for (double& x : out) x = (x - center) / scale;
  return out;
}

bool all_finite(std::span<const double> xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](double x) { return std::isfinite(x); });
}

std::vector<double> ccdf(std::span<const double> xs, std::span<const double> grid) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(grid.size());
  const double n = static_cast<double>(sorted.size());
  for (double g : grid) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), g);
    const auto greater = static_cast<double>(sorted.end() - it);
    out.push_back(n > 0 ? greater / n : 0.0);
  }
  return out;
}

}  // namespace funnel
