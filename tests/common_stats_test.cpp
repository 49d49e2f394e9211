// Unit and property tests for the shared descriptive statistics.
#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace funnel {
namespace {

TEST(Mean, BasicAndEmpty) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7.5}), 7.5);
}

TEST(Variance, MatchesHandComputation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Population variance is 4; sample variance = 4 * 8/7.
  EXPECT_NEAR(variance(xs), 4.0 * 8.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(4.0 * 8.0 / 7.0), 1e-12);
}

TEST(Variance, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0, 3.0, 3.0}), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0}), 5.0);
}

TEST(Median, DoesNotMutateInput) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  const std::vector<double> copy = xs;
  (void)median(xs);
  EXPECT_EQ(xs, copy);
}

TEST(Median, ThrowsOnEmpty) {
  EXPECT_THROW((void)median(std::vector<double>{}), InvalidArgument);
}

TEST(Median, RobustToOneOutlier) {
  std::vector<double> xs(21, 10.0);
  xs[0] = 1e9;
  EXPECT_DOUBLE_EQ(median(xs), 10.0);
}

// Short ranges take a rank-counting selection, longer ones nth_element;
// both must return the order statistics a full sort gives, ties included.
TEST(Median, MatchesSortedOrderStatisticsAcrossSizesAndTies) {
  Rng rng(17);
  std::vector<double> work(64);
  for (std::size_t n = 1; n <= 48; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        // Half the trials draw from a handful of values: many ties.
        x = trial % 2 == 0 ? rng.gaussian(0.0, 3.0)
                           : static_cast<double>(rng.uniform_int(-2, 2));
      }
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      const double want = n % 2 == 1
                              ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
      EXPECT_EQ(median(xs, work), want) << "n=" << n;
      EXPECT_EQ(median(xs), want) << "n=" << n;
      std::vector<double> dev(n);
      for (std::size_t i = 0; i < n; ++i) dev[i] = std::abs(xs[i] - want);
      std::sort(dev.begin(), dev.end());
      const double want_mad =
          n % 2 == 1 ? dev[n / 2] : 0.5 * (dev[n / 2 - 1] + dev[n / 2]);
      EXPECT_EQ(mad(xs, want, work), want_mad) << "n=" << n;
      EXPECT_EQ(mad(xs, work), want_mad) << "n=" << n;
    }
  }
  // A -0.0 ties with +0.0; the value is zero either way.
  EXPECT_EQ(median(std::vector<double>{-0.0, 0.0, 1.0}), 0.0);
}

TEST(Mad, KnownValues) {
  // median = 2, deviations {1,0,1,2,7} -> median 1.
  EXPECT_DOUBLE_EQ(mad(std::vector<double>{1.0, 2.0, 3.0, 4.0, 9.0}), 1.0);
  EXPECT_DOUBLE_EQ(mad(std::vector<double>{5.0, 5.0, 5.0}), 0.0);
}

TEST(MadSigma, ConsistentForGaussian) {
  Rng rng(1234);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.gaussian(10.0, 3.0);
  EXPECT_NEAR(mad_sigma(xs), 3.0, 0.1);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_NEAR(quantile(xs, 1.0 / 3.0), 20.0, 1e-12);
}

TEST(Quantile, ValidatesInput) {
  EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5), InvalidArgument);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5), InvalidArgument);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, -0.1), InvalidArgument);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{2.0}, 0.7), 2.0);
}

TEST(Correlation, PerfectAndAnti) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{2.0, 4.0, 6.0, 8.0};
  std::vector<double> down = up;
  std::reverse(down.begin(), down.end());
  EXPECT_NEAR(correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(xs, down), -1.0, 1e-12);
}

TEST(Correlation, ConstantSideIsZero) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> c{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(correlation(xs, c), 0.0);
}

TEST(Correlation, RequiresEqualLengths) {
  EXPECT_THROW(
      (void)correlation(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
      InvalidArgument);
}

TEST(MinMax, BasicsAndErrors) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
  EXPECT_THROW((void)min_value(std::vector<double>{}), InvalidArgument);
  EXPECT_THROW((void)max_value(std::vector<double>{}), InvalidArgument);
}

TEST(RobustStandardize, CentersAndScales) {
  Rng rng(99);
  std::vector<double> xs(5000);
  for (double& x : xs) x = rng.gaussian(42.0, 7.0);
  const std::vector<double> z = robust_standardize(xs);
  EXPECT_NEAR(median(z), 0.0, 0.05);
  EXPECT_NEAR(mad_sigma(z), 1.0, 0.05);
}

TEST(RobustStandardize, ConstantSeriesCentersOnly) {
  const std::vector<double> xs{5.0, 5.0, 5.0, 5.0};
  const std::vector<double> z = robust_standardize(xs);
  for (double v : z) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(RobustStandardize, EmptyInput) {
  EXPECT_TRUE(robust_standardize(std::vector<double>{}).empty());
}

TEST(AllFinite, DetectsNanAndInf) {
  EXPECT_TRUE(all_finite(std::vector<double>{1.0, 2.0}));
  EXPECT_FALSE(all_finite(std::vector<double>{1.0, std::nan("")}));
  EXPECT_FALSE(all_finite(std::vector<double>{1.0, INFINITY}));
  EXPECT_TRUE(all_finite(std::vector<double>{}));
}

TEST(Ccdf, CountsStrictlyGreater) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> grid{0.0, 1.0, 2.5, 4.0};
  const std::vector<double> c = ccdf(xs, grid);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 0.75);
  EXPECT_DOUBLE_EQ(c[2], 0.5);
  EXPECT_DOUBLE_EQ(c[3], 0.0);
}

TEST(Ccdf, EmptySample) {
  const std::vector<double> grid{0.0, 1.0};
  const std::vector<double> c = ccdf(std::vector<double>{}, grid);
  EXPECT_EQ(c, (std::vector<double>{0.0, 0.0}));
}

// Property sweep: for Gaussian samples of varying size and scale, median is
// close to the mean and MAD-sigma to the true sigma.
class StatsGaussianProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(StatsGaussianProperty, RobustEstimatorsAgreeWithMoments) {
  const auto [n, sigma] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + sigma * 10));
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (double& x : xs) x = rng.gaussian(5.0, sigma);
  const double tol = 6.0 * sigma / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(median(xs), 5.0, tol);
  EXPECT_NEAR(mean(xs), 5.0, tol);
  EXPECT_NEAR(mad_sigma(xs), sigma, 8.0 * sigma / std::sqrt(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StatsGaussianProperty,
    ::testing::Combine(::testing::Values(100, 1000, 10000),
                       ::testing::Values(0.5, 2.0, 10.0)));

// Property: quantile is monotone in q.
class QuantileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotone, NonDecreasingInQ) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs(200);
  for (double& x : xs) x = rng.uniform(-10.0, 10.0);
  double prev = quantile(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile(xs, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone, ::testing::Range(1, 6));

}  // namespace
}  // namespace funnel
