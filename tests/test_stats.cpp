#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/expect.hpp"

namespace madpipe::stats {
namespace {

TEST(Stats, GeometricMeanBasic) {
  const std::vector<double> xs{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geometric_mean(xs), 2.0);
}

TEST(Stats, GeometricMeanIsScaleInvariantRatio) {
  // geomean(k*x) = k * geomean(x)
  const std::vector<double> xs{0.5, 2.0, 8.0};
  const std::vector<double> scaled{1.5, 6.0, 24.0};
  EXPECT_NEAR(geometric_mean(scaled), 3.0 * geometric_mean(xs), 1e-12);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(geometric_mean(xs), ContractViolation);
}

TEST(Stats, GeometricMeanOfSingleton) {
  const std::vector<double> xs{7.25};
  EXPECT_DOUBLE_EQ(geometric_mean(xs), 7.25);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.5);
}

TEST(Stats, PercentileRejectsBadRank) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, 1.5), ContractViolation);
}

}  // namespace
}  // namespace madpipe::stats
