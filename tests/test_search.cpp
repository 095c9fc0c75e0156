#include "madpipe/search.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace madpipe {
namespace {

Phase1Options quick_options() {
  Phase1Options options;
  options.dp.grid = Discretization::coarse();
  return options;
}

TEST(Phase1, FindsBalancedSolutionWithAmpleMemory) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, MB, MB);
  const Platform p{4, 1e6 * GB, 1e6 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  ASSERT_TRUE(result.feasible());
  EXPECT_NEAR(result.period, ms(30), ms(1.5));
}

TEST(Phase1, TraceRecordsEveryIteration) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, 20 * MB, MB);
  const Platform p{4, 4 * GB, 12 * GB};
  Phase1Options options = quick_options();
  options.iterations = 6;
  const auto result = madpipe_phase1(c, p, options);
  EXPECT_LE(result.trace.size(), 6u);
  EXPECT_GE(result.trace.size(), 1u);
}

TEST(Phase1, BestPeriodIsMinOfTrace) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 5 * MB, 60 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  ASSERT_TRUE(result.feasible());
  Seconds min_achieved = std::numeric_limits<double>::infinity();
  for (const auto& it : result.trace) {
    min_achieved = std::min(min_achieved, it.achieved);
  }
  EXPECT_DOUBLE_EQ(result.period, min_achieved);
}

TEST(Phase1, AchievedAlwaysAtLeastTarget) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 5 * MB, 60 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  for (const auto& it : result.trace) {
    EXPECT_GE(it.achieved, it.target - 1e-12);
  }
}

TEST(Phase1, InfeasibleWhenMemoryHopeless) {
  const Chain c = make_uniform_chain(6, ms(2), ms(4), GB, 100 * MB, MB);
  const Platform p{2, GB, 12 * GB};
  const auto result = madpipe_phase1(c, p, quick_options());
  EXPECT_FALSE(result.feasible());
  EXPECT_TRUE(std::isinf(result.period));
}

TEST(Phase1, MorePressureNeverImprovesPeriod) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 10 * MB, 80 * MB, MB);
  Seconds previous = -1.0;
  for (const double mem_gb : {8.0, 4.0, 2.0, 1.2}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto result = madpipe_phase1(c, p, quick_options());
    if (!result.feasible()) break;
    if (previous >= 0.0) {
      EXPECT_GE(result.period, previous * (1.0 - 0.05)) << mem_gb;
    }
    previous = result.period;
  }
}

}  // namespace
}  // namespace madpipe
