#include "pipedream/pipedream.hpp"

#include <gtest/gtest.h>

#include "core/memory_model.hpp"
#include "core/pattern.hpp"

namespace madpipe {
namespace {

TEST(PipeDream, BalancesUniformChain) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, MB, MB);
  const Platform p{4, 100 * GB, 1e6 * GB};  // free communication
  const auto result = pipedream_partition(c, p);
  ASSERT_TRUE(result.has_value());
  // 8 equal layers on 4 procs: perfect split, period = 2 layers = 30 ms.
  EXPECT_NEAR(result->dp_period, ms(30), 1e-12);
  EXPECT_EQ(result->allocation.partitioning().num_stages(), 4);
}

TEST(PipeDream, DpPeriodEqualsMaxLoad) {
  const Chain c = make_uniform_chain(9, ms(4), ms(8), MB, 2 * MB, MB);
  const Platform p{4, 100 * GB, 12 * GB};
  const auto result = pipedream_partition(c, p);
  ASSERT_TRUE(result.has_value());
  Seconds max_load = result->allocation.period_lower_bound(c, p);
  EXPECT_NEAR(result->dp_period, max_load, 1e-12);
}

TEST(PipeDream, UsesFewerStagesWhenCommDominates) {
  // Gigantic activations: every cut costs far more than the whole compute.
  const Chain c = make_uniform_chain(6, ms(5), ms(5), MB, 10 * GB, MB);
  const Platform p{4, 1000 * GB, 1 * GB};
  const auto result = pipedream_partition(c, p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->allocation.partitioning().num_stages(), 1);
}

TEST(PipeDream, RespectsItsMemoryEstimate) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), 10 * MB, 100 * MB, MB);
  const Platform p{4, 1.4 * GB, 12 * GB};
  const auto result = pipedream_partition(c, p);
  ASSERT_TRUE(result.has_value());
  const Partitioning& parts = result->allocation.partitioning();
  const int n = parts.num_stages();
  for (int s = 0; s < n; ++s) {
    const Stage& st = parts.stage(s);
    EXPECT_LE(stage_memory(c, st.first, st.last, n - s),
              p.memory_per_processor * (1.0 + 1e-9));
  }
}

TEST(PipeDream, InfeasibleWhenNothingFits) {
  const Chain c = make_uniform_chain(4, ms(5), ms(5), GB, MB, MB);
  const Platform p{2, 1 * GB, 12 * GB};  // 3·4GB of weights never fit
  EXPECT_FALSE(pipedream_partition(c, p).has_value());
  EXPECT_FALSE(plan_pipedream(c, p).has_value());
}

TEST(PipeDream, PlanIsAlwaysValid) {
  const Chain c = make_uniform_chain(10, ms(3), ms(6), 10 * MB, 40 * MB, MB);
  for (const double mem_gb : {0.8, 1.5, 3.0, 8.0}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto plan = plan_pipedream(c, p);
    if (!plan) continue;
    const auto check = validate_pattern(plan->pattern, plan->allocation, c, p);
    EXPECT_TRUE(check.valid) << mem_gb;
    EXPECT_EQ(plan->planner, "pipedream");
    // The valid schedule can never beat the DP's load bound.
    EXPECT_GE(plan->period(), plan->phase1_period - 1e-12);
  }
}

TEST(PipeDream, TighterMemoryNeverImprovesDpPeriod) {
  const Chain c = make_uniform_chain(10, ms(3), ms(6), 10 * MB, 60 * MB, MB);
  Seconds previous = -1.0;
  for (const double mem_gb : {8.0, 4.0, 2.0, 1.0}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto result = pipedream_partition(c, p);
    if (!result) break;
    if (previous >= 0.0) {
      EXPECT_GE(result->dp_period, previous - 1e-12);
    }
    previous = result->dp_period;
  }
}

}  // namespace
}  // namespace madpipe
