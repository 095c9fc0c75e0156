#include "madpipe/planner.hpp"

#include <gtest/gtest.h>

#include "pipedream/pipedream.hpp"

namespace madpipe {
namespace {

MadPipeOptions quick_options() {
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  return options;
}

TEST(Planner, ProducesValidPlans) {
  const Chain c = make_uniform_chain(10, ms(3), ms(6), 5 * MB, 60 * MB, MB);
  for (const double mem_gb : {1.2, 2.5, 6.0}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto plan = plan_madpipe(c, p, quick_options());
    if (!plan) continue;
    const auto check = validate_pattern(plan->pattern, plan->allocation, c, p);
    EXPECT_TRUE(check.valid)
        << mem_gb << ": " << (check.errors.empty() ? "" : check.errors[0]);
    EXPECT_EQ(plan->planner, "madpipe");
    EXPECT_GT(plan->phase1_period, 0.0);
  }
}

TEST(Planner, NearOptimalWithAmpleMemory) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, MB, MB);
  const Platform p{4, 1e5 * GB, 1e6 * GB};
  const auto plan = plan_madpipe(c, p, quick_options());
  ASSERT_TRUE(plan.has_value());
  // 8 equal layers, 4 procs, free comm: 2 layers/proc = 30 ms.
  EXPECT_NEAR(plan->period(), ms(30), ms(1.0));
}

TEST(Planner, InfeasibleWhenMemoryHopeless) {
  const Chain c = make_uniform_chain(4, ms(2), ms(4), GB, MB, MB);
  const Platform p{2, GB, 12 * GB};
  EXPECT_FALSE(plan_madpipe(c, p, quick_options()).has_value());
}

TEST(Planner, NoSpecialVariantIsContiguous) {
  const Chain c = make_uniform_chain(10, ms(3), ms(6), 5 * MB, 60 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  MadPipeOptions options = quick_options();
  options.phase1.dp.allow_special = false;
  const auto plan = plan_madpipe(c, p, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->allocation.contiguous());
  EXPECT_EQ(plan->planner, "madpipe-contig");
}

TEST(Planner, MemoryAwareContiguousBeatsOrMatchesPipeDreamWhenTight) {
  // The memory-aware part of MadPipe: with the exact 1F1B* memory model the
  // contiguous variant can never end up *worse* than PipeDream's valid
  // schedule on this family of instances.
  const Chain c = make_uniform_chain(12, ms(2), ms(4), 10 * MB, 120 * MB, MB);
  for (const double mem_gb : {1.5, 2.0, 3.0, 5.0}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto pd = plan_pipedream(c, p);
    MadPipeOptions options = quick_options();
    options.phase1.dp.allow_special = false;
    options.phase1.dp.grid = Discretization::paper();
    const auto mc = plan_madpipe(c, p, options);
    if (!pd || !mc) continue;
    EXPECT_LE(mc->period(), pd->period() * 1.02) << mem_gb;
  }
}

}  // namespace
}  // namespace madpipe
