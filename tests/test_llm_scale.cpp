// LLM-scale planning: the 2050-layer `llm-2k` transformer preset on 64 GPUs
// (300 GB each, 12 GB/s, paper grid). A full-depth MadPipe-DP probe must
// finish feasible inside the default state budget, and the coarsened recipe
// (one chain layer per GPU, then the full two-phase planner) must give a
// real pipeline speedup. About 1.5 s in an optimized build.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"

namespace madpipe {
namespace {

constexpr int kGpus = 64;

const Platform kPlatform{kGpus, 300 * GB, 12 * GB};

Chain llm_2k(int chain_length) {
  models::NetworkConfig config;
  config.network = "llm-2k";
  config.batch = 8;
  config.chain_length = chain_length;  // 0 = full depth
  return models::build_network(config);
}

MadPipeDPOptions paper_grid() {
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  return options;
}

TEST(LlmScale, FullDepthDpProbeStaysInsideTheStateBudget) {
  const Chain chain = llm_2k(0);
  ASSERT_EQ(chain.length(), 2050);
  const MadPipeDPResult probe = madpipe_dp(
      chain, kPlatform, chain.total_compute() / kGpus, paper_grid());
  EXPECT_TRUE(probe.allocation.has_value());
  EXPECT_TRUE(std::isfinite(probe.period) && probe.period > 0.0)
      << probe.period;
  EXPECT_FALSE(probe.state_budget_hit);
  EXPECT_GE(probe.states_visited, 1u);
}

TEST(LlmScale, CoarsenedPlanIsAtLeastEightTimesFasterThanSequential) {
  const Chain chain = llm_2k(kGpus);
  ASSERT_GE(chain.length(), kGpus);
  MadPipeOptions options;
  options.phase1.dp = paper_grid();
  const std::optional<Plan> plan = plan_madpipe(chain, kPlatform, options);
  ASSERT_TRUE(plan.has_value());
  // A period ratio, not wall clock: deterministic planner output.
  EXPECT_GE(chain.total_compute() / plan->period(), 8.0);
}

}  // namespace
}  // namespace madpipe
