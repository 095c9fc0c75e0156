// Cross-module integration and property tests on the paper's actual
// evaluation networks: every planner output must pass the exact verifier,
// the simulator must confirm analytic throughput, and the qualitative
// relations of the paper's evaluation must hold.
#include <gtest/gtest.h>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "pipedream/pipedream.hpp"
#include "schedule/one_f_one_b.hpp"
#include "sim/event_sim.hpp"

namespace madpipe {
namespace {

// gtest names a param that has no PrintTo by its raw bytes. The numbers go
// first so that the start of each test name holds them, not the heap
// pointer of the network string, which moves whenever the binary changes.
struct Scenario {
  double memory_gb;
  double bandwidth_gbs;
  int processors;
  std::string network;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return s.network + "_P" + std::to_string(s.processors) + "_M" +
         std::to_string(static_cast<int>(s.memory_gb)) + "_B" +
         std::to_string(static_cast<int>(s.bandwidth_gbs));
}

class PaperScenario : public ::testing::TestWithParam<Scenario> {
 protected:
  Chain chain() const {
    models::NetworkConfig config;
    config.network = GetParam().network;
    config.image_size = 500;  // half the paper's size: keeps tests fast
    config.batch = 8;
    config.chain_length = 16;
    return models::build_network(config);
  }
  Platform platform() const {
    return Platform{GetParam().processors, GetParam().memory_gb * GB,
                    GetParam().bandwidth_gbs * GB};
  }
};

TEST_P(PaperScenario, PipeDreamPlanValidates) {
  const Chain c = chain();
  const Platform p = platform();
  const auto plan = plan_pipedream(c, p);
  if (!plan) GTEST_SKIP() << "no PipeDream partition fits";
  const auto check = validate_pattern(plan->pattern, plan->allocation, c, p);
  EXPECT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST_P(PaperScenario, MadPipePlanValidates) {
  const Chain c = chain();
  const Platform p = platform();
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  const auto plan = plan_madpipe(c, p, options);
  if (!plan) GTEST_SKIP() << "infeasible";
  const auto check = validate_pattern(plan->pattern, plan->allocation, c, p);
  EXPECT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST_P(PaperScenario, SimulatorConfirmsAnalyticThroughput) {
  const Chain c = chain();
  const Platform p = platform();
  const auto plan = plan_pipedream(c, p);
  if (!plan) GTEST_SKIP();
  const auto sim =
      simulate_pattern(plan->pattern, plan->allocation, c, p, {32});
  EXPECT_LE(sim.steady_period, plan->period() * (1.0 + 1e-6));
  // The ASAP execution cannot beat the bottleneck-resource bound either.
  EXPECT_GE(sim.steady_period,
            plan->allocation.period_lower_bound(c, p) * (1.0 - 1e-6));
}

TEST_P(PaperScenario, SimulatedMemoryFitsPlatform) {
  const Chain c = chain();
  const Platform p = platform();
  const auto plan = plan_pipedream(c, p);
  if (!plan) GTEST_SKIP();
  const auto sim =
      simulate_pattern(plan->pattern, plan->allocation, c, p, {32});
  for (const Bytes peak : sim.processor_memory_peak) {
    EXPECT_LE(peak, p.memory_per_processor * (1.0 + 1e-9));
  }
}

TEST_P(PaperScenario, PhaseOneIsLowerBoundOnSchedule) {
  const Chain c = chain();
  const Platform p = platform();
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  const auto plan = plan_madpipe(c, p, options);
  if (!plan) GTEST_SKIP();
  EXPECT_GE(plan->period(), plan->phase1_period * (1.0 - 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaperScenario,
    ::testing::Values(Scenario{4.0, 12.0, 2, "resnet50"},
                      Scenario{2.0, 12.0, 4, "resnet50"},
                      Scenario{8.0, 24.0, 4, "resnet50"},
                      Scenario{4.0, 12.0, 4, "resnet101"},
                      Scenario{8.0, 12.0, 8, "resnet101"},
                      Scenario{2.0, 12.0, 4, "inception_v3"},
                      Scenario{8.0, 24.0, 2, "inception_v3"},
                      Scenario{4.0, 12.0, 4, "densenet121"},
                      Scenario{2.0, 24.0, 8, "densenet121"}),
    scenario_name);

TEST(PaperShape, MoreMemoryNeverSlowsPipeDreamPartitioning) {
  models::NetworkConfig config;
  config.network = "resnet50";
  config.image_size = 500;
  config.batch = 8;
  config.chain_length = 16;
  const Chain c = models::build_network(config);
  Seconds previous = std::numeric_limits<double>::infinity();
  for (const double mem_gb : {2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    const Platform p{4, mem_gb * GB, 12 * GB};
    const auto partition = pipedream_partition(c, p);
    if (!partition) continue;
    EXPECT_LE(partition->dp_period, previous * (1.0 + 1e-9)) << mem_gb;
    previous = partition->dp_period;
  }
}

TEST(PaperShape, SpeedupGrowsWithProcessorsGivenMemory) {
  models::NetworkConfig config;
  config.network = "resnet50";
  config.image_size = 500;
  config.batch = 8;
  config.chain_length = 16;
  const Chain c = models::build_network(config);
  double speedup2 = 0.0, speedup8 = 0.0;
  for (const int procs : {2, 8}) {
    const Platform p{procs, 16 * GB, 12 * GB};
    MadPipeOptions options;
    options.phase1.dp.grid = Discretization::coarse();
    const auto plan = plan_madpipe(c, p, options);
    ASSERT_TRUE(plan.has_value()) << procs;
    (procs == 2 ? speedup2 : speedup8) = plan->speedup(c);
  }
  EXPECT_GT(speedup8, speedup2);
}

}  // namespace
}  // namespace madpipe
