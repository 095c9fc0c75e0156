// Golden-equivalence and determinism tests for the planner fast path: the
// flat-memo iterative DP engine must reproduce the reference recursive
// engine bit for bit (periods AND allocations), and the speculative
// bisections must be invariant in speculation width and worker count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/memory_model.hpp"
#include "madpipe/dp.hpp"
#include "madpipe/planner.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"

namespace madpipe {
namespace {

MadPipeDPOptions engine_options(DpEngine engine,
                                DelayCommVariant variant =
                                    DelayCommVariant::BoundaryConsistent) {
  MadPipeDPOptions options;
  options.grid = Discretization::coarse();
  options.engine = engine;
  options.delay_comm_variant = variant;
  return options;
}

void expect_identical(const MadPipeDPResult& flat,
                      const MadPipeDPResult& reference,
                      const std::string& label) {
  // Bitwise-equal periods: the fast path reorders no floating-point
  // arithmetic, it only skips provably-losing candidates.
  EXPECT_EQ(flat.period, reference.period) << label;
  ASSERT_EQ(flat.allocation.has_value(), reference.allocation.has_value())
      << label;
  if (flat.allocation.has_value()) {
    EXPECT_TRUE(*flat.allocation == *reference.allocation) << label;
    EXPECT_EQ(flat.uses_special, reference.uses_special) << label;
  }
}

TEST(PlannerFastPath, MatchesReferenceOnZooNetworks) {
  for (const std::string& name : models::list_networks()) {
    const Chain chain = models::paper_network(name);
    for (const int processors : {2, 4, 8}) {
      for (const double memory_gb : {4.0, 8.0}) {
        const Platform platform{processors, memory_gb * GB, 12 * GB};
        const Seconds target = chain.total_compute() / processors;
        const auto flat = madpipe_dp(
            chain, platform, target, engine_options(DpEngine::FlatIterative));
        const auto reference =
            madpipe_dp(chain, platform, target,
                       engine_options(DpEngine::ReferenceRecursive));
        expect_identical(flat, reference,
                         name + " P=" + std::to_string(processors) +
                             " M=" + std::to_string(memory_gb));
      }
    }
  }
}

TEST(PlannerFastPath, MatchesReferenceOnBothDelayVariants) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 6 * GB, 12 * GB};
  for (const DelayCommVariant variant :
       {DelayCommVariant::BoundaryConsistent, DelayCommVariant::PaperLiteral}) {
    for (const double factor : {0.5, 1.0, 2.0}) {
      const Seconds target = factor * chain.total_compute() / 4;
      const auto flat =
          madpipe_dp(chain, platform, target,
                     engine_options(DpEngine::FlatIterative, variant));
      const auto reference =
          madpipe_dp(chain, platform, target,
                     engine_options(DpEngine::ReferenceRecursive, variant));
      expect_identical(flat, reference, "factor=" + std::to_string(factor));
    }
  }
}

TEST(PlannerFastPath, MatchesReferenceOnUniformChains) {
  // Uniform chains exercise heavy tie-breaking: every candidate stage has
  // the same shape, so the strict-improvement rule decides everything.
  const Chain chain = make_uniform_chain(16, ms(2), ms(4), 10 * MB,
                                         120 * MB, 2 * MB);
  for (const int processors : {2, 3, 4}) {
    const Platform platform{processors, 2 * GB, 12 * GB};
    for (const double factor : {0.6, 1.0, 1.7}) {
      const Seconds target = factor * chain.total_compute() / processors;
      const auto flat = madpipe_dp(chain, platform, target,
                                   engine_options(DpEngine::FlatIterative));
      const auto reference = madpipe_dp(
          chain, platform, target, engine_options(DpEngine::ReferenceRecursive));
      expect_identical(flat, reference,
                       "P=" + std::to_string(processors) +
                           " factor=" + std::to_string(factor));
    }
  }
}

TEST(PlannerFastPath, ContiguousAblationMatchesReference) {
  const Chain chain = models::paper_network("densenet121");
  const Platform platform{4, 4 * GB, 12 * GB};
  auto flat_options = engine_options(DpEngine::FlatIterative);
  auto reference_options = engine_options(DpEngine::ReferenceRecursive);
  flat_options.allow_special = false;
  reference_options.allow_special = false;
  const Seconds target = chain.total_compute() / 4;
  expect_identical(madpipe_dp(chain, platform, target, flat_options),
                   madpipe_dp(chain, platform, target, reference_options),
                   "contiguous");
}

TEST(PlannerFastPath, PlanInvariantInSpeculationAndWorkers) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};

  auto plan_with = [&](int speculation, std::size_t workers) {
    MadPipeOptions options;
    options.phase1.dp.grid = Discretization::coarse();
    options.phase1.speculation = speculation;
    options.phase1.workers = workers;
    options.phase2.speculation = speculation;
    options.phase2.workers = workers;
    options.workers = workers;
    return plan_madpipe(chain, platform, options);
  };

  const auto baseline = plan_with(1, 1);
  ASSERT_TRUE(baseline.has_value());
  for (const int speculation : {2, 4}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const auto plan = plan_with(speculation, workers);
      ASSERT_TRUE(plan.has_value())
          << "W=" << speculation << " workers=" << workers;
      EXPECT_EQ(plan->period(), baseline->period())
          << "W=" << speculation << " workers=" << workers;
      EXPECT_EQ(plan->phase1_period, baseline->phase1_period);
      EXPECT_TRUE(plan->allocation == baseline->allocation);
    }
  }
}

TEST(PlannerFastPath, Phase1DeterministicAcrossWorkerCounts) {
  const Chain chain = models::paper_network("inception_v3");
  const Platform platform{4, 6 * GB, 12 * GB};

  auto phase1_with = [&](int speculation, std::size_t workers) {
    Phase1Options options;
    options.dp.grid = Discretization::coarse();
    options.speculation = speculation;
    options.workers = workers;
    return madpipe_phase1(chain, platform, options);
  };

  const Phase1Result sequential = phase1_with(1, 1);
  const Phase1Result speculated = phase1_with(4, 4);
  EXPECT_EQ(speculated.period, sequential.period);
  ASSERT_EQ(speculated.feasible(), sequential.feasible());
  if (sequential.feasible()) {
    EXPECT_TRUE(*speculated.allocation == *sequential.allocation);
  }
  // The consumed probe sequence — and hence the trace — must be identical.
  ASSERT_EQ(speculated.trace.size(), sequential.trace.size());
  for (std::size_t i = 0; i < sequential.trace.size(); ++i) {
    EXPECT_EQ(speculated.trace[i].target, sequential.trace[i].target) << i;
    EXPECT_EQ(speculated.trace[i].achieved, sequential.trace[i].achieved) << i;
  }
  EXPECT_EQ(speculated.stats.phase1_probes, sequential.stats.phase1_probes);
}

TEST(PlannerFastPath, StateBudgetSetsFlagOnBothEngines) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  for (const DpEngine engine :
       {DpEngine::FlatIterative, DpEngine::ReferenceRecursive}) {
    auto options = engine_options(engine);
    options.max_states = 16;  // far below what this instance needs
    const auto result =
        madpipe_dp(chain, platform, chain.total_compute() / 4, options);
    EXPECT_TRUE(result.state_budget_hit);
    EXPECT_EQ(result.stats.state_budget_hits, 1);
    EXPECT_LE(result.states_visited, options.max_states + 1);
  }
  // And an untouched run reports a clean flag.
  const auto clean =
      madpipe_dp(chain, platform, chain.total_compute() / 4,
                 engine_options(DpEngine::FlatIterative));
  EXPECT_FALSE(clean.state_budget_hit);
  EXPECT_EQ(clean.stats.state_budget_hits, 0);
}

TEST(PlannerFastPath, MemoHashedAtMostTwicePerVisit) {
  // Regression guard for the double-lookup fix: besides the child lookups
  // (a miss inserts the child's placeholder in the same probe), the flat
  // engine touches the memo once per visited state for its final update,
  // plus once for the root's placeholder.
  for (const std::string& name : {std::string("resnet50"),
                                  std::string("densenet121")}) {
    const Chain chain = models::paper_network(name);
    const Platform platform{4, 8 * GB, 12 * GB};
    const auto result =
        madpipe_dp(chain, platform, chain.total_compute() / 4,
                   engine_options(DpEngine::FlatIterative));
    EXPECT_GT(result.stats.dp_state_visits, 0) << name;
    EXPECT_LE(result.stats.memo_probes, 2 * result.stats.dp_state_visits)
        << name;
    // Transition panels must actually be shared (reconstruct alone
    // resolves the winning path's panels a second time).
    EXPECT_GT(result.stats.transition_hits, 0) << name;
  }
}

TEST(PlannerFastPath, StatsAggregateIntoPlan) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  // Phase-2 speculation on every host: its counters must not leak into the
  // phase-1 identity below.
  options.phase2.speculation = 4;
  const auto plan = plan_madpipe(chain, platform, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(plan->stats.dp_probes, 0);
  EXPECT_GT(plan->stats.dp_states, 0);
  EXPECT_EQ(plan->stats.phase1_probes,
            static_cast<long long>(plan->stats.dp_probes) -
                plan->stats.speculative_probes +
                plan->stats.speculative_hits);
  EXPECT_GT(plan->stats.phase1_wall_seconds, 0.0);
}

TEST(PlannerFastPath, PhaseCountersComeFromTheirOwnPhase) {
  // resnet50 on 4 GPUs with 8 GB: the phase-1 allocation is non-contiguous
  // and several phase-2 probes run out of B&B nodes.
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeOptions options;
  options.phase1.speculation = 2;
  options.phase2.speculation = 4;
  const auto plan = plan_madpipe(chain, platform, options);
  ASSERT_TRUE(plan.has_value());

  const Phase1Result phase1 = madpipe_phase1(chain, platform, options.phase1);
  ASSERT_FALSE(phase1.allocation->contiguous());
  const PeriodSearchResult phase2 = find_min_period(
      *phase1.allocation, chain, platform, phase1.period, options.phase2);
  EXPECT_EQ(plan->stats.speculative_probes, phase1.stats.speculative_probes);
  EXPECT_EQ(plan->stats.speculative_hits, phase1.stats.speculative_hits);
  EXPECT_EQ(plan->stats.phase2_probes, phase2.probes);
  EXPECT_EQ(plan->stats.phase2_speculative_probes, phase2.speculative_probes);
  EXPECT_EQ(plan->stats.phase2_speculative_hits, phase2.speculative_hits);
  EXPECT_EQ(plan->stats.phase2_budget_hits, phase2.budget_hits);
  EXPECT_GT(plan->stats.phase2_budget_hits, 0);
}

}  // namespace
}  // namespace madpipe
