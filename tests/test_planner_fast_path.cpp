// Golden-equivalence and determinism tests for the planner fast path: the
// flat-memo iterative DP engine must reproduce the reference recursive
// engine bit for bit (periods AND allocations), and the speculative
// bisections must be invariant in speculation width and worker count.
// The ParallelDP suite at the end holds DP probes run concurrently to the
// same bits and counters as serial ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/memory_model.hpp"
#include "madpipe/dp.hpp"
#include "madpipe/planner.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "util/threading.hpp"

namespace madpipe {
namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

MadPipeDPOptions coarse_options(DelayCommVariant variant =
                                    DelayCommVariant::BoundaryConsistent) {
  MadPipeDPOptions options;
  options.grid = Discretization::coarse();
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
        const auto flat =
            madpipe_dp(chain, platform, target, coarse_options());
        const auto reference = detail::madpipe_dp_reference(
            chain, platform, target, coarse_options());
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
          madpipe_dp(chain, platform, target, coarse_options(variant));
      const auto reference = detail::madpipe_dp_reference(
          chain, platform, target, coarse_options(variant));
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
      const auto flat = madpipe_dp(chain, platform, target, coarse_options());
      const auto reference = detail::madpipe_dp_reference(
          chain, platform, target, coarse_options());
      expect_identical(flat, reference,
                       "P=" + std::to_string(processors) +
                           " factor=" + std::to_string(factor));
    }
  }
}

TEST(PlannerFastPath, ContiguousAblationMatchesReference) {
  const Chain chain = models::paper_network("densenet121");
  const Platform platform{4, 4 * GB, 12 * GB};
  auto options = coarse_options();
  options.allow_special = false;
  const Seconds target = chain.total_compute() / 4;
  expect_identical(
      madpipe_dp(chain, platform, target, options),
      detail::madpipe_dp_reference(chain, platform, target, options),
      "contiguous");
}

TEST(PlannerFastPath, SixtyFourGpusWithoutSpecialStageUsesAllSevenProcessorBits) {
  // With the special stage disabled the root state carries p = P itself, so
  // P = 64 needs the seventh bit of the packed processor field (planner
  // phase 1 always runs with allow_special = false). A 6-bit field would
  // alias the root onto (l + 1, p = 0).
  const Chain chain =
      make_uniform_chain(96, ms(2), ms(4), 32 * MB, 8 * MB, MB, "wide");
  const Platform platform{64, 4 * GB, 12 * GB};
  const Seconds target = chain.total_compute() / 64;

  auto options = coarse_options();
  options.allow_special = false;
  const auto reference =
      detail::madpipe_dp_reference(chain, platform, target, options);
  EXPECT_TRUE(reference.allocation.has_value());
  expect_identical(madpipe_dp(chain, platform, target, options), reference,
                   "P=64 contiguous");
}

TEST(PlannerFastPath, LlmScaleChainAtSixtyFourGpusCompletes) {
  // The packed-state budget extends to L ≥ 2000, P = 64 (transformer
  // presets linearize to 2050 layers). A uniform 2048-layer chain with
  // weights tight against the per-GPU limit keeps the candidate scan short
  // (stage_static_memory_exceeds prunes at ~128 layers/stage) so this runs
  // in seconds, while exercising the full 12-bit layer / 7-bit processor
  // packing.
  const Chain chain =
      make_uniform_chain(2048, ms(2), ms(4), 16 * MB, 4 * MB, MB, "llm");
  const Platform platform{64, 2 * GB, 12 * GB};
  const auto flat = madpipe_dp(chain, platform, chain.total_compute() / 64,
                               coarse_options());
  EXPECT_TRUE(flat.allocation.has_value());
  EXPECT_FALSE(flat.state_budget_hit);
  EXPECT_GT(flat.states_visited, 0);
}

TEST(PlannerFastPath, PlanInvariantInSpeculationAndWorkers) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};

  // A batch of W speculative probes runs on W worker lanes, so the width
  // also sets how many threads probe at once.
  auto plan_with = [&](int speculation) {
    MadPipeOptions options;
    options.phase1.dp.grid = Discretization::coarse();
    options.phase1.speculation = speculation;
    options.phase2.speculation = speculation;
    return plan_madpipe(chain, platform, options);
  };

  const auto baseline = plan_with(1);
  ASSERT_TRUE(baseline.has_value());
  for (const int speculation : {2, 4}) {
    const auto plan = plan_with(speculation);
    ASSERT_TRUE(plan.has_value()) << "W=" << speculation;
    EXPECT_EQ(plan->period(), baseline->period()) << "W=" << speculation;
    EXPECT_EQ(plan->phase1_period, baseline->phase1_period);
    EXPECT_TRUE(plan->allocation == baseline->allocation);
  }
}

TEST(PlannerFastPath, Phase1DeterministicAcrossWorkerCounts) {
  const Chain chain = models::paper_network("inception_v3");
  const Platform platform{4, 6 * GB, 12 * GB};

  // W = 4 runs each batch on four worker lanes; W = 1 on one.
  auto phase1_with = [&](int speculation) {
    Phase1Options options;
    options.dp.grid = Discretization::coarse();
    options.speculation = speculation;
    return madpipe_phase1(chain, platform, options);
  };

  const Phase1Result sequential = phase1_with(1);
  const Phase1Result speculated = phase1_with(4);
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
  for (const auto solve : {&madpipe_dp, &detail::madpipe_dp_reference}) {
    auto options = coarse_options();
    options.max_states = 16;  // far below what this instance needs
    const auto result = solve(chain, platform, chain.total_compute() / 4,
                              options, kUnbounded);
    EXPECT_TRUE(result.state_budget_hit);
    EXPECT_EQ(result.stats.state_budget_hits, 1);
    EXPECT_LE(result.states_visited, options.max_states + 1);
  }
  // And an untouched run reports a clean flag.
  const auto clean =
      madpipe_dp(chain, platform, chain.total_compute() / 4, coarse_options());
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
    const auto result = madpipe_dp(chain, platform,
                                   chain.total_compute() / 4,
                                   coarse_options());
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

TEST(PlannerFastPath, Phase2BbNodesSumEveryLaunchedProbe) {
  // resnet50 P=4 M=8, whose sequential bisection visits 480 132 B&B nodes
  // over 14 probes (pinned by Phase2LeafGolden).
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeOptions options;
  options.phase2.speculation = 1;
  const auto plan = plan_madpipe(chain, platform, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->stats.phase2_bb_nodes, 480132);

  // Wider, the speculative probes' nodes count too.
  const Phase1Result phase1 = madpipe_phase1(chain, platform, options.phase1);
  options.phase2.speculation = 4;
  const PeriodSearchResult wide = find_min_period(
      *phase1.allocation, chain, platform, phase1.period, options.phase2);
  EXPECT_GE(wide.bb_nodes, 480132);
}

// ParallelDP: MadPipe-DP probes run concurrently, as the speculative
// bisections run them. A probe issued from a pool worker must return the
// same period, allocation and DP counters as the same probe run alone, and
// match the reference, at every worker count.

struct Probe {
  Chain chain;
  Platform platform;
  Seconds target;
  MadPipeDPOptions options;
  std::string label;
};

/// Runs every probe through par::parallel_for on `workers` lanes, each
/// writing only its own slot.
std::vector<MadPipeDPResult> solve_concurrently(
    const std::vector<Probe>& probes, std::size_t workers) {
  std::vector<MadPipeDPResult> results(probes.size());
  par::parallel_for(
      0, probes.size(),
      [&](std::size_t i) {
        const Probe& probe = probes[i];
        results[i] = madpipe_dp(probe.chain, probe.platform, probe.target,
                                probe.options, kUnbounded);
      },
      workers);
  return results;
}

/// The DP counters of one probe are a function of its inputs alone.
void expect_same_stats(const MadPipeDPResult& got,
                       const MadPipeDPResult& want, const std::string& label) {
  EXPECT_EQ(got.states_visited, want.states_visited) << label;
  EXPECT_EQ(got.state_budget_hit, want.state_budget_hit) << label;
  EXPECT_EQ(got.stats.dp_states, want.stats.dp_states) << label;
  EXPECT_EQ(got.stats.dp_state_visits, want.stats.dp_state_visits) << label;
  EXPECT_EQ(got.stats.memo_probes, want.stats.memo_probes) << label;
  EXPECT_EQ(got.stats.memo_child_lookups, want.stats.memo_child_lookups)
      << label;
  EXPECT_EQ(got.stats.memo_hits, want.stats.memo_hits) << label;
  EXPECT_EQ(got.stats.transition_lookups, want.stats.transition_lookups)
      << label;
  EXPECT_EQ(got.stats.state_budget_hits, want.stats.state_budget_hits)
      << label;
}

/// Solves `probes` serially with the flat engine and with the reference,
/// then concurrently at every worker count, and holds each concurrent
/// result to both serial ones.
void expect_concurrent_matches_serial(const std::vector<Probe>& probes) {
  std::vector<MadPipeDPResult> flat, reference;
  for (const Probe& probe : probes) {
    flat.push_back(madpipe_dp(probe.chain, probe.platform, probe.target,
                              probe.options, kUnbounded));
    reference.push_back(detail::madpipe_dp_reference(
        probe.chain, probe.platform, probe.target, probe.options,
        kUnbounded));
  }
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const auto concurrent = solve_concurrently(probes, workers);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::string label =
          probes[i].label + " workers=" + std::to_string(workers);
      expect_identical(concurrent[i], reference[i], label + " vs reference");
      expect_identical(concurrent[i], flat[i], label + " vs flat");
      expect_same_stats(concurrent[i], flat[i], label + " stats vs flat");
    }
  }
}

TEST(ParallelDP, MatchesBothSerialEnginesOnZooAtEveryThreadCount) {
  std::vector<Probe> probes;
  for (const std::string& name : models::list_networks()) {
    const Chain chain = models::paper_network(name);
    for (const int processors : {2, 4, 8}) {
      probes.push_back({chain, Platform{processors, 8 * GB, 12 * GB},
                        chain.total_compute() / processors, coarse_options(),
                        name + " P=" + std::to_string(processors)});
    }
  }
  expect_concurrent_matches_serial(probes);
}

TEST(ParallelDP, StatsInvariantAcrossThreadCounts) {
  // The same probe in flight on every lane at once: no shared state may
  // leak between concurrent solves into the counters.
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  const Seconds target = chain.total_compute() / 4;
  const auto baseline =
      madpipe_dp(chain, platform, target, coarse_options(), kUnbounded);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const std::vector<Probe> probes(
        workers, Probe{chain, platform, target, coarse_options(), "resnet50"});
    const auto concurrent = solve_concurrently(probes, workers);
    for (std::size_t i = 0; i < concurrent.size(); ++i) {
      const std::string label =
          "workers=" + std::to_string(workers) + " lane=" + std::to_string(i);
      expect_identical(concurrent[i], baseline, label);
      expect_same_stats(concurrent[i], baseline, label);
    }
  }
}

TEST(ParallelDP, MatchesSerialOnBothDelayVariants) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 6 * GB, 12 * GB};
  std::vector<Probe> probes;
  for (const DelayCommVariant variant :
       {DelayCommVariant::BoundaryConsistent, DelayCommVariant::PaperLiteral}) {
    for (const double factor : {0.5, 1.0, 2.0}) {
      probes.push_back(
          {chain, platform, factor * chain.total_compute() / 4,
           coarse_options(variant),
           std::string(variant == DelayCommVariant::PaperLiteral
                            ? "paper-literal"
                            : "boundary-consistent") +
               " factor=" + std::to_string(factor)});
    }
  }
  expect_concurrent_matches_serial(probes);
}

TEST(ParallelDP, ContiguousAblationMatchesSerialEngines) {
  std::vector<Probe> probes;
  for (const std::string& name :
       {std::string("densenet121"), std::string("resnet50")}) {
    const Chain chain = models::paper_network(name);
    auto options = coarse_options();
    options.allow_special = false;
    probes.push_back({chain, Platform{4, 4 * GB, 12 * GB},
                      chain.total_compute() / 4, options,
                      name + " contiguous"});
  }
  expect_concurrent_matches_serial(probes);
}

TEST(ParallelDP, StateBudgetFlagAndTruncationAreThreadCountInvariant) {
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  const Seconds target = chain.total_compute() / 4;
  auto truncated = coarse_options();
  truncated.max_states = 16;  // far below what this instance needs
  const auto baseline =
      madpipe_dp(chain, platform, target, truncated, kUnbounded);
  EXPECT_TRUE(baseline.state_budget_hit);
  EXPECT_EQ(baseline.stats.state_budget_hits, 1);
  EXPECT_LE(baseline.states_visited, truncated.max_states + 1);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    // Truncated and untouched probes interleaved: each flag belongs to its
    // own probe.
    std::vector<Probe> probes;
    for (std::size_t i = 0; i < workers; ++i) {
      probes.push_back({chain, platform, target,
                        i % 2 == 0 ? truncated : coarse_options(),
                        i % 2 == 0 ? "truncated" : "clean"});
    }
    const auto concurrent = solve_concurrently(probes, workers);
    for (std::size_t i = 0; i < concurrent.size(); ++i) {
      const std::string label =
          "workers=" + std::to_string(workers) + " lane=" + std::to_string(i);
      if (i % 2 == 0) {
        // Even the budget cut is bit-identical across worker counts.
        EXPECT_TRUE(concurrent[i].state_budget_hit) << label;
        EXPECT_EQ(concurrent[i].period, baseline.period) << label;
        expect_same_stats(concurrent[i], baseline, label);
      } else {
        EXPECT_FALSE(concurrent[i].state_budget_hit) << label;
        EXPECT_EQ(concurrent[i].stats.state_budget_hits, 0) << label;
      }
    }
  }
}

}  // namespace
}  // namespace madpipe
