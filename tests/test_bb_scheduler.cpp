#include "cyclic/bb_scheduler.hpp"

#include <gtest/gtest.h>

#include <random>

#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "schedule/one_f_one_b.hpp"

namespace madpipe {
namespace {

Chain random_chain(unsigned seed, int length) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dur(1.0, 15.0);
  std::uniform_real_distribution<double> size(5.0, 80.0);
  std::vector<Layer> layers;
  for (int i = 0; i < length; ++i) {
    layers.push_back(Layer{"r" + std::to_string(i), ms(dur(rng)),
                           ms(dur(rng)), size(rng) * MB, size(rng) * MB});
  }
  return Chain("random" + std::to_string(seed), size(rng) * MB,
               std::move(layers));
}

std::vector<Stage> even_split(const Chain& chain, int stages) {
  std::vector<Stage> result;
  const int per = (chain.length() + stages - 1) / stages;
  for (int first = 1; first <= chain.length(); first += per) {
    result.push_back({first, std::min(chain.length(), first + per - 1)});
  }
  return result;
}

TEST(CyclicProblem, OpCountAndLoads) {
  const Chain c = random_chain(1, 6);
  const Platform p{3, 10 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, even_split(c, 3), 3);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  // 3 stages → 6 compute ops + 2 cut boundaries → 4 comm ops.
  EXPECT_EQ(problem.ops.size(), 10u);
  EXPECT_GT(problem.min_period, 0.0);
  EXPECT_GT(problem.serial_period, problem.min_period);
}

TEST(CyclicProblem, NonContiguousSharedProcessor) {
  const Chain c = random_chain(2, 6);
  const Platform p{2, 10 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 4}, {5, 6}}), {0, 1, 0}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  // 6 compute + 2 cut boundaries × 2 = 10; both links are (0,1).
  EXPECT_EQ(problem.ops.size(), 10u);
  int link_ops = 0;
  for (const CyclicOp& op : problem.ops) {
    if (op.resource.kind == ResourceId::Kind::Link) {
      EXPECT_EQ(op.resource, ResourceId::link(0, 1));
      ++link_ops;
    }
  }
  EXPECT_EQ(link_ops, 4);
}

TEST(BBScheduler, FeasibleAtSerialPeriod) {
  const Chain c = random_chain(3, 8);
  const Platform p{3, 100 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 5}, {6, 7}, {8, 8}}), {0, 1, 2, 0},
               3);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  const BBResult result =
      bb_schedule(problem, a, c, p, problem.serial_period);
  ASSERT_TRUE(result.feasible);
  const auto check = validate_pattern(result.pattern, a, c, p);
  EXPECT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);
}

TEST(BBScheduler, InfeasibleBelowResourceBound) {
  const Chain c = random_chain(4, 6);
  const Platform p{3, 100 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, even_split(c, 3), 3);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  const BBResult result =
      bb_schedule(problem, a, c, p, problem.min_period * 0.9);
  EXPECT_FALSE(result.feasible);
}

TEST(BBScheduler, InfeasibleWhenActivationFloorExceedsMemory) {
  // Two stages forced onto one processor whose single-batch activations
  // already exceed memory: no period can ever work.
  const Chain c = make_uniform_chain(4, ms(5), ms(5), MB, 600 * MB, 600 * MB);
  const Platform p{2, 2 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 1}, {2, 3}, {4, 4}}), {0, 1, 0}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  const BBResult result =
      bb_schedule(problem, a, c, p, problem.serial_period);
  EXPECT_FALSE(result.feasible);
}

class BBMatchesOneFOneB : public ::testing::TestWithParam<unsigned> {};

// On contiguous allocations 1F1B* gives the provably minimal feasible
// period; the generic search must reproduce it (within its bisection
// precision). This is the strongest evidence that the phase-2 engine does
// not lose quality against the paper's ILP.
TEST_P(BBMatchesOneFOneB, MinPeriodsAgree) {
  const unsigned seed = GetParam();
  const Chain c = random_chain(seed, 6 + seed % 5);
  const int procs = 2 + seed % 3;
  if (c.length() < procs) GTEST_SKIP();
  const Platform p{procs, (1.0 + seed % 5) * GB, 12 * GB};
  const Allocation a =
      make_contiguous_allocation(c, even_split(c, procs), procs);

  const auto exact = plan_one_f_one_b(a, c, p);
  PeriodSearchOptions options;
  options.relative_precision = 5e-4;
  const PeriodSearchResult search = find_min_period(a, c, p, 0.0, options);

  ASSERT_EQ(exact.has_value(), search.feasible);
  if (!exact) return;
  EXPECT_LE(search.period, exact->period() * (1.0 + 2e-3));
  EXPECT_GE(search.period, exact->period() * (1.0 - 2e-3));
  const auto check = validate_pattern(search.pattern, a, c, p);
  EXPECT_TRUE(check.valid);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BBMatchesOneFOneB, ::testing::Range(20u, 45u));

TEST(PeriodSearch, NonContiguousProducesValidPattern) {
  const Chain c = random_chain(9, 8);
  const Platform p{3, 4 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 2}, {3, 5}, {6, 7}, {8, 8}}), {0, 1, 2, 0},
               3);
  const PeriodSearchResult result = find_min_period(a, c, p);
  ASSERT_TRUE(result.feasible);
  const auto check = validate_pattern(result.pattern, a, c, p);
  EXPECT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_GE(result.period, a.period_lower_bound(c, p) - 1e-12);
}

TEST(PeriodSearch, BudgetHitsCountConsumedBudgetExhaustedProbes) {
  // Replay the sequential bisection probe by probe on resnet50's phase-1
  // allocation for 4 GPUs with 8 GB, and count the infeasible verdicts that
  // came from node-budget exhaustion.
  const Chain c = models::paper_network("resnet50");
  const Platform p{4, 8 * GB, 12 * GB};
  const Phase1Result phase1 = madpipe_phase1(c, p);
  ASSERT_TRUE(phase1.feasible());
  const Allocation& a = *phase1.allocation;
  PeriodSearchOptions options;
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  int expected = 0;
  const auto probe = [&](Seconds period) {
    const BBResult bb = bb_schedule(problem, a, c, p, period, options.bb);
    if (!bb.feasible && bb.node_budget_hit) ++expected;
    return bb.feasible;
  };
  Seconds lb = std::max(problem.min_period, phase1.period);
  Seconds ub = std::max(problem.serial_period, lb);
  int probes = 2;
  ASSERT_TRUE(probe(ub));
  if (!probe(lb)) {
    while (probes < options.max_probes &&
           ub - lb > options.relative_precision * ub) {
      const Seconds mid = 0.5 * (lb + ub);
      ++probes;
      (probe(mid) ? ub : lb) = mid;
    }
  }
  for (const int speculation : {1, 4}) {
    options.speculation = speculation;
    const PeriodSearchResult result =
        find_min_period(a, c, p, phase1.period, options);
    EXPECT_EQ(result.probes, probes) << "W=" << speculation;
    EXPECT_EQ(result.budget_hits, expected) << "W=" << speculation;
  }
  EXPECT_GT(expected, 0);
}

TEST(PeriodSearch, LowerHintIsRespected) {
  const Chain c = random_chain(10, 6);
  const Platform p{3, 100 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, even_split(c, 3), 3);
  const Seconds hint = c.total_compute();  // deliberately too high
  const PeriodSearchResult result = find_min_period(a, c, p, hint);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.period, hint * (1.0 - 1e-9));
}

}  // namespace
}  // namespace madpipe
