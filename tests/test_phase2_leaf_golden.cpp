// Phase-2 leaf golden test: the branch-and-bound's leaf counters pinned on
// the three Phase2Golden cells, at the phase-1 period (where the probe is
// refuted or runs out of nodes), at the period the search returns (where it
// is feasible), and summed over every probe of the sequential bisection
// (which includes the leaf-heavy midpoints). `leaves` counts the complete placements the search
// reached, the compact construction included; `leaves_validated` counts those
// the memory gate admitted to the full verifier. Any change to how a node or
// a leaf is evaluated (incremental gap lists, cached per-processor verdicts)
// must keep both counts, the node count and the verdict exactly as recorded
// here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cyclic/bb_scheduler.hpp"
#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"

namespace madpipe {
namespace {

struct LeafCounts {
  std::size_t nodes;
  std::size_t leaves;
  std::size_t leaves_validated;
  bool feasible;
};

struct LeafCell {
  const char* network;
  int gpus;
  double memory_gb;
  std::uint64_t period_bits;  ///< the period find_min_period returns
  LeafCounts at_phase1_period;
  LeafCounts at_period;
  /// Totals over the sequential bisection's probes.
  struct {
    int probes;
    std::size_t nodes;
    std::size_t leaves;
    std::size_t leaves_validated;
  } bisection;
};

// Recorded with default BBOptions, before the incremental node state.
const std::vector<LeafCell>& leaf_cells() {
  static const std::vector<LeafCell> cells = {
      {"resnet50", 4, 8.0, 0x3fcc8ff660b0e19fULL, {60000, 0, 0, false},
       {22, 2, 1, true}, {14, 480132, 96340, 6}},
      {"resnet101", 4, 8.0, 0x3fd4f412657368d4ULL, {60000, 0, 0, false},
       {18, 2, 1, true}, {14, 300162, 21783, 9}},
      {"densenet121", 2, 8.0, 0x3fcb41e3deffa7f3ULL, {10346, 4907, 0, false},
       {13645, 10233, 1, true}, {13, 98696, 75782, 10}},
  };
  return cells;
}

void expect_counts(const BBResult& result, const LeafCounts& golden,
                   const std::string& where) {
  EXPECT_EQ(result.nodes_visited, golden.nodes) << where;
  EXPECT_EQ(result.leaves, golden.leaves) << where;
  EXPECT_EQ(result.leaves_validated, golden.leaves_validated) << where;
  EXPECT_EQ(result.feasible, golden.feasible) << where;
}

TEST(Phase2LeafGolden, LeafCountsAtBothProbedPeriodsAreBitIdentical) {
  for (const LeafCell& cell : leaf_cells()) {
    const std::string label = std::string(cell.network) +
                              " P=" + std::to_string(cell.gpus) +
                              " M=" + std::to_string(cell.memory_gb);
    const Chain chain = models::paper_network(cell.network);
    const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
    const Phase1Result phase1 = madpipe_phase1(chain, platform);
    ASSERT_TRUE(phase1.feasible()) << label;
    const Allocation& allocation = *phase1.allocation;
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);

    expect_counts(
        bb_schedule(problem, allocation, chain, platform, phase1.period),
        cell.at_phase1_period, label + " at the phase-1 period");
    const BBResult at_period =
        bb_schedule(problem, allocation, chain, platform,
                    std::bit_cast<double>(cell.period_bits));
    expect_counts(at_period, cell.at_period, label + " at the found period");
    if (at_period.feasible) {
      EXPECT_TRUE(
          validate_pattern(at_period.pattern, allocation, chain, platform)
              .valid)
          << label;
    }
  }
}

TEST(Phase2LeafGolden, LeafCountsSummedOverTheBisectionAreBitIdentical) {
  // The probes of find_min_period at speculation 1, replayed here with its
  // bounds, midpoint expression and stop rule so each probe's counters can
  // be read.
  const PeriodSearchOptions options;
  for (const LeafCell& cell : leaf_cells()) {
    const std::string label = std::string(cell.network) +
                              " P=" + std::to_string(cell.gpus) +
                              " M=" + std::to_string(cell.memory_gb);
    const Chain chain = models::paper_network(cell.network);
    const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
    const Phase1Result phase1 = madpipe_phase1(chain, platform);
    ASSERT_TRUE(phase1.feasible()) << label;
    const Allocation& allocation = *phase1.allocation;
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);

    int probes = 0;
    std::size_t nodes = 0, leaves = 0, leaves_validated = 0;
    const auto probe = [&](Seconds period) {
      ++probes;
      const BBResult result =
          bb_schedule(problem, allocation, chain, platform, period, options.bb);
      nodes += result.nodes_visited;
      leaves += result.leaves;
      leaves_validated += result.leaves_validated;
      return result.feasible;
    };
    Seconds lb = std::max(problem.min_period, phase1.period);
    Seconds ub = std::max(problem.serial_period, lb);
    ASSERT_TRUE(probe(ub)) << label;
    ASSERT_FALSE(probe(lb)) << label;
    while (probes < options.max_probes &&
           ub - lb > options.relative_precision * ub) {
      const Seconds mid = 0.5 * (lb + ub);
      (probe(mid) ? ub : lb) = mid;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ub), cell.period_bits) << label;
    EXPECT_EQ(probes, cell.bisection.probes) << label;
    EXPECT_EQ(nodes, cell.bisection.nodes) << label;
    EXPECT_EQ(leaves, cell.bisection.leaves) << label;
    EXPECT_EQ(leaves_validated, cell.bisection.leaves_validated) << label;
  }
}

}  // namespace
}  // namespace madpipe
