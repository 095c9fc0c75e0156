// Phase-2 golden test: the cyclic period search and its branch-and-bound
// probes pinned bit for bit on three paper cells whose phase-1 allocation is
// non-contiguous. Any change to the search (a faster leaf check, a new node
// expansion) must keep the period, the probe count, every pattern op and the
// B&B node counts exactly as recorded here, at every speculation width.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"

namespace madpipe {
namespace {

struct GoldenOp {
  std::uint64_t start_bits;
  long long shift;
};

struct GoldenCell {
  const char* network;
  int gpus;
  double memory_gb;
  std::uint64_t phase1_period_bits;
  std::uint64_t period_bits;
  int probes;
  std::size_t nodes_at_phase1_period;
  bool budget_hit_at_phase1_period;
  std::size_t nodes_at_period;
  bool budget_hit_at_period;
  std::vector<GoldenOp> ops;
};

// Recorded with default options (speculation 1 and 4 agree).
const std::vector<GoldenCell>& golden_cells() {
  static const std::vector<GoldenCell> cells = {
      {"resnet50", 4, 8.0, 0x3fc513c93c555ca9ULL, 0x3fcc8ff660b0e19fULL, 14,
       60000, true, 22, false,
       {{0x0000000000000000ULL, 0}, {0x3f9bf71331155baaULL, 0},
        {0x3fb1e9f8ae3bc83dULL, 0}, {0x3fbe7843beab99e6ULL, 0},
        {0x3fc1f72ed7d36948ULL, 0}, {0x3fc59713a7441713ULL, 0},
        {0x3fc6fa37856719efULL, 0}, {0x0000000000000000ULL, 1},
        {0x3f86323de2302dc0ULL, 1}, {0x3faf805446f4fa04ULL, 1},
        {0x3fb12eab217db98eULL, 1}, {0x3fb1326d230da55aULL, 1},
        {0x3fb136aa49d01966ULL, 1}, {0x3fb2a52b47d355f2ULL, 1},
        {0x3fc645ea52635b33ULL, 1}, {0x3fcc62152e66c235ULL, 1},
        {0x3fb53698cdf4d42cULL, 2}, {0x3fb136aa49d01968ULL, 3},
        {0x3fc1f72ed7d36948ULL, 3}, {0x3fc4b23bd051059cULL, 3},
        {0x3fb1e9f8ae3bc840ULL, 4}, {0x3fc59713a7441714ULL, 4}}},
      {"resnet101", 4, 8.0, 0x3fd298be0ab6a220ULL, 0x3fd4f412657368d4ULL, 14,
       60000, true, 18, false,
       {{0x0000000000000000ULL, 0}, {0x3fac6d1b9441a2b2ULL, 0},
        {0x3fb3aca7bb1c0a02ULL, 0}, {0x3fc588d75f4886b2ULL, 0},
        {0x3fc6ebfb3d6b898eULL, 0}, {0x3fcc53d8e66b31d6ULL, 0},
        {0x3fcdb6fcc48e34b2ULL, 0}, {0x0000000000000000ULL, 1},
        {0x3f86323de2302dc0ULL, 1}, {0x3fba93a77709b95cULL, 1},
        {0x3fd2843a4b522838ULL, 1}, {0x3fd4f057c066b7aaULL, 1},
        {0x3fc83d314ec0d30cULL, 2}, {0x3fcc53d8e66b31d8ULL, 2},
        {0x3fd38e833fd7ddacULL, 2}, {0x3fc588d75f4886b0ULL, 3},
        {0x3f97c4f133095240ULL, 4}, {0x3fac6d1b9441a2c0ULL, 4}}},
      {"densenet121", 2, 8.0, 0x3fca277a6893c6c2ULL, 0x3fcb41e3deffa7f3ULL,
       13, 10346, false, 13645, false,
       {{0x3fc9a8c68bf8a1d6ULL, 0}, {0x0000000000000000ULL, 1},
        {0x0000000000000000ULL, 2}, {0x3fb17ef19f6baa54ULL, 2},
        {0x3fb59785142814d4ULL, 2}, {0x3fbc14e4414dd49cULL, 2},
        {0x3fc1fb76ff932e0eULL, 2}, {0x0000000000000000ULL, 3},
        {0x3fa9a04a531ae340ULL, 3}, {0x3fb17ef19f6baa50ULL, 3},
        {0x3f90624dd2f1aa00ULL, 4}, {0x3fa9a04a531ae340ULL, 4}}},
  };
  return cells;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Phase2Golden, PeriodPatternAndNodeCountsAreBitIdentical) {
  for (const GoldenCell& cell : golden_cells()) {
    const std::string label = std::string(cell.network) +
                              " P=" + std::to_string(cell.gpus) +
                              " M=" + std::to_string(cell.memory_gb);
    const Chain chain = models::paper_network(cell.network);
    const Platform platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
    const Phase1Result phase1 = madpipe_phase1(chain, platform);
    ASSERT_TRUE(phase1.feasible()) << label;
    ASSERT_FALSE(phase1.allocation->contiguous()) << label;
    EXPECT_EQ(bits(phase1.period), cell.phase1_period_bits) << label;
    const Allocation& allocation = *phase1.allocation;

    for (const int speculation : {1, 4}) {
      const std::string where = label + " W=" + std::to_string(speculation);
      PeriodSearchOptions options;
      options.speculation = speculation;
      const PeriodSearchResult search = find_min_period(
          allocation, chain, platform, phase1.period, options);
      ASSERT_TRUE(search.feasible) << where;
      EXPECT_EQ(bits(search.period), cell.period_bits) << where;
      EXPECT_EQ(search.probes, cell.probes) << where;
      ASSERT_EQ(search.pattern.ops.size(), cell.ops.size()) << where;
      for (std::size_t i = 0; i < cell.ops.size(); ++i) {
        EXPECT_EQ(bits(search.pattern.ops[i].start), cell.ops[i].start_bits)
            << where << " op " << i;
        EXPECT_EQ(search.pattern.ops[i].shift, cell.ops[i].shift)
            << where << " op " << i;
      }
    }

    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);
    const BBResult at_phase1 =
        bb_schedule(problem, allocation, chain, platform, phase1.period);
    EXPECT_EQ(at_phase1.nodes_visited, cell.nodes_at_phase1_period) << label;
    EXPECT_EQ(at_phase1.node_budget_hit, cell.budget_hit_at_phase1_period)
        << label;
    const BBResult at_period = bb_schedule(
        problem, allocation, chain, platform, std::bit_cast<double>(
                                                  cell.period_bits));
    EXPECT_TRUE(at_period.feasible) << label;
    EXPECT_EQ(at_period.nodes_visited, cell.nodes_at_period) << label;
    EXPECT_EQ(at_period.node_budget_hit, cell.budget_hit_at_period) << label;
  }
}

}  // namespace
}  // namespace madpipe
