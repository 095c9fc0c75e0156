// Phase-2 many-stage golden test: the cyclic period search pinned bit for bit
// on full-depth GPT-2 XL at P = 8, M = 16 GB, the plan_noncontig cell whose
// phase-1 allocation puts 192 of its 193 stages on one processor. Its cyclic
// problem has 388 ops on almost one resource, so every B&B node places an
// interval among hundreds, which the ≤ 10-stage cells of Phase2Golden and
// Phase2LeafGolden never do. Any change to how a node's free gaps or a leaf
// are evaluated must keep, exactly as recorded here:
//   * find_min_period's period, consumed probes and budget hits, and an
//     FNV-1a hash of the pattern, at speculation 1 and 4;
//   * every probe of the sequential bisection: its node count, budget flag,
//     leaves and leaves the memory gate admitted.
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

struct ProbeCounts {
  std::size_t nodes;
  bool budget_hit;
  std::size_t leaves;
  std::size_t leaves_validated;
};

// find_min_period's result, recorded before the free-gap levels were
// derived from their parents (speculation 1 and 4 agree).
constexpr std::uint64_t kPhase1PeriodBits = 0x3ff8f9b2a23d710aULL;
constexpr std::size_t kPatternOps = 388;
constexpr std::uint64_t kPeriodBits = 0x4027d74ac0269634ULL;
constexpr int kProbes = 8;
constexpr int kBudgetHits = 2;
constexpr std::uint64_t kPatternHash = 0xbfd4fbdf1917ca7bULL;

// The sequential bisection's probes in order, recorded before the free-gap
// levels were derived from their parents.
const std::vector<ProbeCounts>& bisection_probes() {
  static const std::vector<ProbeCounts> probes = {
      {388, false, 2, 1}, {60000, true, 1, 0}, {388, false, 2, 1},
      {388, false, 2, 1}, {388, false, 2, 1},  {388, false, 2, 1},
      {388, false, 2, 1}, {60000, true, 1, 0},
  };
  return probes;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// FNV-1a over each op's start bits then its shift, 8 little-endian bytes
/// each, in pattern op order.
std::uint64_t pattern_hash(const PeriodicPattern& pattern) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((word >> (8 * byte)) & 0xffU)) * 0x100000001b3ULL;
    }
  };
  for (const PatternOp& op : pattern.ops) {
    mix(bits(op.start));
    mix(static_cast<std::uint64_t>(op.shift));
  }
  return hash;
}

class Phase2ManyStageGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    models::NetworkConfig config;
    config.network = "gpt2-xl";
    chain_ = new Chain(models::build_network(config));
    platform_ = new Platform{8, 16.0 * GB, 12 * GB};
    phase1_ = new Phase1Result(madpipe_phase1(*chain_, *platform_));
  }
  static void TearDownTestSuite() {
    delete phase1_;
    delete platform_;
    delete chain_;
  }

  void SetUp() override {
    ASSERT_TRUE(phase1_->feasible());
    ASSERT_FALSE(phase1_->allocation->contiguous());
    ASSERT_EQ(bits(phase1_->period), kPhase1PeriodBits);
  }

  static void expect_search_at(int speculation) {
    PeriodSearchOptions options;
    options.speculation = speculation;
    const PeriodSearchResult search =
        find_min_period(*phase1_->allocation, *chain_, *platform_,
                        phase1_->period, options);
    ASSERT_TRUE(search.feasible);
    EXPECT_EQ(bits(search.period), kPeriodBits);
    EXPECT_EQ(search.probes, kProbes);
    EXPECT_EQ(search.budget_hits, kBudgetHits);
    EXPECT_EQ(search.pattern.ops.size(), kPatternOps);
    EXPECT_EQ(pattern_hash(search.pattern), kPatternHash);
  }

  static Chain* chain_;
  static Platform* platform_;
  static Phase1Result* phase1_;
};

Chain* Phase2ManyStageGolden::chain_ = nullptr;
Platform* Phase2ManyStageGolden::platform_ = nullptr;
Phase1Result* Phase2ManyStageGolden::phase1_ = nullptr;

TEST_F(Phase2ManyStageGolden, SearchAtSpeculation1) { expect_search_at(1); }

TEST_F(Phase2ManyStageGolden, SearchAtSpeculation4) { expect_search_at(4); }

TEST_F(Phase2ManyStageGolden, EveryProbeOfTheSequentialBisection) {
  // find_min_period at speculation 1, replayed with its bounds, midpoint
  // expression and stop rule so each probe's counters can be read.
  const PeriodSearchOptions options;
  const Allocation& allocation = *phase1_->allocation;
  const CyclicProblem problem =
      build_cyclic_problem(allocation, *chain_, *platform_);
  std::vector<ProbeCounts> probes;
  const auto probe = [&](Seconds period) {
    const BBResult result = bb_schedule(problem, allocation, *chain_,
                                        *platform_, period, options.bb);
    probes.push_back({result.nodes_visited, result.node_budget_hit,
                      result.leaves, result.leaves_validated});
    if (result.feasible) {
      EXPECT_TRUE(validate_pattern(result.pattern, allocation, *chain_,
                                   *platform_)
                      .valid);
    }
    return result.feasible;
  };
  Seconds lb = std::max(problem.min_period, phase1_->period);
  Seconds ub = std::max(problem.serial_period, lb);
  ASSERT_TRUE(probe(ub));
  if (!probe(lb)) {
    while (static_cast<int>(probes.size()) < options.max_probes &&
           ub - lb > options.relative_precision * ub) {
      const Seconds mid = 0.5 * (lb + ub);
      (probe(mid) ? ub : lb) = mid;
    }
  }
  EXPECT_EQ(bits(ub), kPeriodBits);

  const std::vector<ProbeCounts>& golden = bisection_probes();
  ASSERT_EQ(probes.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(probes[i].nodes, golden[i].nodes) << "probe " << i;
    EXPECT_EQ(probes[i].budget_hit, golden[i].budget_hit) << "probe " << i;
    EXPECT_EQ(probes[i].leaves, golden[i].leaves) << "probe " << i;
    EXPECT_EQ(probes[i].leaves_validated, golden[i].leaves_validated)
        << "probe " << i;
  }
}

}  // namespace
}  // namespace madpipe
