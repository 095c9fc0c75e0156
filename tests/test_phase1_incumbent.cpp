// Incumbent-bounded phase 1 (DESIGN.md §7): every MadPipe-DP probe after the
// first feasible one carries the best period found so far as an exclusive
// bound. The bound may only remove work. Algorithm 1's period, allocation
// and special-processor flag must stay bit for bit those of the unbounded
// search, the per-iteration trace must not depend on the speculation width,
// and a single bounded probe must be the unbounded one cut at the bound, on
// every engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "util/expect.hpp"

namespace madpipe {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Cell {
  const char* network;
  int gpus;
  double memory_gb;
};

std::string label(const Cell& cell) {
  return std::string(cell.network) + " P" + std::to_string(cell.gpus) + " M" +
         std::to_string(static_cast<int>(cell.memory_gb));
}

Chain cell_chain(const std::string& network) {
  if (network == "gpt2-xl") {
    models::NetworkConfig config;
    config.network = network;
    return models::build_network(config);
  }
  return models::paper_network(network);
}

Platform cell_platform(const Cell& cell) {
  return Platform{cell.gpus, cell.memory_gb * GB, 12 * GB};
}

/// Default phase 1, bounded by the incumbent; `unbounded` keeps every
/// iterate's allocation, which runs every probe without the bound.
Phase1Result phase1(const Chain& chain, const Platform& platform,
                    const Discretization& grid, bool unbounded,
                    int speculation = 0) {
  Phase1Options options;
  options.dp.grid = grid;
  options.keep_iterate_allocations = unbounded;
  options.speculation = speculation;
  return madpipe_phase1(chain, platform, options);
}

void expect_same_plan(const Phase1Result& bounded,
                      const Phase1Result& unbounded, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bounded.period),
            std::bit_cast<std::uint64_t>(unbounded.period))
      << what;
  ASSERT_EQ(bounded.feasible(), unbounded.feasible()) << what;
  if (bounded.feasible()) {
    EXPECT_TRUE(*bounded.allocation == *unbounded.allocation) << what;
  }
  EXPECT_EQ(bounded.uses_special, unbounded.uses_special) << what;
  EXPECT_EQ(bounded.trace.size(), unbounded.trace.size()) << what;
  EXPECT_LE(bounded.stats.dp_states, unbounded.stats.dp_states) << what;
}

// (a) The ten perfbench pool cells (plan_noncontig and plan_contig) at the
// paper grid.
TEST(Phase1Incumbent, PoolCellsMatchUnboundedAtPaperGrid) {
  const std::vector<Cell> cells = {
      {"resnet101", 4, 8.0},   {"densenet121", 2, 8.0},
      {"gpt2-xl", 8, 16.0},    {"resnet50", 4, 8.0},
      {"resnet50", 8, 8.0},    {"resnet50", 8, 4.0},
      {"densenet121", 2, 4.0}, {"resnet101", 4, 4.0},
      {"resnet101", 8, 4.0},   {"densenet121", 8, 8.0}};
  long long bounded_states = 0;
  long long unbounded_states = 0;
  for (const Cell& cell : cells) {
    const Chain chain = cell_chain(cell.network);
    const Platform platform = cell_platform(cell);
    const Phase1Result bounded =
        phase1(chain, platform, Discretization::paper(), false);
    const Phase1Result unbounded =
        phase1(chain, platform, Discretization::paper(), true);
    ASSERT_TRUE(unbounded.feasible()) << label(cell);
    expect_same_plan(bounded, unbounded, label(cell));
    bounded_states += bounded.stats.dp_states;
    unbounded_states += unbounded.stats.dp_states;
  }
  // The bound must actually prune, or this test proves nothing.
  EXPECT_LT(bounded_states, unbounded_states);
}

// (a) The 72-cell sweep grid at the coarse discretization.
TEST(Phase1Incumbent, SweepGridMatchesUnboundedAtCoarseGrid) {
  int feasible = 0;
  int special = 0;
  for (const char* network :
       {"resnet50", "resnet101", "inception_v3", "densenet121"}) {
    const Chain chain = models::paper_network(network);
    for (const int gpus : {2, 4, 8}) {
      for (const double memory_gb : {4.0, 6.0, 8.0, 10.0, 12.0, 16.0}) {
        const Cell cell{network, gpus, memory_gb};
        const Platform platform = cell_platform(cell);
        const Phase1Result bounded =
            phase1(chain, platform, Discretization::coarse(), false);
        const Phase1Result unbounded =
            phase1(chain, platform, Discretization::coarse(), true);
        expect_same_plan(bounded, unbounded, label(cell));
        if (bounded.feasible()) ++feasible;
        if (bounded.uses_special) ++special;
      }
    }
  }
  EXPECT_GT(feasible, 60);
  EXPECT_GT(special, 0);
}

// (b) Probes of a speculative batch run under the incumbent at launch; the
// search cuts them against the incumbent at consumption. On these cells the
// two differ, so without that cut the trace would depend on the width.
TEST(Phase1Incumbent, TraceIsIdenticalAtEverySpeculationWidth) {
  struct Case {
    Cell cell;
    Discretization grid;
  };
  const std::vector<Case> cases = {
      {{"resnet50", 8, 4.0}, Discretization::paper()},
      {{"resnet101", 4, 4.0}, Discretization::paper()},
      {{"resnet101", 8, 6.0}, Discretization::paper()},
      {{"inception_v3", 4, 6.0}, Discretization::coarse()},
      {{"densenet121", 8, 10.0}, Discretization::coarse()}};
  int dominated = 0;
  for (const Case& c : cases) {
    const Chain chain = models::paper_network(c.cell.network);
    const Platform platform = cell_platform(c.cell);
    const Phase1Result sequential = phase1(chain, platform, c.grid, false, 1);
    ASSERT_TRUE(sequential.feasible()) << label(c.cell);
    for (const Phase1Iteration& it : sequential.trace) {
      if (std::isinf(it.achieved)) ++dominated;
    }
    for (const int width : {2, 3, 4}) {
      const std::string what = label(c.cell) + " W=" + std::to_string(width);
      const Phase1Result speculated =
          phase1(chain, platform, c.grid, false, width);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(speculated.period),
                std::bit_cast<std::uint64_t>(sequential.period))
          << what;
      ASSERT_TRUE(speculated.feasible()) << what;
      EXPECT_TRUE(*speculated.allocation == *sequential.allocation) << what;
      ASSERT_EQ(speculated.trace.size(), sequential.trace.size()) << what;
      for (std::size_t i = 0; i < sequential.trace.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(speculated.trace[i].target),
                  std::bit_cast<std::uint64_t>(sequential.trace[i].target))
            << what << " iteration " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(speculated.trace[i].achieved),
                  std::bit_cast<std::uint64_t>(sequential.trace[i].achieved))
            << what << " iteration " << i;
      }
    }
  }
  // Some consumed probes must be reported as no better than the incumbent.
  EXPECT_GT(dominated, 0);
}

// (c) helpers: small random chains in the style of test_fuzz.cpp.
Chain random_chain(unsigned seed, int length) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dur(1.0, 12.0);
  std::uniform_real_distribution<double> size(5.0, 120.0);
  std::vector<Layer> layers;
  for (int i = 0; i < length; ++i) {
    layers.push_back(Layer{"f" + std::to_string(i), ms(dur(rng)),
                           ms(dur(rng)), size(rng) * MB, size(rng) * MB});
  }
  return Chain("incumbent" + std::to_string(seed), size(rng) * MB,
               std::move(layers));
}

void expect_cut_at_bound(const MadPipeDPResult& bounded,
                         const MadPipeDPResult& unbounded, Seconds bound,
                         const std::string& what) {
  if (unbounded.period < bound) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bounded.period),
              std::bit_cast<std::uint64_t>(unbounded.period))
        << what;
    ASSERT_TRUE(bounded.allocation.has_value()) << what;
    EXPECT_TRUE(*bounded.allocation == *unbounded.allocation) << what;
    EXPECT_EQ(bounded.uses_special, unbounded.uses_special) << what;
  } else {
    EXPECT_TRUE(std::isinf(bounded.period)) << what;
    EXPECT_FALSE(bounded.allocation.has_value()) << what;
    EXPECT_FALSE(bounded.uses_special) << what;
  }
}

// (c) A bounded probe equals the unbounded one below the bound and is
// "+∞, no allocation" at or above it, on every engine, for random targets
// and bounds (including the unbounded period itself and its neighbours).
TEST(Phase1Incumbent, BoundedProbeIsTheUnboundedOneCutAtTheBound) {
  int exact = 0;
  int cut = 0;
  for (unsigned seed = 700; seed < 740; ++seed) {
    std::mt19937 rng(seed);
    const Chain chain = random_chain(seed, 6 + static_cast<int>(seed % 7));
    const int gpus = 2 + static_cast<int>(seed % 3);
    const Platform platform{
        gpus, std::uniform_real_distribution<double>(0.3, 2.5)(rng) * GB,
        12 * GB};
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int draw = 0; draw < 3; ++draw) {
      const Seconds lower = chain.total_compute() / gpus;
      const Seconds target =
          lower + unit(rng) * (chain.total_compute() - lower);
      for (const DpEngine engine :
           {DpEngine::FlatIterative, DpEngine::ReferenceRecursive,
            DpEngine::ParallelWavefront}) {
        MadPipeDPOptions options;
        options.grid = Discretization::coarse();
        options.engine = engine;
        options.threads = engine == DpEngine::ParallelWavefront ? 2 : 1;
        options.allow_special = seed % 5 != 0;
        const MadPipeDPResult unbounded =
            madpipe_dp(chain, platform, target, options);
        const Seconds base = std::isfinite(unbounded.period)
                                 ? unbounded.period
                                 : chain.total_compute();
        const std::vector<Seconds> bounds = {
            base * (0.5 + unit(rng)),
            base,
            std::nextafter(base, 0.0),
            std::nextafter(base, kInf),
            base * 0.999,
            kInf};
        for (const Seconds bound : bounds) {
          const std::string what =
              "seed " + std::to_string(seed) + " draw " +
              std::to_string(draw) + " engine " +
              std::to_string(static_cast<int>(engine)) + " bound " +
              std::to_string(bound);
          const MadPipeDPResult bounded =
              madpipe_dp(chain, platform, target, options, bound);
          expect_cut_at_bound(bounded, unbounded, bound, what);
          if (engine == DpEngine::FlatIterative) {
            EXPECT_LE(bounded.states_visited, unbounded.states_visited)
                << what;
          }
          if (unbounded.period < bound) {
            ++exact;
          } else if (std::isfinite(unbounded.period)) {
            ++cut;
          }
        }
      }
    }
  }
  // Both sides of the bound must be exercised.
  EXPECT_GT(exact, 100);
  EXPECT_GT(cut, 100);
}

TEST(Phase1Incumbent, RejectsNonPositiveBound) {
  const Chain chain = random_chain(1, 6);
  const Platform platform{2, 2 * GB, 12 * GB};
  EXPECT_THROW(madpipe_dp(chain, platform, chain.total_compute() / 2, {}, 0.0),
               ContractViolation);
  EXPECT_THROW(madpipe_dp(chain, platform, chain.total_compute() / 2, {},
                          std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
}

}  // namespace
}  // namespace madpipe
