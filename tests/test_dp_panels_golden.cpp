// MadPipe-DP golden test: sequential phase 1 on the flat engine pinned bit
// for bit, together with the DP's state and memo counters. Any change to how
// the flat engine finds its transitions or memo entries (a new cache layout,
// fewer hash probes) must keep the period, the allocation, the
// special-processor flag, the number of states memoized and visited, the
// child lookups and their hits, and the state-budget behaviour exactly as
// recorded here.
//
// Inputs: the ten perfbench pool cells at the paper grid (full-depth gpt2-xl
// among them), each with default options, without the special processor and
// with the paper-literal delay update; a multi-GiB chain whose whole-chain
// weights do not fit one GPU, so the scans of its deeper layers stop at the
// static-memory break before reaching k = 1; and the pool cells again under
// a state budget that truncates.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/memory_model.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"

namespace madpipe {
namespace {

struct Cell {
  const char* network;
  int gpus;
  double memory_gb;
};

const std::vector<Cell>& pool_cells() {
  static const std::vector<Cell> cells = {
      {"resnet101", 4, 8.0},   {"densenet121", 2, 8.0},
      {"gpt2-xl", 8, 16.0},    {"resnet50", 4, 8.0},
      {"resnet50", 8, 8.0},    {"resnet50", 8, 4.0},
      {"densenet121", 2, 4.0}, {"resnet101", 4, 4.0},
      {"resnet101", 8, 4.0},   {"densenet121", 8, 8.0}};
  return cells;
}

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

/// Sequential phase 1 (speculation 1: the counters of speculative probes
/// depend on the host's thread count) on the flat engine.
Phase1Options sequential(const MadPipeDPOptions& dp) {
  Phase1Options options;
  options.dp = dp;
  options.speculation = 1;
  return options;
}

std::string hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// Stages as first-last@processor; allocations of more than 24 stages
/// (full-depth gpt2-xl) are pinned by stage count and the FNV-1a hash of
/// that text.
std::string describe(const Allocation& allocation) {
  const std::vector<Stage>& stages = allocation.partitioning().stages();
  std::string text;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (s > 0) text += ',';
    text += std::to_string(stages[s].first) + '-' +
            std::to_string(stages[s].last) + '@' +
            std::to_string(allocation.processor_of(static_cast<int>(s)));
  }
  if (stages.size() <= 24) return text;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return std::to_string(stages.size()) + "-stage fnv1a:" + hex(hash);
}

/// Everything the golden pins, as one line: period bits, the allocation,
/// the special flag, then dp_states / dp_state_visits / memo_child_lookups /
/// memo_hits / state_budget_hits.
std::string describe(const Phase1Result& result) {
  std::string out = hex(std::bit_cast<std::uint64_t>(result.period)) + ' ' +
                    (result.allocation ? describe(*result.allocation)
                                       : std::string("none"));
  out += result.uses_special ? " special" : " normal";
  const PlannerStats& s = result.stats;
  for (const long long counter :
       {s.dp_states, s.dp_state_visits, s.memo_child_lookups, s.memo_hits,
        s.state_budget_hits}) {
    out += ' ' + std::to_string(counter);
  }
  return out;
}

struct Golden {
  const char* label;
  const char* expected;
};

void expect_golden(const std::string& what, const Phase1Result& result,
                   const std::vector<Golden>& golden, std::size_t& next) {
  const std::string actual = describe(result);
  if (next >= golden.size()) {
    ADD_FAILURE() << "no golden entry for {\"" << what << "\", \"" << actual
                  << "\"}";
  } else {
    EXPECT_EQ(golden[next].label, what);
    EXPECT_EQ(actual, golden[next].expected) << what;
  }
  ++next;
}

// Recorded with the transition cache keyed per (k, l, delay) triple.
const std::vector<Golden>& pool_golden() {
  static const std::vector<Golden> golden = {
      {"resnet101 P4 M8 default",
       "3fd298be0ab6a220 1-3@3,4-8@0,9-10@3,11-16@1,17-24@2 special 62719 "
       "62719 166027 103318 0"},
      {"resnet101 P4 M8 no-special",
       "3fd3b080294fb9a4 1-5@0,6-10@1,11-16@2,17-24@3 normal 1242 1242 3130 "
       "1898 0"},
      {"resnet101 P4 M8 paper-literal",
       "3fd298be0ab6a220 1-3@3,4-8@0,9-10@3,11-16@1,17-24@2 special 63037 "
       "63037 165908 102881 0"},
      {"densenet121 P2 M8 default",
       "3fca277a6893c6c2 1-2@1,3-12@0,13-18@1,19-24@1 special 6894 6894 "
       "15135 8251 0"},
      {"densenet121 P2 M8 no-special",
       "3fca8f5fe365ad62 1-10@0,11-24@1 normal 150 150 154 14 0"},
      {"densenet121 P2 M8 paper-literal",
       "3fca18d3d59b1eba 1-3@1,4-14@0,15-16@1,17-19@1,20-23@1,24-24@1 "
       "special 1234 1234 2493 1260 0"},
      {"gpt2-xl P8 M16 default",
       "3ff8f9b2a23d710a 193-stage fnv1a:82f99db9504bc2a5 special 1144 1144 "
       "2473 1330 0"},
      {"gpt2-xl P8 M16 no-special",
       "3ff9c99c68723ff4 1-26@0,27-51@1,52-76@2,77-101@3,102-127@4,"
       "128-153@5,154-179@6,180-194@7 normal 55032 55032 974970 919948 0"},
      {"gpt2-xl P8 M16 paper-literal",
       "3ff8f9b2a23d710a 193-stage fnv1a:82f99db9504bc2a5 special 1144 1144 "
       "2473 1330 0"},
      {"resnet50 P4 M8 default",
       "3fc513c93c555ca9 1-3@3,4-7@0,8-9@3,10-13@1,14-17@2,18-18@3 special "
       "19228 19228 34738 15520 0"},
      {"resnet50 P4 M8 no-special",
       "3fc74710a5afe2e6 1-5@0,6-8@1,9-13@2,14-18@3 normal 787 787 1560 783 "
       "0"},
      {"resnet50 P4 M8 paper-literal",
       "3fc4e0a06f1ad4f1 1-4@3,5-8@0,9-12@1,13-16@2,17-17@3,18-18@3 special "
       "19435 19435 34215 14790 0"},
      {"resnet50 P8 M8 default",
       "3fba6283fc44672e 1-2@0,3-3@7,4-4@1,5-5@2,6-8@3,9-10@4,11-13@5,"
       "14-15@6,16-17@7,18-18@7 special 60839 60839 114982 54153 0"},
      {"resnet50 P8 M8 no-special",
       "3fbdf278ffa3aad0 1-3@0,4-4@1,5-7@2,8-8@3,9-10@4,11-13@5,14-15@6,"
       "16-18@7 normal 1606 1606 3578 1982 0"},
      {"resnet50 P8 M8 paper-literal",
       "3fb84a246096af1b 1-2@0,3-3@7,4-4@1,5-5@2,6-8@3,9-10@4,11-13@5,"
       "14-15@6,16-17@7,18-18@7 special 48112 48112 92529 44427 0"},
      {"resnet50 P8 M4 default",
       "3fcb4d273b800da9 1-3@0,4-5@7,6-7@1,8-9@2,10-12@3,13-15@4,16-17@5,"
       "18-18@6 special 176495 176495 348422 171937 0"},
      {"resnet50 P8 M4 no-special",
       "3fcd127dab124a04 1-1@0,2-3@1,4-4@2,5-5@3,6-11@4,12-15@5,16-17@6,"
       "18-18@7 normal 2883 2883 6994 4121 0"},
      {"resnet50 P8 M4 paper-literal",
       "3fcb481fb4a5fa5e 1-1@0,2-3@1,4-4@2,5-6@3,7-11@4,12-17@7,18-18@5 "
       "special 185334 185334 365732 180408 0"},
      {"densenet121 P2 M4 default",
       "3fcb7a844a089463 1-9@1,10-24@0 special 6255 6255 14775 8530 0"},
      {"densenet121 P2 M4 no-special",
       "3fda5c3a6aafc898 1-17@0,18-24@1 normal 169 169 236 77 0"},
      {"densenet121 P2 M4 paper-literal",
       "3fcc0d94df17872c 1-8@1,9-22@0,23-24@1 special 8301 8301 19563 11272 "
       "0"},
      {"resnet101 P4 M4 default",
       "3fd7483693b41242 1-3@3,4-8@0,9-14@1,15-24@2 special 141603 141603 "
       "364599 223006 0"},
      {"resnet101 P4 M4 no-special",
       "3fda93011f8a75a2 1-3@0,4-7@1,8-13@2,14-24@3 normal 1559 1559 4303 "
       "2754 0"},
      {"resnet101 P4 M4 paper-literal",
       "3fd7483693b41242 1-3@3,4-8@0,9-14@1,15-24@2 special 141076 141076 "
       "362771 221705 0"},
      {"resnet101 P8 M4 default",
       "3fd35df8dad428e0 1-2@7,3-3@0,4-6@1,7-8@2,9-10@3,11-12@4,13-16@5,"
       "17-24@6 special 553437 553437 1651702 1098275 0"},
      {"resnet101 P8 M4 no-special",
       "3fd640592b0c9540 1-2@0,3-3@1,4-7@2,8-9@3,10-12@4,13-14@5,15-17@6,"
       "18-24@7 normal 5505 5505 16407 10912 0"},
      {"resnet101 P8 M4 paper-literal",
       "3fd35df8dad428e0 1-2@7,3-3@0,4-6@1,7-8@2,9-10@3,11-12@4,13-16@5,"
       "17-24@6 special 545443 545443 1622928 1077495 0"},
      {"densenet121 P8 M8 default",
       "3fb2ca321eea9101 1-3@0,4-5@1,6-8@7,9-10@2,11-15@3,16-17@4,18-21@5,"
       "22-24@6 special 277582 277582 759323 481751 0"},
      {"densenet121 P8 M8 no-special",
       "3fb31d5acb6f4651 1-2@0,3-4@1,5-6@2,7-8@3,9-13@4,14-18@5,19-23@6,"
       "24-24@7 normal 3375 3375 8960 5595 0"},
      {"densenet121 P8 M8 paper-literal",
       "3fb2ca321eea9101 1-3@0,4-5@1,6-8@7,9-13@2,14-16@3,17-19@4,20-22@5,"
       "23-24@6 special 300834 300834 840815 539991 0"},
  };
  return golden;
}

const std::vector<Golden>& budget_golden() {
  static const std::vector<Golden> golden = {
      {"resnet101 P4 M8 max_states 3000",
       "3fd7235000bccd25 1-5@0,6-10@1,11-16@2,17-17@3,18-18@3,19-19@3,"
       "20-20@3,21-21@3,22-22@3,23-23@3,24-24@3 special 30000 30000 60312 "
       "29120 10"},
      {"densenet121 P2 M8 max_states 3000",
       "3fca277a6893c6c2 1-2@1,3-12@0,13-18@1,19-24@1 special 6894 6894 "
       "15135 8251 0"},
      {"gpt2-xl P8 M16 max_states 3000",
       "3ff8f9b2a23d710a 193-stage fnv1a:82f99db9504bc2a5 special 1144 1144 "
       "2473 1330 0"},
      {"resnet50 P4 M8 max_states 3000",
       "3fc515d32e36e3c8 1-3@3,4-7@0,8-9@3,10-14@1,15-17@2,18-18@3 special "
       "16107 16107 26421 10280 1"},
      {"resnet50 P8 M8 max_states 3000",
       "3fbd30a4218d64ea 1-2@0,3-3@7,4-4@1,5-6@2,7-8@3,9-10@4,11-13@5,"
       "14-14@7,15-16@6,17-17@7,18-18@7 special 29536 29536 52137 22404 8"},
      {"resnet50 P8 M4 max_states 3000",
       "3fcc4b2178485d90 1-3@0,4-5@7,6-7@1,8-13@2,14-15@3,16-16@4,17-17@5,"
       "18-18@6 special 30000 30000 45673 15115 10"},
      {"densenet121 P2 M4 max_states 3000",
       "3fcb7a844a089463 1-9@1,10-24@0 special 6255 6255 14775 8530 0"},
      {"resnet101 P4 M4 max_states 3000",
       "3fddbe6cf1d84cbb 1-3@3,4-7@0,8-15@1,16-19@3,20-22@3,23-23@3,24-24@2 "
       "special 30000 30000 52547 21362 10"},
      {"resnet101 P8 M4 max_states 3000",
       "3fdabbc25c2c04d8 1-3@7,4-7@0,8-13@1,14-17@7,18-18@7,19-19@7,20-20@2,"
       "21-21@3,22-22@4,23-23@5,24-24@6 special 30000 30000 54433 22516 10"},
      {"densenet121 P8 M8 max_states 3000",
       "3fbcaa2623495c87 1-4@0,5-5@7,6-9@1,10-10@7,11-17@2,18-18@7,19-19@7,"
       "20-20@7,21-21@3,22-22@4,23-23@5,24-24@6 special 30000 30000 59433 "
       "27808 10"},
  };
  return golden;
}

const std::vector<Golden>& multi_gib_golden() {
  static const std::vector<Golden> golden = {
      {"multigib P4 default",
       "7ff0000000000000 none normal 193074 193074 1954511 1761447 0"},
      {"multigib P4 no-special",
       "7ff0000000000000 none normal 2531 2531 17152 14631 0"},
      {"multigib P8 default",
       "3fb26e978d4fdf40 1-12@0,13-24@1,25-36@2,37-48@3,49-60@4,61-72@5,"
       "73-84@6,85-85@7,86-87@7,88-89@7,90-90@7,91-91@7,92-92@7,93-93@7,"
       "94-94@7,95-95@7,96-96@7 special 284068 284068 4144573 3860506 0"},
      {"multigib P8 no-special",
       "3fb26e978d4fdf40 1-12@0,13-24@1,25-36@2,37-48@3,49-60@4,61-72@5,"
       "73-84@6,85-96@7 normal 3594 3594 37198 33605 0"},
  };
  return golden;
}

TEST(DpPanelsGolden, PoolCellsInEveryVariant) {
  std::size_t next = 0;
  for (const Cell& cell : pool_cells()) {
    const Chain chain = cell_chain(cell.network);
    const Platform platform = cell_platform(cell);
    MadPipeDPOptions dp;
    dp.grid = Discretization::paper();
    expect_golden(label(cell) + " default",
                  madpipe_phase1(chain, platform, sequential(dp)),
                  pool_golden(), next);
    MadPipeDPOptions contiguous = dp;
    contiguous.allow_special = false;
    expect_golden(label(cell) + " no-special",
                  madpipe_phase1(chain, platform, sequential(contiguous)),
                  pool_golden(), next);
    MadPipeDPOptions literal = dp;
    literal.delay_comm_variant = DelayCommVariant::PaperLiteral;
    expect_golden(label(cell) + " paper-literal",
                  madpipe_phase1(chain, platform, sequential(literal)),
                  pool_golden(), next);
  }
  EXPECT_EQ(next, pool_golden().size());
}

TEST(DpPanelsGolden, StateBudgetTruncation) {
  // A budget below what most first probes need: some probes finish, others
  // are cut and report infinity, so both sides of the budget check count.
  std::size_t next = 0;
  long long hits = 0;
  for (const Cell& cell : pool_cells()) {
    const Chain chain = cell_chain(cell.network);
    const Platform platform = cell_platform(cell);
    MadPipeDPOptions dp;
    dp.max_states = 3000;
    const Phase1Result result = madpipe_phase1(chain, platform, sequential(dp));
    hits += result.stats.state_budget_hits;
    expect_golden(label(cell) + " max_states 3000", result, budget_golden(),
                  next);
  }
  EXPECT_EQ(next, budget_golden().size());
  EXPECT_GT(hits, 0);
}

TEST(DpPanelsGolden, MultiGibChainStopsAtTheStaticMemoryBreak) {
  // 96 layers of 32 MB weights: 3 GiB in all against 2 GiB per GPU, so the
  // scans of the deeper layers stop before k = 1. On 4 GPUs no allocation
  // fits; on 8 one does.
  const Chain chain =
      make_uniform_chain(96, ms(2), ms(4), 32 * MB, 4 * MB, MB, "multigib");
  std::size_t next = 0;
  for (const int gpus : {4, 8}) {
    const Platform platform{gpus, 2 * GB, 12 * GB};
    ASSERT_GT(weights_memory(chain, 1, chain.length()),
              platform.memory_per_processor);
    for (const bool allow_special : {true, false}) {
      MadPipeDPOptions dp;
      dp.allow_special = allow_special;
      const std::string what = "multigib P" + std::to_string(gpus) +
                               (allow_special ? " default" : " no-special");
      expect_golden(what, madpipe_phase1(chain, platform, sequential(dp)),
                    multi_gib_golden(), next);
    }
  }
  EXPECT_EQ(next, multi_gib_golden().size());
}

}  // namespace
}  // namespace madpipe
