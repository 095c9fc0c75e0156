// Shared experiment harness for the paper-reproduction benchmarks: runs one
// (network, P, M, β) cell through both planners and collects the phase-1
// ("dashed") and valid-schedule ("solid") periods, mirroring Figure 6's
// reading of the results.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/chain.hpp"
#include "core/platform.hpp"
#include "madpipe/planner.hpp"

namespace madpipe::bench {

/// MadPipe options tuned for full-sweep benchmarks: the paper's grids, with
/// a slightly tightened phase-2 probe budget so a 200-cell sweep finishes in
/// minutes on one core (the ablation bench quantifies the effect of these
/// budgets).
MadPipeOptions default_bench_options();

struct CellConfig {
  std::string network;
  int processors = 4;
  double memory_gb = 8.0;
  double bandwidth_gbs = 12.0;
  MadPipeOptions madpipe = default_bench_options();
  /// Also run the memory-aware contiguous ablation (MadPipe without the
  /// special processor).
  bool run_contiguous_ablation = false;
};

struct PlannerOutcome {
  bool feasible = false;
  Seconds phase1_period = 0.0;  ///< the dashed line
  Seconds period = 0.0;         ///< the solid line (valid schedule)
  Seconds planning_seconds = 0.0;
};

struct CellResult {
  CellConfig config;
  PlannerOutcome pipedream;
  PlannerOutcome madpipe;
  PlannerOutcome madpipe_contiguous;  ///< only with run_contiguous_ablation
};

/// The paper's evaluation chain for `name` (1000x1000 images, batch 8),
/// cached across calls.
const Chain& evaluation_chain(const std::string& name);

/// Run both planners on one cell. Every returned plan has been passed
/// through the exact pattern verifier (the harness aborts on an invalid
/// plan — that would be a library bug, not an experiment result).
CellResult run_cell(const CellConfig& config);

/// Run a whole sweep of cells, `workers` at a time (0 = hardware threads).
/// Results come back in input order, identical to looping run_cell.
std::vector<CellResult> run_cells(const std::vector<CellConfig>& configs,
                                  std::size_t workers = 0);

/// Paper sweep axes.
std::vector<double> paper_memory_sweep();      ///< {3..16} GB
std::vector<int> paper_processor_sweep();      ///< {2, 4, 8}
std::vector<double> paper_bandwidth_sweep();   ///< {12, 24} GB/s

/// "1.23" or "inf" for infeasible cells.
std::string period_cell(const PlannerOutcome& outcome, double scale = 1e3);

}  // namespace madpipe::bench
