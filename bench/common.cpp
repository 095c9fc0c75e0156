#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "core/pattern.hpp"
#include "models/zoo.hpp"
#include "pipedream/pipedream.hpp"
#include "util/format.hpp"
#include "util/threading.hpp"

namespace madpipe::bench {

const Chain& evaluation_chain(const std::string& name) {
  // Mutex-guarded: run_cells evaluates cells concurrently. Chains are never
  // erased, and std::map inserts don't invalidate element references, so a
  // returned reference stays valid after the lock drops.
  static std::mutex mutex;
  static std::map<std::string, Chain> cache;
  const std::scoped_lock lock(mutex);
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  return cache.emplace(name, models::paper_network(name)).first->second;
}

namespace {

PlannerOutcome to_outcome(const std::optional<Plan>& plan, const Chain& chain,
                          const Platform& platform) {
  PlannerOutcome outcome;
  if (!plan) return outcome;
  const ValidationResult check =
      validate_pattern(plan->pattern, plan->allocation, chain, platform);
  if (!check.valid) {
    std::fprintf(stderr, "FATAL: planner %s produced an invalid pattern: %s\n",
                 plan->planner.c_str(),
                 check.errors.empty() ? "?" : check.errors[0].c_str());
    std::abort();
  }
  outcome.feasible = true;
  outcome.phase1_period = plan->phase1_period;
  outcome.period = plan->period();
  outcome.planning_seconds = plan->planning_seconds;
  return outcome;
}

}  // namespace

MadPipeOptions default_bench_options() {
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::paper();
  options.phase2.max_probes = 22;
  options.phase2.relative_precision = 2e-3;
  options.phase2.bb.max_nodes = 40'000;
  return options;
}

CellResult run_cell(const CellConfig& config) {
  const Chain& chain = evaluation_chain(config.network);
  const Platform platform{config.processors, config.memory_gb * GB,
                          config.bandwidth_gbs * GB};

  CellResult result;
  result.config = config;
  result.pipedream = to_outcome(plan_pipedream(chain, platform), chain, platform);
  result.madpipe =
      to_outcome(plan_madpipe(chain, platform, config.madpipe), chain, platform);
  if (config.run_contiguous_ablation) {
    MadPipeOptions contiguous = config.madpipe;
    contiguous.disable_special_processor = true;
    result.madpipe_contiguous =
        to_outcome(plan_madpipe(chain, platform, contiguous), chain, platform);
  }
  return result;
}

std::vector<CellResult> run_cells(const std::vector<CellConfig>& configs,
                                  std::size_t workers) {
  std::vector<CellResult> results(configs.size());
  par::parallel_for(
      0, configs.size(),
      [&](std::size_t i) { results[i] = run_cell(configs[i]); }, workers);
  return results;
}

std::vector<double> paper_memory_sweep() {
  return {3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0};
}

std::vector<int> paper_processor_sweep() { return {2, 4, 8}; }

std::vector<double> paper_bandwidth_sweep() { return {12.0, 24.0}; }

std::string period_cell(const PlannerOutcome& outcome, double scale) {
  if (!outcome.feasible) return "inf";
  return fmt::fixed(outcome.period * scale, 1);
}

}  // namespace madpipe::bench
