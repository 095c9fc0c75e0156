#include "madpipe/planner.hpp"

#include <chrono>

#include "obs/trace.hpp"
#include "schedule/one_f_one_b.hpp"
#include "util/logging.hpp"

namespace madpipe {

std::optional<Plan> plan_madpipe(const Chain& chain, const Platform& platform,
                                 const MadPipeOptions& options) {
  obs::Span span("plan_madpipe", obs::kCatPlanner);
  const auto start_time = std::chrono::steady_clock::now();

  const Phase1Result phase1 = madpipe_phase1(chain, platform, options.phase1);
  PlannerStats stats = phase1.stats;
  if (!phase1.feasible()) {
    log::info("MadPipe phase 1 found no memory-feasible allocation");
    stats.publish();
    return std::nullopt;
  }

  // Phase 2: 1F1B* when the allocation is contiguous (provably
  // memory-optimal), the cyclic search otherwise, from the phase-1 period
  // as the lower bound argued in §4.2.3.
  const Allocation& allocation = *phase1.allocation;
  std::optional<Plan> plan;
  if (allocation.contiguous()) {
    plan = plan_one_f_one_b(allocation, chain, platform);
  } else {
    const PeriodSearchResult phase2 = find_min_period(
        allocation, chain, platform, phase1.period, options.phase2);
    stats.phase2_probes = phase2.probes;
    stats.phase2_speculative_probes = phase2.speculative_probes;
    stats.phase2_speculative_hits = phase2.speculative_hits;
    stats.phase2_budget_hits = phase2.budget_hits;
    stats.phase2_bb_nodes = phase2.bb_nodes;
    stats.phase2_wall_seconds = phase2.wall_seconds;
    if (phase2.feasible) {
      plan = Plan{"madpipe", allocation, phase2.pattern, 0.0, 0.0,
                  PlannerStats{}};
    }
  }
  if (!plan) {
    log::info("MadPipe phase 2 could not schedule the phase-1 allocation");
    stats.publish();
    return std::nullopt;
  }

  plan->planner =
      options.phase1.dp.allow_special ? "madpipe" : "madpipe-contig";
  plan->phase1_period = phase1.period;
  plan->planning_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  plan->stats = stats;
  span.arg("dp_states", stats.dp_states);
  stats.publish();
  return plan;
}

}  // namespace madpipe
