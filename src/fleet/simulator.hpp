// FleetSimulator: discrete-event execution of a fleet trace.
//
// One single-threaded event loop (ROADMAP item 3) over an EventQueue:
// job arrivals enter a wait queue, the placement policy admits jobs against
// the elastic GPU pool, each placement obtains a real plan from the
// existing serve::PlanService — exercising the plan cache exactly as a
// datacenter control loop would — and runs for batches × period() of
// SIMULATED time. Pool-resize events shrink or grow the pool; a shrink
// below current usage preempts the most recently placed jobs, which
// re-enter the wait queue with their remaining batches and are REPLANNED
// on their next placement (possibly at a different width → a different
// canonical cache key).
//
// Determinism contract (the acceptance criterion): the event log is a pure
// function of (trace, policy). Three design choices make that true —
//   1. planning is synchronous from the sim thread and costs zero SIM
//      time, so wall-clock planning latency never enters the timeline;
//   2. every logged fact is sim-time state or a deterministic planner
//      output (periods, widths, cache outcomes); wall-clock facts
//      (latency, degraded flags) are reported but never logged;
//   3. the event engine pops in total (time, seq) order and all policy
//      tie-breaks are by admission order.
// The one escape hatch is JobSpec::plan_deadline_ms — a wall-clock DP
// budget that can make the degradation valve fire run-dependently; traces
// carrying it still run, but bit-identity is only promised without it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/event_queue.hpp"
#include "fleet/policy.hpp"
#include "fleet/trace.hpp"
#include "serve/service.hpp"

namespace madpipe::fleet {

inline constexpr const char* kFleetReportSchema = "madpipe-fleet-report-v1";

struct FleetOptions {
  std::string policy = "fifo";
};

/// Per-job outcome, in trace order.
struct JobOutcome {
  std::string id;
  std::string network;
  double arrival_s = 0.0;
  double first_start_s = 0.0;  ///< first placement time
  double finish_s = 0.0;
  double wait_s = 0.0;      ///< total time spent in the wait queue
  int placed_gpus = 0;      ///< width of the final (completing) placement
  int plans = 0;            ///< PlanService calls (1 + replans)
  int preemptions = 0;
  bool completed = false;
  bool failed = false;      ///< planner said infeasible/error — job dropped
  bool deadline_met = true; ///< false iff deadline_s > 0 and finish was late
};

struct FleetResult {
  std::string policy;
  std::string error;  ///< non-empty → the run never started (bad trace/policy)

  // Accounting (the jobs_in == jobs_out criterion):
  int jobs_in = 0;
  int completed = 0;
  int failed = 0;
  int stranded = 0;  ///< still waiting/running when events ran out (bug if >0)

  double makespan_s = 0.0;        ///< time of the last dispatched event
  double utilization = 0.0;       ///< busy GPU-seconds / capacity GPU-seconds
  double busy_gpu_seconds = 0.0;
  double capacity_gpu_seconds = 0.0;

  // Queueing delay (sim-time, over all placements including re-placements).
  double wait_mean_s = 0.0;
  double wait_p50_s = 0.0;
  double wait_p99_s = 0.0;
  double wait_max_s = 0.0;

  // Planning traffic (PlanService view of this run).
  long long plans_requested = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  double cache_hit_rate = 0.0;
  long long degraded_plans = 0;
  double plan_wall_seconds = 0.0;  ///< wall clock spent planning (not sim time)

  long long replans = 0;      ///< placements of previously preempted jobs
  long long preemptions = 0;
  int deadlines_met = 0;      ///< among jobs with a deadline
  int deadlines_missed = 0;

  // Engine counters.
  long long events_dispatched = 0;
  long long stale_events = 0;  ///< completions invalidated by preemption

  std::vector<JobOutcome> jobs;

  /// The deterministic event log: one line per logged transition, and its
  /// FNV-1a hash (the cheap thing to compare across runs/hosts).
  std::vector<std::string> event_log;
  std::uint64_t event_log_hash = 0;

  bool ok() const noexcept { return error.empty(); }
  bool accounting_exact() const noexcept {
    return jobs_in == completed + failed + stranded;
  }
};

/// FNV-1a over the log lines (each line hashed with a trailing '\n'); the
/// hash two runs must agree on bit-for-bit.
std::uint64_t hash_event_log(const std::vector<std::string>& log);

class FleetSimulator {
 public:
  /// `service` outlives the simulator; its cache carries across runs only
  /// if the caller reuses the service (the bench gives each policy a fresh
  /// one so hit-rates are comparable).
  FleetSimulator(const FleetTrace& trace, const FleetOptions& options,
                 serve::PlanService& service);

  /// Run to event-queue exhaustion. Never throws for trace-level problems
  /// (they land in FleetResult::error); contract violations still throw.
  FleetResult run();

 private:
  const FleetTrace& trace_;
  FleetOptions options_;
  serve::PlanService& service_;
};

/// Convenience: validate, build a PlanService from `service_options`, run.
FleetResult run_fleet(const FleetTrace& trace, const FleetOptions& options,
                      const serve::ServiceOptions& service_options = {});

/// Full JSON report (kFleetReportSchema) — the `madpipe fleet --json` body.
std::string fleet_result_to_json(const FleetResult& result,
                                 bool include_event_log);

/// Human-readable summary table + headline numbers.
std::string fleet_result_report(const FleetResult& result);

}  // namespace madpipe::fleet
