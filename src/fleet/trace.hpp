// Fleet traces: the workload a fleet simulation runs.
//
// A trace is (a) a shared profile configuration — every job's network is
// built from the model zoo at one image/batch/chain-length setting, so a
// (network, gpus) pair maps to exactly one canonical plan-cache key —
// (b) an elastic GPU pool with optional resize events, and (c) a list of
// training jobs, each naming a zoo network, a requested GPU count (with an
// elastic minimum the placement policies may shrink to under pressure),
// a batch budget that determines its runtime via the plan's period, and
// optional deadlines.
//
// Two deadline fields exist because two different clocks do:
//   * `deadline_s` is SIMULATED time — the job wants to be done by then;
//     only the deadline-aware (EDF) policy reads it, as a priority.
//   * `plan_deadline_ms` is WALL-CLOCK planning budget, forwarded to
//     PlanService so a tight value exercises the deadline→DP-state-budget
//     degradation valve. Because the valve reacts to real elapsed time, a
//     nonzero value makes the event log run-dependent — seeded traces used
//     for bit-identity checks keep it 0 (fleet_trace_validate warns).
//
// Traces come from a JSON file (`madpipe-fleet-trace-v1`, documented in
// docs/SCHEMAS.md) or from synthesize_fleet_trace: a util::Rng
// (splitmix64) seeded generator, so `--seed S` reproduces the same
// workload bit for bit on every host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace madpipe::fleet {

inline constexpr const char* kFleetTraceSchema = "madpipe-fleet-trace-v1";

/// Zoo profile settings shared by every job in a trace.
struct ProfileConfig {
  int image_size = 1000;
  int batch = 8;
  int chain_length = 8;
};

struct JobSpec {
  std::string id;
  double arrival_s = 0.0;
  std::string network = "resnet50";  ///< a models::list_networks() name
  int gpus = 4;                       ///< requested placement width
  int min_gpus = 4;                   ///< elastic floor (<= gpus)
  long long batches = 256;            ///< training budget; runtime = batches x period
  double deadline_s = 0.0;            ///< simulated completion deadline; 0 = none
  double plan_deadline_ms = 0.0;      ///< wall planning budget (degradation valve)
};

struct PoolEvent {
  double time_s = 0.0;
  int gpus = 0;  ///< new absolute pool capacity
};

struct FleetTrace {
  int pool_gpus = 8;          ///< initial pool capacity
  double memory_gb = 8.0;     ///< per-GPU memory M
  double bandwidth_gbs = 12.0;///< link bandwidth beta
  ProfileConfig profile;
  std::vector<JobSpec> jobs;        ///< sorted by (arrival_s, input order)
  std::vector<PoolEvent> pool_events;  ///< sorted by time_s
};

/// Structural validation shared by the JSON loader and the simulator:
/// returns the first problem as a message, empty when the trace is sane
/// (ids unique and non-empty, networks known, 1 <= min_gpus <= gpus,
/// batches >= 1, times finite and non-negative, capacities >= 1).
std::string fleet_trace_validate(const FleetTrace& trace);

/// True when any job carries a wall-clock planning deadline — the one
/// field that makes event logs run-dependent (see header comment).
bool fleet_trace_has_plan_deadlines(const FleetTrace& trace);

struct FleetTraceParse {
  FleetTrace trace;
  std::string error;  ///< empty on success

  bool ok() const noexcept { return error.empty(); }
};

/// Parse a madpipe-fleet-trace-v1 document. Strict like the serve
/// protocol: unknown keys, wrong types and schema mismatches are errors.
FleetTraceParse fleet_trace_from_json(const std::string& text);

/// Serialize (the canonical way to commit an example trace).
std::string fleet_trace_to_json(const FleetTrace& trace);

/// Knobs of the synthetic generator. Defaults make a pool under real
/// pressure: bursts deeper than the pool, elastic widths, and a mid-trace
/// shrink/restore cycle that forces preemption + replanning.
struct SyntheticTraceConfig {
  std::uint64_t seed = 42;
  int jobs = 24;
  int pool_gpus = 8;
  double memory_gb = 8.0;
  double bandwidth_gbs = 12.0;
  ProfileConfig profile;
  std::vector<std::string> networks = {"resnet50", "resnet101"};
  double arrival_mean_gap_s = 0.4;  ///< exponential inter-arrival mean
  long long min_batches = 64;
  long long max_batches = 512;
  double deadline_fraction = 0.5;   ///< jobs given a simulated deadline
  int resize_cycles = 1;            ///< shrink-to-half + restore pairs
};

/// Deterministic function of the config (all randomness from util::Rng
/// seeded with config.seed). The result always validates, never carries
/// plan deadlines, and ends with the pool restored to full capacity so
/// every job can eventually be placed.
FleetTrace synthesize_fleet_trace(const SyntheticTraceConfig& config);

}  // namespace madpipe::fleet
