// Schedule introspection: explain *what a plan is*, not just what period it
// achieves. A PeriodicPattern is a list of (t, h) tuples — opaque to anyone
// debugging why a plan has period T or why a profile does not fit in M. The
// report unrolls it into the three views PipeDream-style systems debug with:
//
//   * per-stage u_F/u_B/W/ā tables (which stage is heavy, and where it runs);
//   * per-resource busy/idle fractions over one steady period, identifying
//     the critical (bottleneck) resource — the one whose busy time *is* the
//     period when the schedule is tight;
//   * an exact per-GPU memory watermark, decomposed into the §3 terms
//     𝓜(k,l,g) = Σ(3·W_i + g·a_{i-1}) + 2·(a_{k-1} + a_l): weights,
//     in-flight activations and communication buffers, with headroom vs M
//     and the binding term named.
//
// The memory numbers come from the *same* event sweep `validate_pattern`
// checks memory with (core/pattern.hpp sweep_processor_memory), so the
// report's peaks match the verifier's bit for bit — the report never
// re-derives memory with different arithmetic.
//
// Serialization: `plan_report_to_json` emits the strict `madpipe-explain-v1`
// schema (checked by tests/test_plan_report.cpp); the `madpipe explain`
// CLI prints `plan_report_to_string`. The serve protocol attaches the
// lighter ExplainSummary to responses when a request sets options.explain.
#pragma once

#include <string>
#include <vector>

#include "core/chain.hpp"
#include "core/partition.hpp"
#include "core/pattern.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"

namespace madpipe::json {
class Writer;
}

namespace madpipe::report {

/// Schema tag of plan_report_to_json documents.
inline constexpr const char* kExplainSchema = "madpipe-explain-v1";

/// The §3 memory term that dominates a GPU's footprint at its peak.
enum class MemoryTerm {
  Weights,      ///< 3·ΣW (+ scratch): parameter storage
  Activations,  ///< g · Σa_{i-1}: stored inputs of in-flight batches
  CommBuffers,  ///< 2·(a_{k-1} + a_l): boundary transfer buffers
};

const char* to_string(MemoryTerm term) noexcept;

/// One row of the per-stage table.
struct StageReport {
  int stage = 0;
  int first_layer = 0;
  int last_layer = 0;
  int processor = 0;
  Seconds forward_seconds = 0.0;   ///< u_F: stage forward load
  Seconds backward_seconds = 0.0;  ///< u_B: stage backward load
  Bytes weight_bytes = 0.0;        ///< ΣW over the stage's layers (raw, not ×3)
  Bytes activation_bytes_per_batch = 0.0;  ///< ā = Σ a_{i-1}
  int max_in_flight = 0;  ///< g: peak in-flight batches (steady state)
};

/// Busy/idle split of one resource over one steady period.
struct ResourceReport {
  ResourceId resource;
  Seconds busy_seconds = 0.0;   ///< Σ op durations on the resource
  double utilization = 0.0;     ///< busy / period, in [0, 1]
  double bubble_fraction = 0.0; ///< 1 − utilization
};

/// One point of the steady-state memory-over-time curve (total footprint).
struct MemoryCurvePoint {
  Seconds time = 0.0;  ///< instant in [0, period)
  Bytes bytes = 0.0;   ///< static memory + in-flight activations at `time`
};

/// Exact §3 memory decomposition of one GPU.
struct GpuMemoryReport {
  int gpu = 0;
  Bytes weights_bytes = 0.0;       ///< 3·ΣW over resident layers
  Bytes scratch_bytes = 0.0;       ///< always-resident workspace
  Bytes comm_buffers_bytes = 0.0;  ///< 2·a per cut boundary touching the GPU
  Bytes activations_peak_bytes = 0.0;  ///< peak in-flight activations
  /// Exact watermark: static memory + activation peak, computed by the
  /// verifier's event sweep (bit-identical to
  /// ValidationResult::processor_memory_peak).
  Bytes peak_bytes = 0.0;
  Bytes limit_bytes = 0.0;     ///< M
  Bytes headroom_bytes = 0.0;  ///< M − peak
  MemoryTerm binding_term = MemoryTerm::Weights;  ///< largest term at peak
  /// Memory over one steady period at every sweep event instant, time-sorted.
  std::vector<MemoryCurvePoint> curve;
};

struct PlanReport {
  std::string planner;
  Seconds period = 0.0;
  Seconds phase1_period = 0.0;
  int num_stages = 0;
  int gpus = 0;
  std::vector<StageReport> stages;
  std::vector<ResourceReport> resources;  ///< GPUs first, then links
  std::vector<GpuMemoryReport> memory;    ///< one entry per GPU
  ResourceId critical_resource;  ///< argmax utilization
  double critical_utilization = 0.0;
  double mean_gpu_utilization = 0.0;
  /// simulate_pattern cross-check (filled when options.run_simulation).
  bool simulated = false;
  Seconds simulated_period = 0.0;
  /// (simulated − analytic) / analytic; ≤ 0 means the ASAP execution beats
  /// the pattern's own period (it never runs slower on a valid pattern).
  double period_delta_fraction = 0.0;
};

struct PlanReportOptions {
  /// Run the discrete-event simulator for the analytic-vs-measured period
  /// delta. Off for the serve summary path (latency-sensitive).
  bool run_simulation = true;
  int simulation_batches = 64;  ///< batches for the simulator cross-check
};

/// Build the full report for a plan. The plan must be valid for (chain,
/// platform) — build one from the same inputs the planner consumed.
PlanReport build_plan_report(const Plan& plan, const Chain& chain,
                             const Platform& platform,
                             const PlanReportOptions& options = {});

/// Append the report as one madpipe-explain-v1 JSON object value.
void write_plan_report(json::Writer& writer, const PlanReport& report);
std::string plan_report_to_json(const PlanReport& report);

/// Human-readable multi-section rendering (the `madpipe explain` output).
std::string plan_report_to_string(const PlanReport& report);

/// The response-sized digest the serve protocol attaches when a request
/// sets options.explain: bottleneck + memory watermark, no tables/curves.
struct ExplainSummary {
  Seconds period = 0.0;
  std::string critical_resource;
  double critical_utilization = 0.0;
  double bubble_fraction = 0.0;  ///< of the critical resource
  double mean_gpu_utilization = 0.0;
  Bytes memory_peak_bytes = 0.0;      ///< max over GPUs
  Bytes memory_headroom_bytes = 0.0;  ///< min over GPUs
  int binding_gpu = 0;                ///< GPU with the least headroom
  MemoryTerm binding_term = MemoryTerm::Weights;  ///< its largest §3 term
};

ExplainSummary summarize(const PlanReport& report);

/// build_plan_report (without simulation) + summarize in one call.
ExplainSummary build_explain_summary(const Plan& plan, const Chain& chain,
                                     const Platform& platform);

/// Rescale a summary computed on a canonical (unit-normalized) plan back
/// into request units: times × time_unit, bytes × byte_unit (exact — the
/// serve units are powers of two). Ratios are unit-free and unchanged.
ExplainSummary scale_summary(ExplainSummary summary, double time_unit,
                             double byte_unit);

/// Set the plan-quality gauges of the process-wide obs::Registry from the
/// last explained plan (`madpipe explain`, or a serve response that carries
/// a summary), so dashboards can watch plan quality live.
void publish_quality(const ExplainSummary& summary);

}  // namespace madpipe::report
