#include "report/plan_report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.hpp"
#include "sim/event_sim.hpp"
#include "util/expect.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace madpipe::report {

const char* to_string(MemoryTerm term) noexcept {
  switch (term) {
    case MemoryTerm::Weights: return "weights";
    case MemoryTerm::Activations: return "activations";
    case MemoryTerm::CommBuffers: return "comm_buffers";
  }
  return "unknown";
}

namespace {

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

MemoryTerm binding_term_of(Bytes weights_and_scratch, Bytes activations,
                           Bytes buffers) {
  MemoryTerm term = MemoryTerm::Weights;
  Bytes best = weights_and_scratch;
  if (activations > best) {
    term = MemoryTerm::Activations;
    best = activations;
  }
  if (buffers > best) term = MemoryTerm::CommBuffers;
  return term;
}

}  // namespace

PlanReport build_plan_report(const Plan& plan, const Chain& chain,
                             const Platform& platform,
                             const PlanReportOptions& options) {
  const Allocation& allocation = plan.allocation;
  const Partitioning& parts = allocation.partitioning();
  const PeriodicPattern& pattern = plan.pattern;
  const Seconds T = pattern.period;
  MP_EXPECT(T > 0.0, "plan has no positive period to report on");

  PlanReport report;
  report.planner = plan.planner;
  report.period = T;
  report.phase1_period = plan.phase1_period;
  report.num_stages = parts.num_stages();
  report.gpus = allocation.num_processors();

  // --- Per-stage table -------------------------------------------------
  for (int s = 0; s < parts.num_stages(); ++s) {
    const Stage& stage = parts.stage(s);
    StageReport row;
    row.stage = s;
    row.first_layer = stage.first;
    row.last_layer = stage.last;
    row.processor = allocation.processor_of(s);
    row.forward_seconds = parts.stage_forward_load(chain, s);
    row.backward_seconds = parts.stage_backward_load(chain, s);
    row.weight_bytes = chain.weight_sum(stage.first, stage.last);
    row.activation_bytes_per_batch = parts.stage_stored_activations(chain, s);
    report.stages.push_back(row);
  }

  // --- Busy/idle per resource over one period --------------------------
  // GPUs first (all P of them, idle ones included), links after in id order.
  std::vector<ResourceId> order;
  for (int p = 0; p < allocation.num_processors(); ++p) {
    order.push_back(ResourceId::processor(p));
  }
  std::vector<ResourceId> links;
  for (const PatternOp& op : pattern.ops) {
    if (op.resource.kind != ResourceId::Kind::Link) continue;
    if (std::find(links.begin(), links.end(), op.resource) == links.end()) {
      links.push_back(op.resource);
    }
  }
  std::sort(links.begin(), links.end());
  order.insert(order.end(), links.begin(), links.end());

  for (const ResourceId& resource : order) {
    ResourceReport row;
    row.resource = resource;
    for (const PatternOp& op : pattern.ops) {
      if (op.resource == resource) row.busy_seconds += op.duration;
    }
    row.utilization = clamp01(row.busy_seconds / T);
    row.bubble_fraction = 1.0 - row.utilization;
    report.resources.push_back(row);
  }

  report.critical_resource = report.resources.front().resource;
  double gpu_util_sum = 0.0;
  int gpu_count = 0;
  for (const ResourceReport& row : report.resources) {
    if (row.utilization > report.critical_utilization) {
      report.critical_utilization = row.utilization;
      report.critical_resource = row.resource;
    }
    if (row.resource.kind == ResourceId::Kind::Processor) {
      gpu_util_sum += row.utilization;
      ++gpu_count;
    }
  }
  report.mean_gpu_utilization = gpu_count > 0 ? gpu_util_sum / gpu_count : 0.0;

  // --- Exact memory watermark per GPU ----------------------------------
  for (int p = 0; p < allocation.num_processors(); ++p) {
    const MemorySweep sweep =
        sweep_processor_memory(pattern, allocation, chain, p);
    MP_ENSURE(sweep.ok(), "memory sweep failed on a validated plan: " +
                              sweep.error);
    GpuMemoryReport mem;
    mem.gpu = p;
    for (const int s : allocation.stages_on(p)) {
      const Stage& stage = parts.stage(s);
      mem.weights_bytes += 3.0 * chain.weight_sum(stage.first, stage.last);
      mem.scratch_bytes += chain.scratch_sum(stage.first, stage.last);
      // Mirror Allocation::static_memory's buffer accounting: one 2·a buffer
      // per cut boundary touching the stage (none at the chain ends).
      if (s > 0 && allocation.processor_of(s - 1) != p) {
        mem.comm_buffers_bytes += 2.0 * chain.activation(stage.first - 1);
      }
      if (s + 1 < parts.num_stages() && allocation.processor_of(s + 1) != p) {
        mem.comm_buffers_bytes += 2.0 * chain.activation(stage.last);
      }
    }
    mem.activations_peak_bytes = sweep.peak_activation_bytes;
    // The peak must match the verifier bit for bit, so it is computed the
    // way validate_pattern computes it — NOT by summing the decomposition
    // terms (a different accumulation order can differ in ulps).
    const Bytes static_mem = allocation.static_memory(chain, p);
    mem.peak_bytes = static_mem + sweep.peak_activation_bytes;
    mem.limit_bytes = platform.memory_per_processor;
    mem.headroom_bytes = mem.limit_bytes - mem.peak_bytes;
    mem.binding_term =
        binding_term_of(mem.weights_bytes + mem.scratch_bytes,
                        mem.activations_peak_bytes, mem.comm_buffers_bytes);
    for (const MemorySweepPoint& point : sweep.points) {
      mem.curve.push_back({point.time, static_mem + point.activation_bytes});
    }
    std::sort(mem.curve.begin(), mem.curve.end(),
              [](const MemoryCurvePoint& a, const MemoryCurvePoint& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.bytes > b.bytes;  // keep the max first at ties
              });
    mem.curve.erase(std::unique(mem.curve.begin(), mem.curve.end(),
                                [](const MemoryCurvePoint& a,
                                   const MemoryCurvePoint& b) {
                                  return a.time == b.time;
                                }),
                    mem.curve.end());
    report.memory.push_back(std::move(mem));

    // Back-fill the stage table's in-flight column from the same sweep.
    for (std::size_t j = 0; j < sweep.stages.size(); ++j) {
      report.stages[static_cast<std::size_t>(sweep.stages[j])].max_in_flight =
          sweep.stage_max_inflight[j];
    }
  }

  // --- Simulator cross-check -------------------------------------------
  if (options.run_simulation) {
    const SimulationResult sim =
        simulate_pattern(pattern, allocation, chain, platform,
                         {options.simulation_batches});
    report.simulated = true;
    report.simulated_period = sim.steady_period;
    report.period_delta_fraction = (sim.steady_period - T) / T;
  }
  return report;
}

void write_plan_report(json::Writer& w, const PlanReport& report) {
  w.begin_object();
  w.key("schema");
  w.value(kExplainSchema);
  w.key("planner");
  w.value(report.planner);
  w.key("period_seconds");
  w.value(report.period);
  w.key("phase1_period_seconds");
  w.value(report.phase1_period);
  w.key("num_stages");
  w.value(report.num_stages);
  w.key("gpus");
  w.value(report.gpus);

  w.key("stages");
  w.begin_array();
  for (const StageReport& row : report.stages) {
    w.begin_object();
    w.key("stage");
    w.value(row.stage);
    w.key("first_layer");
    w.value(row.first_layer);
    w.key("last_layer");
    w.value(row.last_layer);
    w.key("processor");
    w.value(row.processor);
    w.key("forward_seconds");
    w.value(row.forward_seconds);
    w.key("backward_seconds");
    w.value(row.backward_seconds);
    w.key("weight_bytes");
    w.value(row.weight_bytes);
    w.key("activation_bytes_per_batch");
    w.value(row.activation_bytes_per_batch);
    w.key("max_in_flight");
    w.value(row.max_in_flight);
    w.end_object();
  }
  w.end_array();

  w.key("resources");
  w.begin_array();
  for (const ResourceReport& row : report.resources) {
    w.begin_object();
    w.key("resource");
    w.value(row.resource.to_string());
    w.key("busy_seconds");
    w.value(row.busy_seconds);
    w.key("utilization");
    w.value(row.utilization);
    w.key("bubble_fraction");
    w.value(row.bubble_fraction);
    w.end_object();
  }
  w.end_array();

  w.key("memory");
  w.begin_array();
  for (const GpuMemoryReport& mem : report.memory) {
    w.begin_object();
    w.key("gpu");
    w.value(mem.gpu);
    w.key("weights_bytes");
    w.value(mem.weights_bytes);
    w.key("scratch_bytes");
    w.value(mem.scratch_bytes);
    w.key("comm_buffers_bytes");
    w.value(mem.comm_buffers_bytes);
    w.key("activations_peak_bytes");
    w.value(mem.activations_peak_bytes);
    w.key("peak_bytes");
    w.value(mem.peak_bytes);
    w.key("limit_bytes");
    w.value(mem.limit_bytes);
    w.key("headroom_bytes");
    w.value(mem.headroom_bytes);
    w.key("binding_term");
    w.value(to_string(mem.binding_term));
    w.key("curve");
    w.begin_array();
    for (const MemoryCurvePoint& point : mem.curve) {
      w.begin_object();
      w.key("time_seconds");
      w.value(point.time);
      w.key("bytes");
      w.value(point.bytes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("critical_resource");
  w.value(report.critical_resource.to_string());
  w.key("critical_utilization");
  w.value(report.critical_utilization);
  w.key("mean_gpu_utilization");
  w.value(report.mean_gpu_utilization);
  w.key("simulated");
  w.value(report.simulated);
  if (report.simulated) {
    w.key("simulated_period_seconds");
    w.value(report.simulated_period);
    w.key("period_delta_fraction");
    w.value(report.period_delta_fraction);
  }
  w.end_object();
}

std::string plan_report_to_json(const PlanReport& report) {
  json::Writer writer;
  write_plan_report(writer, report);
  return writer.str();
}

std::string plan_report_to_string(const PlanReport& report) {
  std::ostringstream os;
  os << "plan: " << report.planner << ", period "
     << fmt::seconds(report.period) << " (phase-1 "
     << fmt::seconds(report.phase1_period) << "), " << report.num_stages
     << " stage(s) on " << report.gpus << " GPU(s)\n";

  fmt::Table stages({"stage", "layers", "gpu", "uF", "uB", "W", "a/batch",
                     "in-flight"});
  for (const StageReport& row : report.stages) {
    stages.add_row({std::to_string(row.stage),
                    "[" + std::to_string(row.first_layer) + "," +
                        std::to_string(row.last_layer) + "]",
                    std::to_string(row.processor),
                    fmt::seconds(row.forward_seconds),
                    fmt::seconds(row.backward_seconds),
                    fmt::bytes(row.weight_bytes),
                    fmt::bytes(row.activation_bytes_per_batch),
                    std::to_string(row.max_in_flight)});
  }
  os << stages.to_string();

  os << "utilization over one period:\n";
  fmt::Table util({"resource", "busy", "utilization", "bubble"});
  for (const ResourceReport& row : report.resources) {
    util.add_row({row.resource.to_string(), fmt::seconds(row.busy_seconds),
                  fmt::fixed(row.utilization * 100.0, 1) + "%",
                  fmt::fixed(row.bubble_fraction * 100.0, 1) + "%"});
  }
  os << util.to_string();
  os << "critical resource: " << report.critical_resource.to_string() << " ("
     << fmt::fixed(report.critical_utilization * 100.0, 1) << "% busy)\n";

  os << "memory watermarks (exact, verifier sweep):\n";
  for (const GpuMemoryReport& mem : report.memory) {
    os << "  gpu" << mem.gpu << ": peak " << fmt::bytes(mem.peak_bytes)
       << " / " << fmt::bytes(mem.limit_bytes) << " (headroom "
       << fmt::bytes(mem.headroom_bytes) << ") = weights "
       << fmt::bytes(mem.weights_bytes);
    if (mem.scratch_bytes > 0.0) {
      os << " + scratch " << fmt::bytes(mem.scratch_bytes);
    }
    os << " + activations " << fmt::bytes(mem.activations_peak_bytes)
       << " + buffers " << fmt::bytes(mem.comm_buffers_bytes)
       << "  [binding: " << to_string(mem.binding_term) << "]\n";
  }

  if (report.simulated) {
    os << "simulated steady period: " << fmt::seconds(report.simulated_period)
       << " (delta " << fmt::fixed(report.period_delta_fraction * 100.0, 2)
       << "% vs analytic)\n";
  }
  return os.str();
}

ExplainSummary summarize(const PlanReport& report) {
  ExplainSummary summary;
  summary.period = report.period;
  summary.critical_resource = report.critical_resource.to_string();
  summary.critical_utilization = report.critical_utilization;
  summary.bubble_fraction = 1.0 - report.critical_utilization;
  summary.mean_gpu_utilization = report.mean_gpu_utilization;
  bool first = true;
  for (const GpuMemoryReport& mem : report.memory) {
    summary.memory_peak_bytes =
        std::max(summary.memory_peak_bytes, mem.peak_bytes);
    if (first || mem.headroom_bytes < summary.memory_headroom_bytes) {
      summary.memory_headroom_bytes = mem.headroom_bytes;
      summary.binding_gpu = mem.gpu;
      summary.binding_term = mem.binding_term;
      first = false;
    }
  }
  return summary;
}

ExplainSummary build_explain_summary(const Plan& plan, const Chain& chain,
                                     const Platform& platform) {
  PlanReportOptions options;
  options.run_simulation = false;
  return summarize(build_plan_report(plan, chain, platform, options));
}

ExplainSummary scale_summary(ExplainSummary summary, double time_unit,
                             double byte_unit) {
  summary.period *= time_unit;
  summary.memory_peak_bytes *= byte_unit;
  summary.memory_headroom_bytes *= byte_unit;
  return summary;
}

void publish_quality(const ExplainSummary& summary) {
  static obs::Gauge& utilization = obs::Registry::global().gauge(
      "madpipe_schedule_utilization",
      "Mean GPU utilization of the last explained plan");
  static obs::Gauge& headroom = obs::Registry::global().gauge(
      "madpipe_memory_headroom_bytes",
      "Min per-GPU memory headroom of the last explained plan");
  utilization.set(summary.mean_gpu_utilization);
  headroom.set(summary.memory_headroom_bytes);
}

}  // namespace madpipe::report
