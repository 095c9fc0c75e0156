// Machine-readable planner benchmark: times the MadPipe planner hot path on
// fixed paper-scale workloads (end-to-end plan_madpipe, phase 1 alone, and a
// single MadPipe-DP probe) and writes the numbers to BENCH_planner.json so
// the planner's perf trajectory can be tracked across PRs. Besides timings
// the records carry the achieved periods and an allocation fingerprint, so
// seed/fast-path equivalence can be checked by diffing two JSON files.
//
//   bench_planner [-o FILE] [--smoke] [--baseline FILE] [--min-seconds X]
//                 [--best-of N] [--trace-out FILE] [--metrics-out FILE]
//       (default output BENCH_planner.json; --smoke = 1 repeat per
//       workload). --baseline compares per-solve timings against a prior
//       BENCH_planner.json and records the ratios — the guard that keeping
//       obs::Span instrumentation permanently in the hot paths costs < 2%
//       when no sink is installed. --best-of N repeats each measurement
//       window N times and keeps the fastest (min-of-N is robust to
//       scheduler noise that swamps a single pass). The measured per-span
//       costs land in the "observability" block either way.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <algorithm>

#include "common.hpp"
#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/threading.hpp"

namespace {

using namespace madpipe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Chain resnet101_chain(int length) {
  models::NetworkConfig config;
  config.network = "resnet101";
  config.image_size = 1000;
  config.batch = 8;
  config.chain_length = length;
  return models::build_network(config);
}

/// Compact allocation fingerprint: "first-last@proc;..." in stage order.
std::string allocation_fingerprint(const Allocation& allocation) {
  std::string out;
  const Partitioning& parts = allocation.partitioning();
  for (int s = 0; s < parts.num_stages(); ++s) {
    if (!out.empty()) out += ';';
    out += std::to_string(parts.stage(s).first) + '-' +
           std::to_string(parts.stage(s).last) + '@' +
           std::to_string(allocation.processor_of(s));
  }
  return out;
}

struct WorkloadRecord {
  std::string name;
  long long repeats = 0;
  double wall_seconds = 0.0;
  double per_solve_seconds = 0.0;
  bool feasible = false;
  double period = 0.0;
  double phase1_period = 0.0;
  std::string allocation;
  long long dp_states = 0;
  long long spans = -1;  ///< spans emitted by one solve (-1 = not counted)
#if defined(MADPIPE_PLANNER_STATS)
  madpipe::PlannerStats stats;
#endif
};

/// per_solve_seconds by workload name from a prior BENCH_planner.json, for
/// the --baseline regression ratios. Missing file or fields → empty map.
std::map<std::string, double> load_baseline(const std::string& path) {
  std::map<std::string, double> baseline;
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "warning: cannot read baseline %s\n", path.c_str());
    return baseline;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok() || !parsed.value.is_object()) return baseline;
  const json::Value* workloads = parsed.value.find("workloads");
  if (workloads == nullptr || !workloads->is_array()) return baseline;
  for (const json::Value& record : workloads->items()) {
    if (!record.is_object()) continue;
    const json::Value* name = record.find("name");
    const json::Value* seconds = record.find("per_solve_seconds");
    if (name != nullptr && name->is_string() && seconds != nullptr &&
        seconds->is_number()) {
      baseline[name->as_string()] = seconds->as_number();
    }
  }
  return baseline;
}

void print_record(const WorkloadRecord& record) {
  std::printf("%-28s %9.3f ms/solve  %s", record.name.c_str(),
              record.per_solve_seconds * 1e3,
              record.feasible ? "feasible" : "infeasible");
  if (record.feasible) {
    std::printf("  period %.3f ms", record.period * 1e3);
  }
  if (record.dp_states > 0) {
    std::printf("  %lld dp states", record.dp_states);
  }
  std::printf("\n");
}

/// Measurement passes per workload; the record keeps the *fastest* pass
/// (min-of-N is robust to scheduler noise where a mean is not — see
/// --best-of).
int g_best_of = 1;

/// Run `body` repeatedly (at least once) until `min_seconds` elapse; repeat
/// that whole window `g_best_of` times and keep the fastest pass's timing
/// fields in `record`.
template <typename Body>
void time_workload(WorkloadRecord& record, double min_seconds,
                   const Body& body) {
  for (int pass = 0; pass < g_best_of; ++pass) {
    long long repeats = 0;
    const Clock::time_point start = Clock::now();
    do {
      body();
      ++repeats;
    } while (seconds_since(start) < min_seconds);
    const double wall = seconds_since(start);
    const double per_solve = wall / static_cast<double>(repeats);
    if (pass == 0 || per_solve < record.per_solve_seconds) {
      record.per_solve_seconds = per_solve;
      record.wall_seconds = wall;
      record.repeats = repeats;
    }
  }
}

/// One traced run of `body`: arms a throwaway sink, counts the spans the
/// solve emits, disarms. That count × the measured disabled-span cost is a
/// noise-free bound on what the permanent instrumentation costs a no-sink
/// solve (wall-clock A/B ratios swing ±10% on shared machines; this
/// doesn't). Returns -1 (skip) when a real --trace-out sink is armed —
/// draining would steal its events.
template <typename Body>
long long count_spans(const Body& body) {
  if (obs::trace_enabled()) return -1;
  obs::install_trace(1 << 16);
  body();
  const long long count = static_cast<long long>(obs::drain_trace().size());
  obs::uninstall_trace();
  return count;
}

WorkloadRecord bench_plan(const std::string& name, const Chain& chain,
                          const Platform& platform,
                          const MadPipeOptions& options, double min_seconds) {
  WorkloadRecord record;
  record.name = name;
  std::optional<Plan> last;
  time_workload(record, min_seconds,
                [&] { last = plan_madpipe(chain, platform, options); });
  record.spans =
      count_spans([&] { last = plan_madpipe(chain, platform, options); });
  if (last.has_value()) {
    record.feasible = true;
    record.period = last->period();
    record.phase1_period = last->phase1_period;
    record.allocation = allocation_fingerprint(last->allocation);
#if defined(MADPIPE_PLANNER_STATS)
    record.stats = last->stats;
    record.dp_states = last->stats.dp_states;
#endif
  }
  print_record(record);
  return record;
}

WorkloadRecord bench_phase1(const std::string& name, const Chain& chain,
                            const Platform& platform,
                            const Phase1Options& options, double min_seconds) {
  WorkloadRecord record;
  record.name = name;
  Phase1Result last;
  time_workload(record, min_seconds,
                [&] { last = madpipe_phase1(chain, platform, options); });
  record.spans =
      count_spans([&] { last = madpipe_phase1(chain, platform, options); });
  if (last.feasible()) {
    record.feasible = true;
    record.period = last.period;
    record.phase1_period = last.period;
    record.allocation = allocation_fingerprint(*last.allocation);
#if defined(MADPIPE_PLANNER_STATS)
    record.stats = last.stats;
    record.dp_states = last.stats.dp_states;
#endif
  }
  print_record(record);
  return record;
}

WorkloadRecord bench_dp_probe(const std::string& name, const Chain& chain,
                              const Platform& platform, Seconds target,
                              const MadPipeDPOptions& options,
                              double min_seconds) {
  WorkloadRecord record;
  record.name = name;
  MadPipeDPResult last;
  time_workload(record, min_seconds,
                [&] { last = madpipe_dp(chain, platform, target, options); });
  record.spans = count_spans(
      [&] { last = madpipe_dp(chain, platform, target, options); });
  record.dp_states = static_cast<long long>(last.states_visited);
  if (last.allocation.has_value()) {
    record.feasible = true;
    record.period = last.period;
    record.phase1_period = last.period;
    record.allocation = allocation_fingerprint(*last.allocation);
  }
#if defined(MADPIPE_PLANNER_STATS)
  record.stats = last.stats;
#endif
  print_record(record);
  return record;
}

/// The LLM-scale record (ISSUE 9): the DP must complete a ≥2000-layer
/// transformer preset at P = 64 within the state budget. One full-depth DP
/// probe demonstrates that; a coarsened end-to-end plan (one stage per GPU)
/// demonstrates the practical planning recipe at that depth; a serve
/// cold/hit pair on a transformer preset demonstrates the cache on LLM
/// profiles. Everything runs once — these are scale demonstrations, not
/// microbenchmarks (the full-depth probe alone is tens of seconds).
struct LlmScaleRecord {
  std::string network;
  int layers = 0;
  int gpus = 0;
  double memory_gb = 0.0;
  // Full-depth DP probe at the balanced target U(1,L)/P.
  double full_dp_probe_seconds = 0.0;
  long long full_dp_states = 0;
  bool full_feasible = false;
  double full_period = 0.0;
  bool state_budget_hit = false;
  // Coarsened end-to-end plan_madpipe (chain_length = gpus).
  int coarsened_layers = 0;
  double plan_seconds = 0.0;
  bool plan_feasible = false;
  double plan_period = 0.0;
  double speedup_vs_sequential = 0.0;  ///< period ratio, not wall clock
  // Serve cold/hit on a smaller transformer preset (paper-scale platform).
  std::string serve_network;
  double serve_cold_seconds = 0.0;
  double serve_hit_seconds = 0.0;
  double serve_hit_speedup = 0.0;
};

Chain transformer_chain(const std::string& preset, int chain_length) {
  models::NetworkConfig config;
  config.network = preset;
  config.batch = 8;
  config.chain_length = chain_length;
  return models::build_network(config);
}

LlmScaleRecord bench_llm_scale(const MadPipeOptions& plan_options) {
  LlmScaleRecord record;
  record.network = "llm-2k";
  record.gpus = 64;
  record.memory_gb = 300.0;
  const Platform platform{record.gpus,
                          record.memory_gb * GB, 12 * GB};

  // Full depth: 2050 linearized layers, one DP probe at the balanced
  // period. This is the packed-state scale test — it must finish feasible
  // with zero state-budget hits.
  {
    const Chain full = transformer_chain(record.network, 0);
    record.layers = full.length();
    const Seconds target =
        full.total_compute() / static_cast<double>(record.gpus);
    const Clock::time_point start = Clock::now();
    const MadPipeDPResult probe =
        madpipe_dp(full, platform, target, plan_options.phase1.dp);
    record.full_dp_probe_seconds = seconds_since(start);
    record.full_dp_states = static_cast<long long>(probe.states_visited);
    record.state_budget_hit = probe.state_budget_hit;
    if (probe.allocation.has_value()) {
      record.full_feasible = true;
      record.full_period = probe.period;
    }
    std::printf("llm_scale full depth: %d layers, P=%d: %s in %.2f s "
                "(%lld states%s)\n",
                record.layers, record.gpus,
                record.full_feasible ? "feasible" : "infeasible",
                record.full_dp_probe_seconds, record.full_dp_states,
                record.state_budget_hit ? ", BUDGET HIT" : "");
  }

  // Coarsened: the practical LLM recipe — coarsen to one stage per GPU,
  // then run the full planner end to end. The speedup is the sequential
  // period over the planned period (deterministic, not wall clock).
  {
    const Chain coarse = transformer_chain(record.network, record.gpus);
    record.coarsened_layers = coarse.length();
    const Clock::time_point start = Clock::now();
    const std::optional<Plan> plan =
        plan_madpipe(coarse, platform, plan_options);
    record.plan_seconds = seconds_since(start);
    if (plan.has_value()) {
      record.plan_feasible = true;
      record.plan_period = plan->period();
      record.speedup_vs_sequential =
          coarse.total_compute() / plan->period();
    }
    std::printf("llm_scale coarsened:  %d layers, P=%d: %s, speedup "
                "%.2fx, %.3f s wall\n",
                record.coarsened_layers, record.gpus,
                record.plan_feasible ? "feasible" : "infeasible",
                record.speedup_vs_sequential, record.plan_seconds);
  }

  // Serve a transformer preset: cold plan through the cache, then the same
  // request again as a hit.
  {
    record.serve_network = "gpt2-xl";
    const Chain chain = transformer_chain(record.serve_network, 0);
    const Platform p4{4, 16 * GB, 12 * GB};
    serve::PlanService service{serve::ServiceOptions{}};
    const serve::PlanRequest request{
        "llm_scale", chain, p4, serve::PlannerKind::MadPipe, MadPipeOptions{},
        0.0};
    const Clock::time_point cold_start = Clock::now();
    const serve::PlanResponse cold = service.plan(request);
    record.serve_cold_seconds = seconds_since(cold_start);
    const Clock::time_point hit_start = Clock::now();
    const serve::PlanResponse hit = service.plan(request);
    record.serve_hit_seconds = seconds_since(hit_start);
    if (cold.status == serve::ResponseStatus::Ok &&
        hit.status == serve::ResponseStatus::Ok &&
        record.serve_hit_seconds > 0.0) {
      record.serve_hit_speedup =
          record.serve_cold_seconds / record.serve_hit_seconds;
    }
    std::printf("llm_scale serve:      %s cold %.3f s, hit %.1f us "
                "(%.0fx)\n",
                record.serve_network.c_str(), record.serve_cold_seconds,
                record.serve_hit_seconds * 1e6, record.serve_hit_speedup);
  }
  return record;
}

void write_json(const std::string& path,
                const std::vector<WorkloadRecord>& records,
                const LlmScaleRecord& llm,
                const bench::SpanOverhead& overhead, bool trace_armed,
                const std::map<std::string, double>& baseline) {
  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("madpipe-bench-planner-v1");
  w.key("planner_stats_instrumented");
#if defined(MADPIPE_PLANNER_STATS)
  w.value(true);
#else
  w.value(false);
#endif
  w.key("observability");
  w.begin_object();
  w.key("span_overhead_disabled_ns"); w.value(overhead.disabled_ns);
  w.key("span_overhead_enabled_ns"); w.value(overhead.enabled_ns);
  w.key("trace_armed_during_timing"); w.value(trace_armed);
  if (!baseline.empty()) {
    double worst = 0.0;
    for (const WorkloadRecord& record : records) {
      const auto it = baseline.find(record.name);
      if (it == baseline.end() || it->second <= 0.0) continue;
      worst = std::max(worst, record.per_solve_seconds / it->second - 1.0);
    }
    w.key("max_regression_vs_baseline"); w.value(worst);
  }
  w.end_object();
  w.key("workloads");
  w.begin_array();
  for (const WorkloadRecord& record : records) {
    w.begin_object();
    w.key("name"); w.value(record.name);
    w.key("repeats"); w.value(record.repeats);
    w.key("wall_seconds"); w.value(record.wall_seconds);
    w.key("per_solve_seconds"); w.value(record.per_solve_seconds);
    w.key("feasible"); w.value(record.feasible);
    w.key("period"); w.value(record.period);
    w.key("phase1_period"); w.value(record.phase1_period);
    w.key("allocation"); w.value(record.allocation);
    w.key("dp_states"); w.value(record.dp_states);
    if (record.spans >= 0 && record.per_solve_seconds > 0.0) {
      w.key("spans_per_solve"); w.value(record.spans);
      // The provable no-sink instrumentation cost of this workload: spans
      // emitted x measured disabled-span cost, as a fraction of the solve.
      w.key("span_cost_fraction");
      w.value(static_cast<double>(record.spans) * overhead.disabled_ns *
              1e-9 / record.per_solve_seconds);
    }
    if (const auto it = baseline.find(record.name);
        it != baseline.end() && it->second > 0.0) {
      w.key("baseline_per_solve_seconds"); w.value(it->second);
      w.key("vs_baseline");
      w.value(record.per_solve_seconds / it->second);
    }
#if defined(MADPIPE_PLANNER_STATS)
    w.key("stats");
    record.stats.write_json(w);
#endif
    w.end_object();
  }
  w.end_array();
  w.key("llm_scale");
  w.begin_object();
  w.key("hardware_threads");
  w.value(static_cast<long long>(par::default_workers()));
  w.key("network"); w.value(llm.network);
  w.key("layers"); w.value(static_cast<long long>(llm.layers));
  w.key("gpus"); w.value(static_cast<long long>(llm.gpus));
  w.key("memory_gb"); w.value(llm.memory_gb);
  w.key("full_dp_probe_seconds"); w.value(llm.full_dp_probe_seconds);
  w.key("full_dp_states"); w.value(llm.full_dp_states);
  w.key("full_feasible"); w.value(llm.full_feasible);
  w.key("full_period"); w.value(llm.full_period);
  w.key("state_budget_hit"); w.value(llm.state_budget_hit);
  w.key("coarsened_layers");
  w.value(static_cast<long long>(llm.coarsened_layers));
  w.key("plan_seconds"); w.value(llm.plan_seconds);
  w.key("plan_feasible"); w.value(llm.plan_feasible);
  w.key("plan_period"); w.value(llm.plan_period);
  w.key("speedup_vs_sequential"); w.value(llm.speedup_vs_sequential);
  w.key("serve_network"); w.value(llm.serve_network);
  w.key("serve_cold_seconds"); w.value(llm.serve_cold_seconds);
  w.key("serve_hit_seconds"); w.value(llm.serve_hit_seconds);
  w.key("serve_hit_speedup"); w.value(llm.serve_hit_speedup);
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  std::printf("planner benchmark JSON -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_planner.json";
  std::string baseline_path;
  double min_seconds_arg = 1.0;
  bool smoke = false;
  bench::ObsSinkArgs sinks;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (sinks.parse(argc, argv, &i)) continue;
    if (arg == "-o" && i + 1 < argc) output = argv[++i];
    if (arg == "--baseline" && i + 1 < argc) baseline_path = argv[++i];
    if (arg == "--min-seconds" && i + 1 < argc)
      min_seconds_arg = std::atof(argv[++i]);
    if (arg == "--best-of" && i + 1 < argc)
      g_best_of = std::max(1, std::atoi(argv[++i]));
    if (arg == "--smoke") smoke = true;
  }
  const double min_seconds = smoke ? 0.0 : min_seconds_arg;

  // Span overhead first: it cycles the trace sink, which would clear any
  // events the workloads buffer.
  const bench::SpanOverhead overhead = bench::measure_span_overhead();
  std::printf("span overhead: %.2f ns disabled, %.1f ns enabled\n",
              overhead.disabled_ns, overhead.enabled_ns);
  sinks.install();

  // The CLI's planning configuration: paper grids, default phase-2 budgets.
  MadPipeOptions plan_options;
  plan_options.phase1.dp.grid = Discretization::paper();

  const Chain r101 = resnet101_chain(24);
  const Chain& r50 = bench::evaluation_chain("resnet50");
  const Platform p4{4, 8 * GB, 12 * GB};
  const Platform p8{8, 8 * GB, 12 * GB};

  std::vector<WorkloadRecord> records;
  records.push_back(
      bench_plan("plan_resnet50_p4_m8", r50, p4, plan_options, min_seconds));
  records.push_back(bench_plan("plan_resnet101_24_p4_m8", r101, p4,
                               plan_options, min_seconds));
  records.push_back(bench_plan("plan_resnet101_24_p8_m8", r101, p8,
                               plan_options, min_seconds));
  records.push_back(bench_plan("plan_resnet101_24_p8_m16", r101,
                               Platform{8, 16 * GB, 12 * GB}, plan_options,
                               min_seconds));
  records.push_back(bench_phase1("phase1_resnet101_24_p8_m8", r101, p8,
                                 plan_options.phase1, min_seconds));
  records.push_back(bench_dp_probe("dp_resnet101_24_p4_m8", r101, p4,
                                   r101.total_compute() / 4,
                                   plan_options.phase1.dp, min_seconds));
  const LlmScaleRecord llm = bench_llm_scale(plan_options);
  const std::map<std::string, double> baseline =
      baseline_path.empty() ? std::map<std::string, double>{}
                            : load_baseline(baseline_path);
  write_json(output, records, llm, overhead, obs::trace_enabled(),
             baseline);
  sinks.flush();
  return 0;
}
