// Seeded benchmark of the MadPipe planner stack: cold plans and TCP plan
// serving, timed end to end (untraced run) and layer by layer at the public
// calls (traced run).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--self-test]
//
// Workloads: plan_noncontig, plan_contig, serve_mix (see README.md). The last
// line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1); the line before it records the host, the build and the
// sample counts.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test compares them).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"plans_per_s", "1/s"},
    {"plan_s_p50", "s"},
    {"period_ratio_geomean", "ratio"},
    {"requests_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"madpipe.phase1_s", "s"},
    {"madpipe.dp_probes", "count"},
    {"madpipe.dp_states", "count"},
    {"madpipe.states_per_s", "1/s"},
    {"madpipe.memo_hit_ratio", "ratio"},
    {"madpipe.transition_hit_ratio", "ratio"},
    {"madpipe.spec_useful_ratio", "ratio"},
    {"madpipe.state_budget_hits", "count"},
    {"cyclic.phase2_s", "s"},
    {"cyclic.probes", "count"},
    {"cyclic.spec_probes", "count"},
    {"cyclic.spec_useful_ratio", "ratio"},
    {"cyclic.bb_nodes_at_period", "count"},
    {"cyclic.bb_nodes_at_lb", "count"},
    {"cyclic.bb_budget_hit_frac_at_lb", "ratio"},
    {"schedule.one_f_one_b_s", "s"},
    {"core.validate_s", "s"},
    {"models.build_chain_s", "s"},
    {"models.profile_parse_s", "s"},
    {"serve.parse_s", "s"},
    {"serve.canonicalize_s", "s"},
    {"serve.cache_find_s", "s"},
    {"serve.submit_hit_s", "s"},
    {"serve.response_json_s", "s"},
    {"serve.miss_queue_s", "s"},
    {"serve.miss_plan_s", "s"},
    {"serve.hit_s_p50", "s"},
    {"serve.hit_s_p99", "s"},
    {"serve.miss_s_p50", "s"},
    {"serve.hit_ratio", "ratio"},
    {"serve.coalesced", "count"},
    {"serve.evictions", "count"},
    {"serve.rejected", "count"},
    {"net.bytes_in_per_req", "bytes"},
    {"net.bytes_out_per_req", "bytes"},
    {"net.protocol_errors", "count"},
    {"net.shed", "count"},
    {"net.share_s", "s"},
    {"report.explain_s", "s"},
    {"trace_overhead_frac", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plan_noncontig|plan_contig|"
               "serve_mix --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE] [--self-test]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      args.self_test = true;
    } else if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return (args.workload == "plan_noncontig" || args.workload == "plan_contig" ||
          args.workload == "serve_mix") &&
         args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  SpanLog spans;
  RunResult result;
  try {
    if (args.workload == "serve_mix") {
      run_serve_workload(args, spans, result);
    } else {
      run_plan_workload(args, spans, result);
    }
  } catch (const std::exception& exception) {
    std::fprintf(stderr, "perfbench: %s\n", exception.what());
    return 1;
  }
  if (args.trace && !args.spans_out.empty() && !spans.write(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    return 1;
  }

  madpipe::json::Writer info;
  info.begin_object();
  info.key("workload"); info.value(args.workload);
  info.key("seed"); info.value(static_cast<long long>(args.seed));
  info.key("trace"); info.value(args.trace);
  info.key("hardware_threads");
  info.value(static_cast<long long>(std::thread::hardware_concurrency()));
  info.key("build_type"); info.value(PERFBENCH_BUILD_TYPE);
  for (const auto& [name, value] : result.info) {
    info.key(name);
    info.value(value);
  }
  info.end_object();
  std::printf("%s\n", info.str().c_str());

  madpipe::json::Writer out;
  out.begin_object();
  out.key("correct"); out.value(result.failed == 0);
  out.key("attempted"); out.value(result.attempted);
  out.key("failed"); out.value(result.failed);
  out.key("metrics");
  out.begin_object();
  // End-to-end metrics must all be measured and non-zero; a per-layer
  // metric of a layer the workload never reaches reads 0.
  bool complete = true;
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) {
    const auto it = result.metrics.find(def.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!args.trace && !(value > 0.0)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
      complete = false;
    }
    out.key(def.name);
    out.begin_object();
    out.key("value"); out.value(value);
    out.key("unit"); out.value(def.unit);
    out.end_object();
  }
  out.end_object();
  out.end_object();
  if (!complete) return 1;
  std::printf("%s\n", out.str().c_str());
  return 0;
}
