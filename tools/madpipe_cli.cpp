// madpipe — command-line front end to the library.
//
//   madpipe profile <network> [-o FILE] [--image N] [--batch N] [--length N]
//                   [--format text|json]
//       Generate a synthetic profile for resnet50 / resnet101 /
//       inception_v3 / densenet121, or an LLM-scale transformer preset
//       (gpt2-xl / gpt3-13b-shape / llm-2k), and write it to FILE (default
//       stdout). --format json writes the v2 JSON profile format instead of
//       v1 text (docs/PROFILE_FORMAT.md). --length defaults to the paper's
//       24 coarsened stages for the image networks and to the full
//       linearized stack for transformer presets.
//
//   madpipe validate <FILE...>
//       Check input files without running anything: v1 text and v2 JSON
//       profiles are deeply parsed, serve request documents (single object,
//       batch, or one-object-per-line JSONL) are parsed per request. Prints
//       one line per file; exits nonzero if any file fails.
//
//   madpipe plan <profile-file> [--planner NAME] [--gpus N] [--memory-gb X]
//                [--bandwidth-gbs X] [--json FILE] [--trace FILE]
//       Plan the profile on the platform. Planners: madpipe (default),
//       madpipe-contig, pipedream. --json dumps the full plan; --trace
//       writes a chrome://tracing timeline of six periods (one process per
//       GPU and per link).
//
//   madpipe simulate <profile-file> [--batches N] [plan options]
//       Plan, then execute the plan in the discrete-event simulator and
//       report measured throughput and memory peaks.
//
//   madpipe planner <profile-file> [--speculation W] [plan options]
//       Run the full MadPipe planner and print the hot-path counters: DP
//       states and memo/transition-cache behaviour, bisection probes
//       (speculative ones per phase, phase-2 probes cut short by the B&B
//       node budget), and per-phase wall time.
//
//   madpipe explain <profile-file> [--periods N] [--batches N]
//                   [--json FILE] [--timeline-out FILE] [plan options]
//       Plan the profile, then explain the resulting schedule: per-stage
//       u_F/u_B/W/ā tables, per-resource busy/bubble fractions with the
//       critical resource, the exact per-GPU memory watermark decomposed
//       into the §3 terms (weights / activations / comm buffers) with
//       headroom vs M, and the simulator cross-check. --json writes the
//       madpipe-explain-v1 document; --timeline-out writes an unrolled
//       Chrome trace with one process per GPU and per link (--periods
//       repetitions, default 6).
//
//   madpipe serve [--requests FILE] [-o FILE] [--workers N] [--queue N]
//                 [--shards N] [--cache-mb X] [--ttl-s X] [--deadline-ms X]
//                 [--repeat N] [--stats] [--stdin]
//       Serve planning requests through the cached, deadline-aware
//       PlanService. Batch mode reads one JSON request document (see
//       src/serve/protocol.hpp) from --requests (or stdin when the path is
//       "-") and writes the batch response document; --repeat resubmits the
//       batch N times so cache hits are observable in the stats block.
//       --stdin switches to a line loop: each input line is one request
//       document, each output line the matching response.
//
//   madpipe serve --listen HOST:PORT [--net-workers N] [--rate R]
//                 [--burst N] [--shed-depth N]
//       TCP mode: newline-delimited madpipe-serve-v1 requests over an epoll
//       event loop (one response line per request line, in order per
//       connection). Admission control sheds with `rejected` responses: a
//       per-connection token bucket (--rate tokens/s, --burst) and a
//       service-backlog depth limit (--shed-depth, default the queue
//       capacity). PORT 0 binds an ephemeral port (printed on stderr).
//       SIGINT/SIGTERM shut down gracefully: in-flight requests finish,
//       buffers flush, then the process exits.
//
//   madpipe serve ... [--admin HOST:PORT] [--slow-k N]
//       Live-telemetry admin endpoint (any serve mode): a read-only
//       HTTP/1.0 listener answering /metrics (Prometheus text of the live
//       registry), /healthz (ok, or 503 "draining" during shutdown),
//       /slow (madpipe-admin-v1 JSON: tail-sampled slow-request span
//       trees with trace ids and admission/queue/plan breakdown), and
//       /tracez (span rings as a Chrome trace). --admin also arms
//       tail-based sampling: the slowest --slow-k requests per 10 s
//       window plus every errored request keep their complete span trees
//       in bounded memory. PORT 0 binds an ephemeral port (printed on
//       stderr).
//
//   madpipe serve ... [--cache-save FILE] [--cache-load FILE]
//       Plan-cache persistence (any serve mode): --cache-load warms the
//       cache from a madpipe-cachesnap-v1 snapshot before serving;
//       --cache-save writes one on exit, so restarts serve their first
//       requests as verified cache hits instead of re-planning.
//
//   madpipe stats [FILE] [--buckets]
//       Render a --metrics-out JSON dump (madpipe-metrics-v1) as
//       Prometheus-style text, histograms as interpolated p50/p95/p99
//       estimates (pass --buckets for the raw cumulative buckets as well).
//       Without FILE, dump this process's own registry (mostly useful from
//       tests; a fresh CLI process has only empty metrics).
//
//   madpipe planner|explain|serve [--trace-out FILE] [--metrics-out FILE]
//       Observability sinks, available on the planning-pipeline
//       commands: --trace-out records obs::Span events and writes a Chrome
//       trace-event document on exit (open in chrome://tracing or
//       https://ui.perfetto.dev); --metrics-out writes the cumulative
//       metrics registry as JSON (render with `madpipe stats FILE`).
//
//   madpipe --version
//       Print the version and exit.
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "madpipe/planner.hpp"
#include "models/profile_io.hpp"
#include "models/transformer.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/tail_sampler.hpp"
#include "obs/trace.hpp"
#include "pipedream/pipedream.hpp"
#include "report/plan_report.hpp"
#include "report/timeline_export.hpp"
#include "serve/net/admin.hpp"
#include "serve/net/server.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_stats.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "sim/event_sim.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

using namespace madpipe;

namespace {

constexpr const char kVersion[] = "0.3.0";

struct Args {
  std::vector<std::string> positional;
  std::string planner = "madpipe";
  int gpus = 4;
  double memory_gb = 8.0;
  double bandwidth_gbs = 12.0;
  int batches = 64;
  int image = 1000;
  int batch = 8;
  int length = -1;  ///< -1 = unset: 24 for image networks, full for LLM presets
  std::string format = "text";  ///< profile output: v1 "text" or v2 "json"
  int speculation = 0;
  int periods = 6;  ///< steady periods the explain timeline unrolls
  std::string output;
  std::string json_path;
  std::string trace_path;
  std::string timeline_out;  ///< explain: unrolled schedule Chrome trace
  std::string trace_out;    ///< obs span trace (Chrome trace-event JSON)
  std::string metrics_out;  ///< obs registry dump (madpipe-metrics-v1 JSON)
  bool buckets = false;     ///< stats: raw histogram buckets too
  // serve
  std::string requests_path;
  int workers = 2;
  int queue = 64;
  int shards = 8;
  double cache_mb = 64.0;
  double ttl_s = 0.0;
  double deadline_ms = 0.0;
  int repeat = 1;
  bool serve_stats = false;
  bool stdin_loop = false;
  // serve --listen (TCP front-end) + cache persistence
  std::string listen;        ///< HOST:PORT; empty = no TCP front-end
  std::string cache_save;    ///< snapshot written on exit
  std::string cache_load;    ///< snapshot loaded (warm-up) at start
  int net_workers = 0;       ///< dispatch threads; 0 = hardware
  double rate = 0.0;         ///< per-connection tokens/s; 0 = unlimited
  double burst = 64.0;       ///< per-connection token bucket burst
  int shed_depth = 0;        ///< queue depth that sheds; 0 = queue capacity
  std::string admin;         ///< HOST:PORT; empty = no admin endpoint
  int slow_k = 8;            ///< tail sampler: slowest-k kept per window
};

[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: madpipe "
               "<profile|validate|plan|simulate|planner|explain|serve|stats> "
               "...\n"
               "  profile <network> [-o FILE] [--image N] [--batch N] "
               "[--length N] [--format text|json]\n"
               "  validate <FILE...>   check profiles (v1 text or v2 JSON) "
               "and serve request files\n"
               "  plan <profile> [--planner NAME] [--gpus N] [--memory-gb X]\n"
               "       [--bandwidth-gbs X] [--json FILE] [--trace FILE]\n"
               "  simulate <profile> [--batches N] [plan options]\n"
               "  planner <profile> [--speculation W] [plan options]\n"
               "  explain <profile> [--periods N] [--batches N] [--json FILE]"
               "\n"
               "          [--timeline-out FILE] [plan options]\n"
               "  serve [--requests FILE] [-o FILE] [--workers N] [--queue N]"
               "\n"
               "        [--shards N] [--cache-mb X] [--ttl-s X] "
               "[--deadline-ms X]\n"
               "        [--repeat N] [--stats] [--stdin]\n"
               "        [--listen HOST:PORT] [--net-workers N] [--rate R] "
               "[--burst N]\n"
               "        [--shed-depth N]\n"
               "        [--cache-save FILE] [--cache-load FILE]\n"
               "        [--admin HOST:PORT] [--slow-k N]\n"
               "  stats [FILE] [--buckets]   render a --metrics-out dump as "
               "Prometheus text\n"
               "                             (histograms as p50/p95/p99; "
               "--buckets for raw)\n"
               "  planner|explain|serve also accept "
               "[--trace-out FILE] [--metrics-out FILE]\n"
               "  --version\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    // Accept both `--opt value` and `--opt=value` (splitting rule in
    // util/cli.hpp).
    const cli::OptionArg option = cli::split_option(argv[i]);
    const std::string& arg = option.name;
    const auto next_value = [&]() -> std::string {
      std::optional<std::string> value = cli::take_value(option, argc, argv, &i);
      if (!value.has_value()) usage(("missing value for " + arg).c_str());
      return *value;
    };
    if (arg == "--planner") {
      args.planner = next_value();
    } else if (arg == "--gpus") {
      args.gpus = std::atoi(next_value().c_str());
    } else if (arg == "--memory-gb") {
      args.memory_gb = std::atof(next_value().c_str());
    } else if (arg == "--bandwidth-gbs") {
      args.bandwidth_gbs = std::atof(next_value().c_str());
    } else if (arg == "--batches") {
      args.batches = std::atoi(next_value().c_str());
    } else if (arg == "--image") {
      args.image = std::atoi(next_value().c_str());
    } else if (arg == "--batch") {
      args.batch = std::atoi(next_value().c_str());
    } else if (arg == "--length") {
      args.length = std::atoi(next_value().c_str());
    } else if (arg == "--format") {
      args.format = next_value();
    } else if (arg == "--periods") {
      args.periods = std::atoi(next_value().c_str());
    } else if (arg == "--speculation") {
      args.speculation = std::atoi(next_value().c_str());
    } else if (arg == "--requests") {
      args.requests_path = next_value();
    } else if (arg == "--workers") {
      args.workers = std::atoi(next_value().c_str());
    } else if (arg == "--queue") {
      args.queue = std::atoi(next_value().c_str());
    } else if (arg == "--shards") {
      args.shards = std::atoi(next_value().c_str());
    } else if (arg == "--cache-mb") {
      args.cache_mb = std::atof(next_value().c_str());
    } else if (arg == "--ttl-s") {
      args.ttl_s = std::atof(next_value().c_str());
    } else if (arg == "--deadline-ms") {
      args.deadline_ms = std::atof(next_value().c_str());
    } else if (arg == "--repeat") {
      args.repeat = std::atoi(next_value().c_str());
    } else if (arg == "--stats") {
      args.serve_stats = true;
    } else if (arg == "--stdin") {
      args.stdin_loop = true;
    } else if (arg == "--listen") {
      args.listen = next_value();
    } else if (arg == "--cache-save") {
      args.cache_save = next_value();
    } else if (arg == "--cache-load") {
      args.cache_load = next_value();
    } else if (arg == "--net-workers") {
      args.net_workers = std::atoi(next_value().c_str());
    } else if (arg == "--rate") {
      args.rate = std::atof(next_value().c_str());
    } else if (arg == "--burst") {
      args.burst = std::atof(next_value().c_str());
    } else if (arg == "--shed-depth") {
      args.shed_depth = std::atoi(next_value().c_str());
    } else if (arg == "--admin") {
      args.admin = next_value();
    } else if (arg == "--slow-k") {
      args.slow_k = std::atoi(next_value().c_str());
    } else if (arg == "--buckets") {
      args.buckets = true;
    } else if (arg == "-o" || arg == "--output") {
      args.output = next_value();
    } else if (arg == "--json") {
      args.json_path = next_value();
    } else if (arg == "--trace") {
      args.trace_path = next_value();
    } else if (arg == "--timeline-out") {
      args.timeline_out = next_value();
    } else if (arg == "--trace-out") {
      args.trace_out = next_value();
    } else if (arg == "--metrics-out") {
      args.metrics_out = next_value();
    } else if (!arg.empty() && arg[0] == '-') {
      usage(("unknown option " + arg).c_str());
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << content;
}

/// Observability sinks for the planner/explain/serve commands: arms span
/// tracing when --trace-out was given, and on destruction writes the Chrome
/// trace and/or the metrics-registry JSON dump.
class ObsSinks {
 public:
  explicit ObsSinks(const Args& args)
      : trace_path_(args.trace_out), metrics_path_(args.metrics_out) {
    if (!trace_path_.empty()) obs::install_trace();
  }
  ~ObsSinks() {
    if (!trace_path_.empty()) {
      obs::uninstall_trace();
      write_file(trace_path_, obs::trace_to_chrome_json());
      std::fprintf(stderr,
                   "trace -> %s (open in chrome://tracing or Perfetto)\n",
                   trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      write_file(metrics_path_, obs::Registry::global().json());
      std::fprintf(stderr, "metrics -> %s (render: madpipe stats %s)\n",
                   metrics_path_.c_str(), metrics_path_.c_str());
    }
  }

  ObsSinks(const ObsSinks&) = delete;
  ObsSinks& operator=(const ObsSinks&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

int cmd_profile(const Args& args) {
  if (args.positional.empty()) usage("profile needs a network name");
  models::NetworkConfig config;
  config.network = args.positional[0];
  config.image_size = args.image;
  config.batch = args.batch;
  // Default chain length: the paper's 24 coarsened stages for the image
  // networks, but the full linearized stack for transformer presets —
  // coarsening an LLM profile only makes sense when asked for explicitly.
  config.chain_length = args.length >= 0
                            ? args.length
                            : (models::is_transformer_preset(config.network)
                                   ? 0
                                   : 24);
  const Chain chain = models::build_network(config);
  if (args.format != "text" && args.format != "json") {
    usage("--format must be text or json");
  }
  const std::string text = args.format == "json"
                               ? models::profile_to_json_string(chain)
                               : models::profile_to_string(chain);
  if (args.output.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    write_file(args.output, text);
    std::printf("wrote %s (%d layers)\n", args.output.c_str(), chain.length());
  }
  return 0;
}

/// One `madpipe validate` file outcome.
struct ValidateReport {
  bool ok = true;
  std::string kind;   ///< what the file validated as ("" when !ok)
  std::string error;  ///< first failure, empty when ok
};

char first_significant_byte(const std::string& text) {
  for (const char c : text) {
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return c;
  }
  return '\0';
}

ValidateReport validate_profile(const std::string& text) {
  ValidateReport report;
  const models::ProfileParseResult parsed =
      models::try_profile_from_string(text);
  if (!parsed.ok()) {
    report.ok = false;
    report.error = parsed.error;
    return report;
  }
  report.kind = (first_significant_byte(text) == '{' ? "madpipe-profile-v2, "
                                                     : "madpipe-profile-v1, ") +
                std::to_string(parsed.chain->length()) + " layers";
  return report;
}

ValidateReport validate_serve_document(const std::string& text) {
  ValidateReport report;
  const serve::BatchParse batch = serve::parse_requests(text);
  if (!batch.ok()) {
    report.ok = false;
    report.error = batch.error;
    return report;
  }
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const serve::RequestParse& request = batch.requests[i];
    if (request.ok()) continue;
    report.ok = false;
    report.error = "request " + std::to_string(i + 1) +
                   (request.id.empty() ? "" : " (id " + request.id + ")") +
                   ": " + request.error;
    return report;
  }
  report.kind = "serve requests, " + std::to_string(batch.requests.size());
  return report;
}

/// Validate one document: a schema-tagged v2 profile is deeply parsed;
/// schema-less objects/arrays are serve request documents; JSONL (one object
/// per line, the serve --stdin framing) validates line by line; anything
/// non-JSON is a v1 text profile.
ValidateReport validate_document(const std::string& text) {
  const char first = first_significant_byte(text);
  if (first != '{' && first != '[') return validate_profile(text);

  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    // Not one JSON document — maybe JSONL: every non-blank line an object.
    std::vector<std::string> lines;
    std::size_t start = 0;
    bool jsonl = true;
    while (start <= text.size()) {
      const std::size_t end = text.find('\n', start);
      const std::string line =
          text.substr(start, end == std::string::npos ? end : end - start);
      if (first_significant_byte(line) != '\0') {
        if (first_significant_byte(line) != '{') jsonl = false;
        lines.push_back(line);
      }
      if (end == std::string::npos) break;
      start = end + 1;
    }
    if (!jsonl || lines.size() < 2) {
      ValidateReport report;
      report.ok = false;
      report.error = "invalid JSON: " + parsed.error;
      return report;
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      ValidateReport line_report = validate_document(lines[i]);
      if (line_report.ok) continue;
      line_report.error =
          "line " + std::to_string(i + 1) + ": " + line_report.error;
      return line_report;
    }
    ValidateReport report;
    report.kind = "serve request lines, " + std::to_string(lines.size());
    return report;
  }

  const json::Value& root = parsed.value;
  if (root.is_object()) {
    if (const json::Value* schema = root.find("schema");
        schema != nullptr && schema->is_string()) {
      const std::string& name = schema->as_string();
      if (name == "madpipe-profile-v2") return validate_profile(text);
      // Other schema-tagged documents (explain dumps, metrics dumps) are
      // outputs, not inputs — well-formed JSON is all we ask.
      ValidateReport report;
      report.kind = name + " (well-formed JSON, not deeply checked)";
      return report;
    }
    if (root.find("traceEvents") != nullptr) {
      // Chrome trace-event export (timeline/--trace-out output).
      ValidateReport report;
      report.kind = "chrome trace (well-formed JSON, not deeply checked)";
      return report;
    }
  }
  return validate_serve_document(text);
}

int cmd_validate(const Args& args) {
  if (args.positional.empty()) usage("validate needs at least one file");
  int failures = 0;
  for (const std::string& path : args.positional) {
    std::ifstream in(path);
    if (!in.good()) {
      std::printf("%s: error: cannot read file\n", path.c_str());
      ++failures;
      continue;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const ValidateReport report = validate_document(text);
    if (report.ok) {
      std::printf("%s: ok (%s)\n", path.c_str(), report.kind.c_str());
    } else {
      std::printf("%s: error: %s\n", path.c_str(), report.error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

std::optional<Plan> run_planner(const Args& args, const Chain& chain,
                                const Platform& platform) {
  if (args.planner == "madpipe" || args.planner == "madpipe-contig") {
    MadPipeOptions options;
    options.phase1.dp.grid = Discretization::paper();
    options.phase1.dp.allow_special = args.planner != "madpipe-contig";
    return plan_madpipe(chain, platform, options);
  }
  if (args.planner == "pipedream") return plan_pipedream(chain, platform);
  usage(("unknown planner " + args.planner).c_str());
}

int cmd_plan(const Args& args, bool simulate) {
  if (args.positional.empty()) usage("plan needs a profile file");
  const Chain chain = models::load_profile(args.positional[0]);
  const Platform platform{args.gpus, args.memory_gb * GB,
                          args.bandwidth_gbs * GB};
  platform.validate();

  const std::optional<Plan> plan = run_planner(args, chain, platform);
  if (!plan) {
    std::printf("infeasible: no allocation fits %d GPUs with %s each\n",
                args.gpus, fmt::bytes(platform.memory_per_processor).c_str());
    return 1;
  }
  std::printf("%s", plan_to_string(*plan, chain, platform).c_str());
  const auto check =
      validate_pattern(plan->pattern, plan->allocation, chain, platform);
  std::printf("verifier: %s\n", check.valid ? "valid" : "INVALID");

  if (!args.json_path.empty()) {
    write_file(args.json_path, plan_to_json(*plan, chain, platform));
    std::printf("plan JSON -> %s\n", args.json_path.c_str());
  }
  if (!args.trace_path.empty()) {
    write_file(args.trace_path,
               report::timeline_to_chrome_json(plan->pattern,
                                               plan->allocation));
    std::printf("chrome trace -> %s (open in chrome://tracing)\n",
                args.trace_path.c_str());
  }
  if (simulate) {
    const auto sim = simulate_pattern(plan->pattern, plan->allocation, chain,
                                      platform, {args.batches});
    std::printf("simulated %d batches: steady period %s, makespan %s\n",
                args.batches, fmt::seconds(sim.steady_period).c_str(),
                fmt::seconds(sim.makespan).c_str());
    for (std::size_t p = 0; p < sim.processor_memory_peak.size(); ++p) {
      std::printf("  gpu%zu peak %s\n", p,
                  fmt::bytes(sim.processor_memory_peak[p]).c_str());
    }
  }
  return 0;
}

void print_counter_row(obs::Sum, const char* name, long long value) {
  std::printf("  %-26s %lld\n", name, value);
}
void print_counter_row(obs::Max, const char* name, double value) {
  std::printf("  %-26s %.3f\n", name, value);
}
void print_counter_row(obs::Wall, const char* name, double value) {
  std::printf("  %-26s %s\n", name, fmt::seconds(value).c_str());
}

int cmd_planner(const Args& args) {
  if (args.positional.empty()) usage("planner needs a profile file");
  const ObsSinks sinks(args);
  const Chain chain = models::load_profile(args.positional[0]);
  const Platform platform{args.gpus, args.memory_gb * GB,
                          args.bandwidth_gbs * GB};
  platform.validate();

  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::paper();
  options.phase1.speculation = args.speculation;
  options.phase2.speculation = args.speculation;
  const std::optional<Plan> plan = plan_madpipe(chain, platform, options);
  if (!plan) {
    std::printf("infeasible: no allocation fits %d GPUs with %s each\n",
                args.gpus, fmt::bytes(platform.memory_per_processor).c_str());
    return 1;
  }
  std::printf("%s", plan_to_string(*plan, chain, platform).c_str());

  // One row per counter-table row, then the two derived rates.
  const PlannerStats& stats = plan->stats;
  std::printf("planner counters:\n");
#define MADPIPE_PLANNER_ROW(kind, field, metric, help) \
  print_counter_row(obs::kind{}, #field, stats.field);
  MADPIPE_PLANNER_STATS(MADPIPE_PLANNER_ROW)
#undef MADPIPE_PLANNER_ROW
  std::printf("  %-26s %.0f\n", "states/s",
              stats.phase1_wall_seconds > 0.0
                  ? static_cast<double>(stats.dp_states) /
                        stats.phase1_wall_seconds
                  : 0.0);
  std::printf("  %-26s %.1f%%\n", "transition hit",
              stats.transition_lookups > 0
                  ? 100.0 * static_cast<double>(stats.transition_hits) /
                        static_cast<double>(stats.transition_lookups)
                  : 0.0);
  return 0;
}

int cmd_explain(const Args& args) {
  if (args.positional.empty()) usage("explain needs a profile file");
  if (args.periods < 1) usage("--periods must be >= 1");
  const ObsSinks sinks(args);
  const Chain chain = models::load_profile(args.positional[0]);
  const Platform platform{args.gpus, args.memory_gb * GB,
                          args.bandwidth_gbs * GB};
  platform.validate();

  const std::optional<Plan> plan = run_planner(args, chain, platform);
  if (!plan) {
    std::printf("infeasible: no allocation fits %d GPUs with %s each\n",
                args.gpus, fmt::bytes(platform.memory_per_processor).c_str());
    return 1;
  }

  report::PlanReportOptions options;
  options.simulation_batches = args.batches;
  const report::PlanReport rep =
      report::build_plan_report(*plan, chain, platform, options);
  const report::ExplainSummary summary = report::summarize(rep);
  report::publish_quality(summary);
  std::printf("%s", report::plan_report_to_string(rep).c_str());

  if (!args.json_path.empty()) {
    write_file(args.json_path, report::plan_report_to_json(rep));
    std::printf("explain JSON -> %s\n", args.json_path.c_str());
  }
  if (!args.timeline_out.empty()) {
    write_file(args.timeline_out,
               report::timeline_to_chrome_json(plan->pattern, plan->allocation,
                                               {args.periods}));
    std::printf("timeline -> %s (%d periods; open in chrome://tracing)\n",
                args.timeline_out.c_str(), args.periods);
  }
  return 0;
}

serve::ServiceOptions serve_options(const Args& args) {
  serve::ServiceOptions options;
  if (args.workers < 0) usage("--workers must be >= 0");
  if (args.queue < 1) usage("--queue must be >= 1");
  if (args.shards < 1) usage("--shards must be >= 1");
  options.workers = static_cast<std::size_t>(args.workers);
  options.queue_capacity = static_cast<std::size_t>(args.queue);
  options.cache.shards = static_cast<std::size_t>(args.shards);
  options.cache.byte_budget = static_cast<std::size_t>(args.cache_mb * MB);
  options.cache.ttl_seconds = args.ttl_s;
  options.default_deadline_seconds = args.deadline_ms * 1e-3;
  return options;
}

/// Parse one request document, run it through the service, return the
/// responses in request order (parse failures become error responses).
std::vector<serve::PlanResponse> serve_document(serve::PlanService& service,
                                                const std::string& text,
                                                std::string* document_error) {
  std::vector<serve::PlanResponse> responses;
  serve::BatchParse batch = serve::parse_requests(text);
  if (!batch.ok()) {
    *document_error = batch.error;
    return responses;
  }
  std::vector<std::optional<std::future<serve::PlanResponse>>> futures;
  futures.reserve(batch.requests.size());
  for (serve::RequestParse& request : batch.requests) {
    if (request.ok()) {
      futures.push_back(service.submit(std::move(*request.request)));
    } else {
      futures.push_back(std::nullopt);
    }
  }
  responses.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    responses.push_back(futures[i].has_value()
                            ? futures[i]->get()
                            : serve::error_response(batch.requests[i].id,
                                                    batch.requests[i].error));
  }
  return responses;
}

/// SIGINT/SIGTERM → graceful-shutdown flag for `serve --listen`.
std::atomic<bool> g_serve_interrupted{false};

void serve_signal_handler(int) { g_serve_interrupted.store(true); }

/// Load a --cache-load snapshot; a bad or missing file means a cold start,
/// not a dead server (warm-up is an optimization, never a requirement).
void serve_cache_load(serve::PlanService& service, const std::string& path) {
  if (path.empty()) return;
  const serve::SnapshotLoadResult result =
      serve::load_cache_snapshot(service.cache(), path);
  if (!result.ok) {
    std::fprintf(stderr, "warning: cache snapshot %s not loaded: %s\n",
                 path.c_str(), result.error.c_str());
    return;
  }
  service.mirror_cache();
  std::fprintf(stderr, "cache warm-up: %zu entries loaded from %s",
               result.loaded, path.c_str());
  if (result.rejected > 0) {
    std::fprintf(stderr,
                 " (%zu rejected: key/fingerprint mismatch or a cache-key "
                 "prefix other than this build's)",
                 result.rejected);
  }
  std::fprintf(stderr, "\n");
}

/// Write the --cache-save snapshot on the way out (any serve mode).
int serve_cache_save(serve::PlanService& service, const std::string& path) {
  if (path.empty()) return 0;
  const serve::SnapshotSaveResult result =
      serve::save_cache_snapshot(service.cache(), path);
  if (!result.ok) {
    std::fprintf(stderr, "error: cache snapshot not saved: %s\n",
                 result.error.c_str());
    return 1;
  }
  std::fprintf(stderr, "cache snapshot: %zu entries (%zu bytes) -> %s\n",
               result.entries, result.bytes, path.c_str());
  return 0;
}

/// Start the --admin telemetry endpoint (any serve mode); nullptr when the
/// flag was not given. `draining` feeds /healthz and must be thread-safe.
std::unique_ptr<serve::net::AdminServer> start_admin(
    const Args& args, std::function<bool()> draining) {
  if (args.admin.empty()) return nullptr;
  const auto host_port = net::parse_host_port(args.admin);
  if (!host_port.has_value()) usage("--admin expects HOST:PORT");
  serve::net::AdminServerOptions options;
  options.host = host_port->first;
  options.port = host_port->second;
  options.draining = std::move(draining);
  auto admin = std::make_unique<serve::net::AdminServer>(options);
  std::fprintf(stderr,
               "madpipe serve: admin endpoint on %s:%u "
               "(/metrics /healthz /slow /tracez)\n",
               options.host.c_str(), admin->port());
  return admin;
}

int cmd_serve_listen(const Args& args, serve::PlanService& service) {
  const auto host_port = net::parse_host_port(args.listen);
  if (!host_port.has_value()) usage("--listen expects HOST:PORT");
  serve::net::NetServerOptions options;
  options.host = host_port->first;
  options.port = host_port->second;
  if (args.net_workers < 0) usage("--net-workers must be >= 0");
  options.dispatch_workers = static_cast<std::size_t>(args.net_workers);
  if (args.rate < 0.0) usage("--rate must be >= 0");
  options.tokens_per_second = args.rate;
  if (args.burst < 1.0) usage("--burst must be >= 1");
  options.token_burst = args.burst;
  if (args.shed_depth < 0) usage("--shed-depth must be >= 0");
  options.shed_queue_depth = static_cast<std::size_t>(args.shed_depth);

  serve::net::NetServer server(service, options);
  std::fprintf(stderr, "madpipe serve: listening on %s:%u\n",
               options.host.c_str(), server.port());
  // The admin endpoint outlives the serve loop but not `server`: its
  // /healthz probe flips to draining the moment the shutdown signal lands,
  // before the front-end has finished flushing in-flight responses.
  const auto admin = start_admin(args, [&server] {
    return g_serve_interrupted.load() || server.draining();
  });

  g_serve_interrupted.store(false);
  struct sigaction action {};
  action.sa_handler = serve_signal_handler;
  struct sigaction old_int {}, old_term {};
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);
  while (!g_serve_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);

  std::fprintf(stderr, "madpipe serve: shutting down\n");
  server.stop();
  const serve::net::NetServerStats stats = server.stats();
  std::fprintf(stderr,
               "madpipe serve: %lld connections, %lld frames, %lld responses,"
               " %lld shed (rate %lld, depth %lld), %lld protocol errors\n",
               stats.accepted, stats.frames, stats.responses,
               stats.shed_rate + stats.shed_depth, stats.shed_rate,
               stats.shed_depth, stats.protocol_errors);
  return 0;
}

int cmd_serve(const Args& args) {
  const ObsSinks sinks(args);
  if (!args.admin.empty()) {
    // Arm tail sampling before the first request so every span tree is
    // complete. Sampling must never change planning results — the loopback
    // tests assert bit-identical plans with it armed vs disarmed.
    if (args.slow_k < 1) usage("--slow-k must be >= 1");
    obs::TailSamplerOptions tail;
    tail.keep_slowest = static_cast<std::size_t>(args.slow_k);
    obs::arm_tail_sampling(tail);
    // /tracez drains the per-thread rings; arm them too unless --trace-out
    // already did (the rings keep the newest events, so a scrape sees the
    // recent span window).
    if (args.trace_out.empty()) obs::install_trace();
  }
  serve::PlanService service(serve_options(args));
  serve_cache_load(service, args.cache_load);

  if (!args.listen.empty()) {
    const int status = cmd_serve_listen(args, service);
    const int save_status = serve_cache_save(service, args.cache_save);
    return status != 0 ? status : save_status;
  }

  // Batch / stdin modes still answer --admin scrapes while they run (no
  // drain probe: these modes exit when their input does).
  const auto admin = start_admin(args, {});

  if (args.stdin_loop) {
    // Line loop: one request document in, one response document out.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      std::string document_error;
      const std::vector<serve::PlanResponse> responses =
          serve_document(service, line, &document_error);
      if (!document_error.empty()) {
        std::printf("%s\n",
                    serve::response_to_json(
                        serve::error_response("", document_error))
                        .c_str());
      } else if (responses.size() == 1) {
        std::printf("%s\n",
                    serve::response_to_json(responses[0], args.serve_stats)
                        .c_str());
      } else {
        std::printf("%s\n",
                    serve::batch_to_json(responses, service.stats(),
                                         args.serve_stats)
                        .c_str());
      }
      std::fflush(stdout);
    }
    return serve_cache_save(service, args.cache_save);
  }

  std::string requests_path = args.requests_path;
  if (requests_path.empty() && !args.positional.empty())
    requests_path = args.positional[0];
  if (requests_path.empty())
    usage("serve needs --requests FILE (or \"-\" for stdin), or --stdin");
  std::string text;
  if (requests_path == "-") {
    text.assign(std::istreambuf_iterator<char>(std::cin),
                std::istreambuf_iterator<char>());
  } else {
    std::ifstream in(requests_path);
    if (!in.good()) {
      std::fprintf(stderr, "error: cannot read %s\n", requests_path.c_str());
      return 1;
    }
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }

  if (args.repeat < 1) usage("--repeat must be >= 1");
  std::vector<serve::PlanResponse> responses;
  for (int round = 0; round < args.repeat; ++round) {
    std::string document_error;
    responses = serve_document(service, text, &document_error);
    if (!document_error.empty()) {
      std::fprintf(stderr, "error: %s\n", document_error.c_str());
      return 1;
    }
  }
  const std::string output =
      serve::batch_to_json(responses, service.stats(), args.serve_stats);
  if (args.output.empty()) {
    std::printf("%s\n", output.c_str());
  } else {
    write_file(args.output, output);
    std::fprintf(stderr, "wrote %s (%zu responses)\n", args.output.c_str(),
                 responses.size());
  }
  return serve_cache_save(service, args.cache_save);
}

std::string stats_format_double(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

/// Render one madpipe-metrics-v1 dump (see obs::Registry::write_json) as
/// Prometheus-style text. Histograms print interpolated p50/p95/p99
/// estimates (obs::histogram_quantile); `buckets` adds the raw cumulative
/// bucket lines Registry::text() produces.
int render_metrics_dump(const json::Value& root, bool buckets_too) {
  if (!root.is_object()) {
    std::fprintf(stderr, "error: metrics dump must be a JSON object\n");
    return 1;
  }
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != obs::kMetricsSchema) {
    std::fprintf(stderr, "error: expected schema \"%s\"\n",
                 obs::kMetricsSchema);
    return 1;
  }
  const auto help_of = [](const json::Value& entry) -> std::string {
    const json::Value* help = entry.find("help");
    return help != nullptr && help->is_string() ? help->as_string() : "";
  };
  const auto name_of = [](const json::Value& entry) -> std::string {
    const json::Value* name = entry.find("name");
    return name != nullptr && name->is_string() ? name->as_string() : "";
  };
  std::string out;
  const auto entries_of = [&](const char* key) {
    const json::Value* list = root.find(key);
    return list != nullptr && list->is_array() ? &list->items() : nullptr;
  };
  if (const auto* counters = entries_of("counters")) {
    for (const json::Value& entry : *counters) {
      const std::string name = name_of(entry);
      const json::Value* value = entry.find("value");
      if (name.empty() || value == nullptr || !value->is_number()) continue;
      if (!help_of(entry).empty())
        out += "# HELP " + name + " " + help_of(entry) + "\n";
      out += "# TYPE " + name + " counter\n";
      out += name + " " + stats_format_double(value->as_number()) + "\n";
    }
  }
  if (const auto* gauges = entries_of("gauges")) {
    for (const json::Value& entry : *gauges) {
      const std::string name = name_of(entry);
      const json::Value* value = entry.find("value");
      if (name.empty() || value == nullptr || !value->is_number()) continue;
      if (!help_of(entry).empty())
        out += "# HELP " + name + " " + help_of(entry) + "\n";
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + stats_format_double(value->as_number()) + "\n";
    }
  }
  if (const auto* histograms = entries_of("histograms")) {
    for (const json::Value& entry : *histograms) {
      const std::string name = name_of(entry);
      const json::Value* bounds = entry.find("bounds");
      const json::Value* buckets = entry.find("bucket_counts");
      const json::Value* sum = entry.find("sum");
      const json::Value* count = entry.find("count");
      if (name.empty() || bounds == nullptr || !bounds->is_array() ||
          buckets == nullptr || !buckets->is_array() || sum == nullptr ||
          count == nullptr ||
          buckets->items().size() != bounds->items().size() + 1) {
        continue;
      }
      if (!help_of(entry).empty())
        out += "# HELP " + name + " " + help_of(entry) + "\n";
      out += "# TYPE " + name + " histogram\n";
      std::vector<double> bound_values;
      std::vector<long long> bucket_counts;
      bound_values.reserve(bounds->items().size());
      bucket_counts.reserve(buckets->items().size());
      for (const json::Value& b : bounds->items()) {
        bound_values.push_back(b.as_number());
      }
      for (const json::Value& b : buckets->items()) {
        bucket_counts.push_back(static_cast<long long>(b.as_number()));
      }
      for (const auto& [label, q] :
           {std::pair<const char*, double>{"p50", 0.50},
            {"p95", 0.95},
            {"p99", 0.99}}) {
        out += name + "_" + label + " " +
               stats_format_double(
                   obs::histogram_quantile(bound_values, bucket_counts, q)) +
               "\n";
      }
      if (buckets_too) {
        double cumulative = 0;
        for (std::size_t i = 0; i < bounds->items().size(); ++i) {
          cumulative += buckets->items()[i].as_number();
          out += name + "_bucket{le=\"" +
                 stats_format_double(bounds->items()[i].as_number()) + "\"} " +
                 stats_format_double(cumulative) + "\n";
        }
        cumulative += buckets->items().back().as_number();
        out += name + "_bucket{le=\"+Inf\"} " +
               stats_format_double(cumulative) + "\n";
      }
      out += name + "_sum " + stats_format_double(sum->as_number()) + "\n";
      out += name + "_count " + stats_format_double(count->as_number()) + "\n";
    }
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional.empty()) {
    // No dump file: this process's own registry (empty metrics included, so
    // the output shape is visible even in a fresh process), routed through
    // the same renderer as dump files so quantiles/--buckets behave alike.
    const json::ParseResult parsed =
        json::parse(obs::Registry::global().json());
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: registry dump: %s\n",
                   parsed.error.c_str());
      return 1;
    }
    return render_metrics_dump(parsed.value, args.buckets);
  }
  std::ifstream in(args.positional[0]);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 args.positional[0].c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", args.positional[0].c_str(),
                 parsed.error.c_str());
    return 1;
  }
  return render_metrics_dump(parsed.value, args.buckets);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("madpipe %s\n", kVersion);
    return 0;
  }
  try {
    const Args args = parse(argc, argv);
    if (command == "profile") return cmd_profile(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "plan") return cmd_plan(args, /*simulate=*/false);
    if (command == "simulate") return cmd_plan(args, /*simulate=*/true);
    if (command == "planner") return cmd_planner(args);
    if (command == "explain") return cmd_explain(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "stats") return cmd_stats(args);
    usage(("unknown command " + command).c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
