#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/pattern.hpp"
#include "core/types.hpp"
#include "models/zoo.hpp"
#include "sim/event_sim.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace madpipe;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanLog::open(const char* name, long long op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

double SpanLog::mean_seconds(std::string_view name) const {
  return mean(durations(name));
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    json::Writer w;
    w.begin_object();
    w.key("name"); w.value(span.name);
    w.key("op"); w.value(span.op);
    w.key("parent"); w.value(span.parent);
    w.key("start_ns"); w.value(static_cast<long long>(span.start_ns));
    w.key("end_ns"); w.value(static_cast<long long>(span.end_ns));
    w.end_object();
    out << w.str() << '\n';
  }
  return static_cast<bool>(out);
}

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks host_ticks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal) {
    ticks.busy = user + nice + system + irq + softirq;
    ticks.steal = steal;
  }
  return ticks;
}

double steal_fraction(const HostTicks& before, const HostTicks& after) {
  const long long steal = after.steal - before.steal;
  const long long wanted = after.busy - before.busy + steal;
  return wanted > 0 ? static_cast<double>(steal) / static_cast<double>(wanted)
                    : 0.0;
}

// --- seeded inputs ---------------------------------------------------------

std::string cell_name(const Cell& cell) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s_p%d_m%g", cell.network.c_str(),
                cell.gpus, cell.memory_gb);
  return buffer;
}

std::vector<Cell> plan_pool(const std::string& workload) {
  // Classified by running plan_madpipe with default options on the Fig. 6
  // grid (P ∈ {2,4,8}, M ∈ {4,8,16} GB, β = 12 GB/s). Each pool has an odd
  // number of cells, so the median plan time falls inside one cell's
  // samples, and a pass takes a few seconds at most, so a run holds several
  // plans of each cell. The first cell of each pool is the one the
  // self-test plans.
  if (workload == "plan_noncontig") {
    return {{"resnet101", 4, 8.0},
            {"densenet121", 2, 8.0},
            {"gpt2-xl", 8, 16.0},
            {"resnet50", 4, 8.0},
            {"resnet50", 8, 8.0}};
  }
  if (workload == "plan_contig") {
    return {{"resnet50", 8, 4.0},
            {"densenet121", 2, 4.0},
            {"resnet101", 4, 4.0},
            {"resnet101", 8, 4.0},
            {"densenet121", 8, 8.0}};
  }
  throw std::invalid_argument("no cell pool for workload " + workload);
}

Chain cell_chain(const std::string& network) {
  if (network == "gpt2-xl") {
    models::NetworkConfig config;
    config.network = network;
    return models::build_network(config);
  }
  return models::paper_network(network);
}

double Units::time_scale() const { return std::ldexp(1.0, time_exp); }
double Units::byte_scale() const { return std::ldexp(1.0, byte_exp); }

Chain scale_chain(const Chain& chain, const Units& units) {
  const double t = units.time_scale();
  const double b = units.byte_scale();
  std::vector<Layer> layers;
  layers.reserve(static_cast<std::size_t>(chain.length()));
  for (int l = 1; l <= chain.length(); ++l) {
    Layer layer = chain.layer(l);
    layer.forward_time *= t;
    layer.backward_time *= t;
    layer.weight_bytes *= b;
    layer.output_bytes *= b;
    layer.scratch_bytes *= b;
    layers.push_back(std::move(layer));
  }
  return Chain(chain.name(), chain.activation(0) * b, std::move(layers));
}

Platform cell_platform(const Cell& cell, const Units& units) {
  return Platform{cell.gpus, cell.memory_gb * GB * units.byte_scale(),
                  12.0 * GB * units.byte_scale() / units.time_scale()};
}

Units draw_units(util::Rng& rng) {
  return Units{static_cast<int>(rng.range(-2, 2)),
               static_cast<int>(rng.range(-2, 2))};
}

// --- output checks ---------------------------------------------------------

std::string check_plan(const Plan& plan, const Chain& chain,
                       const Platform& platform) {
  const ValidationResult validation =
      validate_pattern(plan.pattern, plan.allocation, chain, platform);
  if (!validation.valid) {
    return "validate_pattern: " + (validation.errors.empty()
                                       ? std::string("invalid")
                                       : validation.errors.front());
  }
  const double memory_limit = platform.memory_per_processor * (1.0 + 1e-9);
  for (const Bytes peak : validation.processor_memory_peak) {
    if (peak > memory_limit) return "validated memory peak exceeds M";
  }
  const SimulationResult simulation =
      simulate_pattern(plan.pattern, plan.allocation, chain, platform);
  if (!(simulation.steady_period <= plan.period() * (1.0 + 1e-6))) {
    return "simulated steady period exceeds the plan period";
  }
  for (const Bytes peak : simulation.processor_memory_peak) {
    if (peak > memory_limit) return "simulated memory peak exceeds M";
  }
  return "";
}

bool corrupted_copy_is_rejected(const Plan& plan, const Chain& chain,
                                const Platform& platform) {
  Plan corrupted = plan;
  std::vector<PatternOp>& ops = corrupted.pattern.ops;
  if (ops.empty()) return false;
  PatternOp& longest = *std::max_element(
      ops.begin(), ops.end(), [](const PatternOp& a, const PatternOp& b) {
        return a.duration < b.duration;
      });
  const double period = corrupted.pattern.period;
  longest.start = std::fmod(longest.start + 0.5 * period, period);
  return !check_plan(corrupted, chain, platform).empty();
}

}  // namespace perfbench
