#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.hpp"

namespace madpipe::obs {

namespace {

/// Atomic add for the double-valued histogram sum (no fetch_add for doubles
/// until C++20 on all toolchains; CAS loop is fine off the hot path).
void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

std::string format_double(double v) {
  if (v == static_cast<long long>(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper bound admits v; past-the-end = +Inf bucket.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

std::vector<double> latency_bounds_seconds() {
  // 5 log-spaced points per decade, 1 µs .. 100 s.
  std::vector<double> bounds;
  for (int decade = -6; decade <= 1; ++decade) {
    for (const double mantissa : {1.0, 1.585, 2.512, 3.981, 6.310}) {
      bounds.push_back(mantissa * std::pow(10.0, decade));
    }
  }
  bounds.push_back(100.0);
  return bounds;
}

double histogram_quantile(std::span<const double> bounds,
                          std::span<const long long> bucket_counts, double q) {
  long long total = 0;
  for (const long long count : bucket_counts) total += count;
  if (total <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  long long cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const long long in_bucket = bucket_counts[i];
    if (in_bucket <= 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double fraction =
        (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double histogram_quantile(const Histogram& histogram, double q) {
  std::vector<long long> counts;
  counts.reserve(histogram.bounds().size() + 1);
  for (std::size_t i = 0; i <= histogram.bounds().size(); ++i) {
    counts.push_back(histogram.bucket_count(i));
  }
  return histogram_quantile(histogram.bounds(), counts, q);
}

struct Registry::Entry {
  enum Kind { kCounter = 0, kGauge = 1, kHistogram = 2 };
  std::string name;
  std::string help;
  int kind = kCounter;
  Counter counter;
  Gauge gauge;
  Histogram histogram;

  Entry(std::string entry_name, std::string entry_help, int entry_kind,
        std::vector<double> bounds)
      : name(std::move(entry_name)),
        help(std::move(entry_help)),
        kind(entry_kind),
        histogram(std::move(bounds)) {}
};

Registry& Registry::global() {
  // Leaked intentionally: metrics outlive every static destructor that
  // might still publish.
  static Registry* instance = new Registry();
  return *instance;
}

Registry::Entry& Registry::find_or_create(std::string_view name,
                                          std::string_view help, int kind,
                                          std::vector<double> bounds) {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (Entry* entry : entries_) {
    if (entry->name == name) return *entry;
  }
  entries_.push_back(new Entry(std::string(name), std::string(help), kind,
                               std::move(bounds)));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  return find_or_create(name, help, Entry::kCounter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  return find_or_create(name, help, Entry::kGauge, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds,
                               std::string_view help) {
  return find_or_create(name, help, Entry::kHistogram, std::move(bounds))
      .histogram;
}

void Registry::reset_for_tests() {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (Entry* entry : entries_) {
    entry->counter.value_.store(0, std::memory_order_relaxed);
    entry->gauge.value_.store(0.0, std::memory_order_relaxed);
    for (auto& bucket : entry->histogram.buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    entry->histogram.count_.store(0, std::memory_order_relaxed);
    entry->histogram.sum_.store(0.0, std::memory_order_relaxed);
  }
}

std::string Registry::text() const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<const Entry*> sorted(entries_.begin(), entries_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });
  std::string out;
  for (const Entry* entry : sorted) {
    if (!entry->help.empty()) {
      out += "# HELP " + entry->name + " " + entry->help + "\n";
    }
    switch (entry->kind) {
      case Entry::kCounter:
        out += "# TYPE " + entry->name + " counter\n";
        out += entry->name + " " + std::to_string(entry->counter.value()) +
               "\n";
        break;
      case Entry::kGauge:
        out += "# TYPE " + entry->name + " gauge\n";
        out += entry->name + " " + format_double(entry->gauge.value()) + "\n";
        break;
      case Entry::kHistogram: {
        const Histogram& h = entry->histogram;
        out += "# TYPE " + entry->name + " histogram\n";
        long long cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          out += entry->name + "_bucket{le=\"" +
                 format_double(h.bounds()[i]) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += h.bucket_count(h.bounds().size());
        out += entry->name + "_bucket{le=\"+Inf\"} " +
               std::to_string(cumulative) + "\n";
        out += entry->name + "_sum " + format_double(h.sum()) + "\n";
        out += entry->name + "_count " + std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

void Registry::write_json(json::Writer& writer) const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<const Entry*> sorted(entries_.begin(), entries_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });
  writer.begin_object();
  writer.key("schema");
  writer.value(kMetricsSchema);
  writer.key("counters");
  writer.begin_array();
  for (const Entry* entry : sorted) {
    if (entry->kind != Entry::kCounter) continue;
    writer.begin_object();
    writer.key("name");
    writer.value(entry->name);
    if (!entry->help.empty()) {
      writer.key("help");
      writer.value(entry->help);
    }
    writer.key("value");
    writer.value(entry->counter.value());
    writer.end_object();
  }
  writer.end_array();
  writer.key("gauges");
  writer.begin_array();
  for (const Entry* entry : sorted) {
    if (entry->kind != Entry::kGauge) continue;
    writer.begin_object();
    writer.key("name");
    writer.value(entry->name);
    if (!entry->help.empty()) {
      writer.key("help");
      writer.value(entry->help);
    }
    writer.key("value");
    writer.value(entry->gauge.value());
    writer.end_object();
  }
  writer.end_array();
  writer.key("histograms");
  writer.begin_array();
  for (const Entry* entry : sorted) {
    if (entry->kind != Entry::kHistogram) continue;
    const Histogram& h = entry->histogram;
    writer.begin_object();
    writer.key("name");
    writer.value(entry->name);
    if (!entry->help.empty()) {
      writer.key("help");
      writer.value(entry->help);
    }
    writer.key("count");
    writer.value(h.count());
    writer.key("sum");
    writer.value(h.sum());
    writer.key("bounds");
    writer.begin_array();
    for (const double bound : h.bounds()) writer.value(bound);
    writer.end_array();
    writer.key("bucket_counts");
    writer.begin_array();
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      writer.value(h.bucket_count(i));
    }
    writer.end_array();
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
}

std::string Registry::json() const {
  json::Writer writer;
  write_json(writer);
  return writer.str();
}

Counter& bind(Sum, std::string_view name, std::string_view help) {
  return Registry::global().counter(name, help);
}

Gauge& bind(Max, std::string_view name, std::string_view help) {
  return Registry::global().gauge(name, help);
}

Histogram& bind(Wall, std::string_view name, std::string_view help) {
  return Registry::global().histogram(name, latency_bounds_seconds(), help);
}

}  // namespace madpipe::obs
