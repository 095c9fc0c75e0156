// Process-wide metrics registry: named monotonic counters, point-in-time
// gauges and fixed-bucket latency histograms, shared by the planner and the
// serve subsystem.
//
// The per-result structs (PlannerStats, serve::ServeStats,
// serve::net::NetServerStats) are each generated from one counter table: an
// X-macro with one row per counter holding the field name, the registry
// name, the help text and the row's kind (Sum, Max or Wall below). The same
// table declares the struct and binds its registry entries, so a field and
// its registry twin cannot drift apart. The registry is the *cumulative*
// process view: PlannerStats::publish adds each plan's counts at the end of
// plan_madpipe, and PlanService and NetServer add every event to their own
// OwnedCounter/OwnedHistogram, which also adds it here. `madpipe stats`,
// --metrics-out files and the Prometheus-style text dump see one coherent
// namespace (madpipe_planner_*, madpipe_serve_*, madpipe_net_*).
//
// Thread-safety: Counter/Gauge/Histogram updates are relaxed atomics
// (lock-free, safe from any thread). Entity creation and the text/JSON
// dumps take the registry mutex. Entities are never destroyed or moved —
// references returned by counter()/gauge()/histogram() stay valid for the
// process lifetime, so callers cache them (e.g. in a function-local static
// or a member) and pay one lookup ever. reset_for_tests() zeroes values but
// keeps every entity alive.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace madpipe::json {
class Writer;
}

namespace madpipe::obs {

/// Schema tag of the JSON produced by Registry::write_json (read back by
/// `madpipe stats FILE`).
inline constexpr const char* kMetricsSchema = "madpipe-metrics-v1";

/// Monotonic counter. Lock-free; safe from any thread.
class Counter {
 public:
  void add(long long delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  long long value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<long long> value_{0};
};

/// Point-in-time value (cache occupancy, load factors). set() overwrites.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<double> value_{0.0};
};

/// Log-spaced latency bounds from 1 µs to 100 s (5 per decade), the default
/// for the madpipe_*_seconds histograms.
std::vector<double> latency_bounds_seconds();

/// Fixed-bucket histogram in the Prometheus style: `bounds` are the finite
/// upper bounds, plus an implicit +Inf bucket; counts are cumulative in the
/// text exposition and per-bucket in the JSON dump. observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = latency_bounds_seconds());

  void observe(double v) noexcept;

  long long count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::span<const double> bounds() const noexcept { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  long long bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::vector<double> bounds_;
  std::vector<std::atomic<long long>> buckets_;  ///< bounds_.size() + 1
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Prometheus-style quantile estimate from fixed buckets: find the bucket
/// containing rank q·count and interpolate linearly inside it (the bucket's
/// lower bound is the previous finite bound, or 0 for the first). Samples in
/// the +Inf bucket clamp to the last finite bound — fixed buckets cannot say
/// more. Returns 0 when the histogram is empty. `bucket_counts` are
/// per-bucket (not cumulative) and must have bounds.size() + 1 entries.
double histogram_quantile(std::span<const double> bounds,
                          std::span<const long long> bucket_counts, double q);

/// Convenience overload reading a live histogram.
double histogram_quantile(const Histogram& histogram, double q);

class Registry {
 public:
  /// The process-wide registry every built-in metric registers into.
  static Registry& global();

  /// Find-or-create by name. The first call fixes the help text (and, for
  /// histograms, the bucket bounds); later calls with the same name return
  /// the same entity regardless of the other arguments. Returned references
  /// are valid forever.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds = latency_bounds_seconds(),
                       std::string_view help = {});

  /// Prometheus-style text exposition (# HELP / # TYPE / samples), entities
  /// in name order.
  std::string text() const;

  /// One JSON object value tagged with kMetricsSchema (the caller owns any
  /// surrounding scope): {"schema", "counters": [...], "gauges": [...],
  /// "histograms": [...]}.
  void write_json(json::Writer& writer) const;
  std::string json() const;

  /// Zero every value, keeping all entities (and outstanding references)
  /// alive. For tests that assert on cumulative counts.
  void reset_for_tests();

 private:
  Registry() = default;
  struct Entry;
  Entry& find_or_create(std::string_view name, std::string_view help,
                        int kind, std::vector<double> bounds);

  mutable std::recursive_mutex mutex_;
  std::vector<Entry*> entries_;  ///< owned; never destroyed (process-lifetime)
};

// ---- Counter tables ---------------------------------------------------------
// The kind of a counter-table row: the field's C++ type, how two per-run
// values merge, and the registry entity the row publishes into. Tables name
// the kind as a token (`X(Sum, dp_probes, ...)`) and expand it as
// `obs::Sum`.

/// Summed counter: a long long, merged by adding, an obs::Counter.
struct Sum {
  using type = long long;
  using entity = Counter;
};
/// Max-merged gauge: a double, merged by max, an obs::Gauge that holds the
/// latest published value.
struct Max {
  using type = double;
  using entity = Gauge;
};
/// Wall time in seconds: merged by adding, one obs::Histogram observation
/// per publish.
struct Wall {
  using type = double;
  using entity = Histogram;
};

inline long long merge(Sum, long long a, long long b) noexcept { return a + b; }
inline double merge(Max, double a, double b) noexcept { return std::max(a, b); }
inline double merge(Wall, double a, double b) noexcept { return a + b; }

/// A row's entity in Registry::global(), found or created.
Counter& bind(Sum, std::string_view name, std::string_view help);
Gauge& bind(Max, std::string_view name, std::string_view help);
Histogram& bind(Wall, std::string_view name, std::string_view help);

inline void record(Counter& counter, long long value) noexcept {
  counter.add(value);
}
inline void record(Gauge& gauge, double value) noexcept { gauge.set(value); }
inline void record(Histogram& histogram, double value) noexcept {
  histogram.observe(value);
}

/// A counter owned by one object (a PlanService, a NetServer) whose every
/// add also lands in the registry counter of the same name, so the owner
/// keeps its own count while the registry holds the process-wide sum.
class OwnedCounter {
 public:
  OwnedCounter(std::string_view name, std::string_view help)
      : global_(bind(Sum{}, name, help)) {}
  void add(long long delta = 1) noexcept {
    own_.add(delta);
    global_.add(delta);
  }
  long long value() const noexcept { return own_.value(); }
  /// The process-wide sum over every owner.
  long long total() const noexcept { return global_.value(); }

 private:
  Counter own_;
  Counter& global_;
};

/// The histogram twin of OwnedCounter (latency_bounds_seconds() buckets).
class OwnedHistogram {
 public:
  OwnedHistogram(std::string_view name, std::string_view help)
      : global_(bind(Wall{}, name, help)) {}
  void observe(double v) noexcept {
    own_.observe(v);
    global_.observe(v);
  }
  const Histogram& own() const noexcept { return own_; }

 private:
  Histogram own_;
  Histogram& global_;
};

}  // namespace madpipe::obs
