// Counters for the plan-serving subsystem, in the style of PlannerStats: one
// plain snapshot struct (ServeStats) that tests, the `madpipe serve` CLI and
// bench_serve can print or dump as JSON, plus a
// small latency recorder the service uses to produce p50/p99 under
// concurrent request traffic.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace madpipe::json {
class Writer;
}

namespace madpipe::serve {

/// Snapshot of the service counters. All request counts are cumulative;
/// cache_bytes/cache_entries are point-in-time.
struct ServeStats {
  long long requests = 0;    ///< submissions accepted into the service
  long long hits = 0;        ///< served from the plan cache
  long long scaled_hits = 0; ///< hits served by exact unit rescaling (subset)
  long long misses = 0;      ///< requests that ran the planner
  long long coalesced = 0;   ///< attached to an identical in-flight request
  long long rejected = 0;    ///< bounced by queue backpressure
  long long degraded = 0;    ///< deadline-reduced state budget truncated a DP
  long long errors = 0;      ///< planner threw / request invalid
  long long shutdowns = 0;   ///< queued requests cancelled at destruction
  long long planner_runs = 0;  ///< plan_madpipe invocations (the expensive op)

  // Cache internals (mirrors PlanCacheCounters at snapshot time).
  long long evictions = 0;      ///< LRU byte-budget evictions
  long long expirations = 0;    ///< TTL evictions
  long long key_collisions = 0; ///< 64-bit key matched, fingerprint did not
  long long cache_entries = 0;
  long long cache_bytes = 0;

  // Latency percentiles (seconds), split by how the request was served.
  double hit_p50_seconds = 0.0;
  double hit_p99_seconds = 0.0;
  double miss_p50_seconds = 0.0;
  double miss_p99_seconds = 0.0;

  /// Append this block as one JSON object value (the caller writes the key).
  void write_json(json::Writer& writer) const;
};

/// Cached references to the serve entries of the process-wide
/// obs::Registry (madpipe_serve_*). PlanService bumps these live as
/// requests complete, so the registry's cumulative view matches the
/// ServeStats counters of every service in the process summed together.
/// The cache mirrors (evictions, entries, bytes, ...) are gauges refreshed
/// by PlanService::stats(). All members are process-lifetime references;
/// updates are relaxed atomics.
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& hits;
  obs::Counter& scaled_hits;
  obs::Counter& misses;
  obs::Counter& coalesced;
  obs::Counter& rejected;
  obs::Counter& degraded;
  obs::Counter& errors;
  obs::Counter& shutdowns;
  obs::Counter& planner_runs;
  obs::Gauge& evictions;
  obs::Gauge& expirations;
  obs::Gauge& key_collisions;
  obs::Gauge& cache_entries;
  obs::Gauge& cache_bytes;
  /// Last served plan's mean GPU utilization / min memory headroom (request
  /// units). Refreshed whenever a response carries an ExplainSummary
  /// (options.explain), so dashboards can watch plan quality live.
  obs::Gauge& schedule_utilization;
  obs::Gauge& memory_headroom_bytes;
  /// Live queue depth: set by PlanService on every enqueue/dequeue (and
  /// zeroed at shutdown), so /metrics sees the backlog as it is, not as
  /// last sampled by a front-end.
  obs::Gauge& queue_depth;
  /// Derived hits/requests ratio, refreshed as requests complete.
  obs::Gauge& hit_rate;
  obs::Histogram& hit_latency;
  obs::Histogram& miss_latency;
};

/// The singleton ServeMetrics bound to obs::Registry::global().
ServeMetrics& serve_metrics();

/// Thread-safe latency sample sink with bounded memory: past `capacity`
/// samples, every other retained sample is dropped and the sampling stride
/// doubles, so percentiles stay representative over arbitrarily long runs.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t capacity = 1 << 16);

  void record(double seconds);
  /// Linear-interpolated percentile of the retained samples, q in [0,1];
  /// 0 when nothing was recorded.
  double percentile(double q) const;
  long long count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  std::size_t capacity_;
  std::size_t stride_ = 1;   ///< record every stride-th sample
  std::size_t pending_ = 0;  ///< samples seen since the last retained one
  long long total_ = 0;
};

}  // namespace madpipe::serve
