// Counters of the plan-serving subsystem, generated from one table: the
// plain snapshot struct (ServeStats) that tests and the `madpipe serve` CLI
// print or dump as JSON, and the live block (ServeCounters) one PlanService
// bumps as requests complete. Every live bump adds to the service's own
// count and to the process-wide obs::Registry in one call.
#pragma once

#include "obs/metrics.hpp"
#include "serve/plan_cache.hpp"

namespace madpipe::json {
class Writer;
}

// The counter table, one row per counter in JSON order. Each row names its
// kind by the macro it calls:
//   COUNTER(field, registry name, help)       — an event PlanService counts:
//       a summed counter per service plus its registry total;
//   CACHE(field, PlanCacheCounters member, registry name, help) — a mirror of
//       the service's plan cache: read from the cache, and a registry gauge
//       the service refreshes whenever it changes its cache;
//   LATENCY(outcome, registry name, help)     — a submit-to-complete wall
//       time histogram per service plus its registry twin; the snapshot
//       carries its bucket-interpolated <outcome>_p50/_p99_seconds.
#define MADPIPE_SERVE_STATS(COUNTER, CACHE, LATENCY)                          \
  COUNTER(requests, "madpipe_serve_requests_total",                           \
          "Submissions accepted into the service")                            \
  COUNTER(hits, "madpipe_serve_hits_total", "Served from the plan cache")     \
  COUNTER(scaled_hits, "madpipe_serve_scaled_hits_total",                     \
          "Hits served by exact unit rescaling (subset of hits)")             \
  COUNTER(misses, "madpipe_serve_misses_total",                               \
          "Requests that ran the planner")                                    \
  COUNTER(coalesced, "madpipe_serve_coalesced_total",                         \
          "Attached to an identical in-flight request")                       \
  COUNTER(rejected, "madpipe_serve_rejected_total",                           \
          "Bounced by queue backpressure")                                    \
  COUNTER(degraded, "madpipe_serve_degraded_total",                           \
          "Deadline-reduced state budget truncated a DP")                     \
  COUNTER(errors, "madpipe_serve_errors_total",                               \
          "Planner threw / request invalid")                                  \
  COUNTER(shutdowns, "madpipe_serve_shutdowns_total",                         \
          "Queued requests cancelled at service destruction")                 \
  COUNTER(planner_runs, "madpipe_serve_planner_runs_total",                   \
          "plan_madpipe invocations (the expensive op)")                      \
  CACHE(evictions, evictions, "madpipe_serve_cache_evictions",                \
        "Cumulative LRU byte-budget evictions of the plan cache")             \
  CACHE(expirations, expirations, "madpipe_serve_cache_expirations",          \
        "Cumulative TTL evictions of the plan cache")                         \
  CACHE(key_collisions, key_collisions, "madpipe_serve_cache_key_collisions", \
        "Plan-cache probes whose 64-bit key matched but fingerprint did not") \
  CACHE(cache_entries, entries, "madpipe_serve_cache_entries",                \
        "Plan-cache entries")                                                 \
  CACHE(cache_bytes, bytes, "madpipe_serve_cache_bytes",                      \
        "Plan-cache resident bytes")                                          \
  LATENCY(hit, "madpipe_serve_hit_latency_seconds",                           \
          "submit-to-complete latency of cache hits")                         \
  LATENCY(miss, "madpipe_serve_miss_latency_seconds",                         \
          "submit-to-complete latency of planned requests")

namespace madpipe::serve {

/// Snapshot of one service's counters. Request counts and latencies are
/// cumulative over the service's life; cache_bytes/cache_entries are
/// point-in-time.
struct ServeStats {
#define MADPIPE_SERVE_COUNT_FIELD(field, metric, help) long long field = 0;
#define MADPIPE_SERVE_CACHE_FIELD(field, member, metric, help) \
  long long field = 0;
#define MADPIPE_SERVE_LATENCY_FIELD(outcome, metric, help) \
  double outcome##_p50_seconds = 0.0;                      \
  double outcome##_p99_seconds = 0.0;
  MADPIPE_SERVE_STATS(MADPIPE_SERVE_COUNT_FIELD, MADPIPE_SERVE_CACHE_FIELD,
                      MADPIPE_SERVE_LATENCY_FIELD)
#undef MADPIPE_SERVE_COUNT_FIELD
#undef MADPIPE_SERVE_CACHE_FIELD
#undef MADPIPE_SERVE_LATENCY_FIELD

  /// Append this block as one JSON object value (the caller writes the key).
  void write_json(json::Writer& writer) const;
};

/// The live counters of one PlanService, generated from the same table, plus
/// the registry-only serve gauges. Lock-free: every member is an atomic or a
/// process-lifetime registry reference.
struct ServeCounters {
#define MADPIPE_SERVE_COUNT_LIVE(field, metric, help) \
  obs::OwnedCounter field{metric, help};
#define MADPIPE_SERVE_CACHE_LIVE(field, member, metric, help) \
  obs::Gauge& field = obs::Registry::global().gauge(metric, help);
#define MADPIPE_SERVE_LATENCY_LIVE(outcome, metric, help) \
  obs::OwnedHistogram outcome##_latency{metric, help};
  MADPIPE_SERVE_STATS(MADPIPE_SERVE_COUNT_LIVE, MADPIPE_SERVE_CACHE_LIVE,
                      MADPIPE_SERVE_LATENCY_LIVE)
#undef MADPIPE_SERVE_COUNT_LIVE
#undef MADPIPE_SERVE_CACHE_LIVE
#undef MADPIPE_SERVE_LATENCY_LIVE

  /// Jobs accepted but not yet picked up by a planner worker: set on every
  /// enqueue/dequeue (and zeroed at shutdown), so /metrics sees the backlog
  /// as it is.
  obs::Gauge& queue_depth = obs::Registry::global().gauge(
      "madpipe_serve_queue_depth",
      "Jobs accepted but not yet picked up by a planner worker");
  /// Process-wide hits / accepted requests, refreshed as requests complete.
  obs::Gauge& hit_rate = obs::Registry::global().gauge(
      "madpipe_serve_hit_rate",
      "Cache hits / accepted requests since process start");

  /// This service's counters, with the cache rows read from `cache`.
  ServeStats snapshot(const PlanCacheCounters& cache) const;
  /// Set the cache gauges from `cache` (call after changing the cache).
  void mirror(const PlanCacheCounters& cache);
  /// Recompute hit_rate from the registry totals.
  void refresh_hit_rate();
};

}  // namespace madpipe::serve
