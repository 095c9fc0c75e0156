#include "serve/serve_stats.hpp"

#include "util/json.hpp"

namespace madpipe::serve {

void ServeStats::write_json(json::Writer& w) const {
  w.begin_object();
#define MADPIPE_SERVE_JSON(field, ...) \
  w.key(#field);                       \
  w.value(field);
#define MADPIPE_SERVE_LATENCY_JSON(outcome, metric, help) \
  w.key(#outcome "_p50_seconds");                         \
  w.value(outcome##_p50_seconds);                         \
  w.key(#outcome "_p99_seconds");                         \
  w.value(outcome##_p99_seconds);
  MADPIPE_SERVE_STATS(MADPIPE_SERVE_JSON, MADPIPE_SERVE_JSON,
                      MADPIPE_SERVE_LATENCY_JSON)
#undef MADPIPE_SERVE_JSON
#undef MADPIPE_SERVE_LATENCY_JSON
  w.end_object();
}

ServeStats ServeCounters::snapshot(const PlanCacheCounters& cache) const {
  ServeStats stats;
#define MADPIPE_SERVE_COUNT_SNAPSHOT(field, metric, help) \
  stats.field = field.value();
#define MADPIPE_SERVE_CACHE_SNAPSHOT(field, member, metric, help) \
  stats.field = cache.member;
#define MADPIPE_SERVE_LATENCY_SNAPSHOT(outcome, metric, help)     \
  stats.outcome##_p50_seconds =                                   \
      obs::histogram_quantile(outcome##_latency.own(), 0.50);     \
  stats.outcome##_p99_seconds =                                   \
      obs::histogram_quantile(outcome##_latency.own(), 0.99);
  MADPIPE_SERVE_STATS(MADPIPE_SERVE_COUNT_SNAPSHOT,
                      MADPIPE_SERVE_CACHE_SNAPSHOT,
                      MADPIPE_SERVE_LATENCY_SNAPSHOT)
#undef MADPIPE_SERVE_COUNT_SNAPSHOT
#undef MADPIPE_SERVE_CACHE_SNAPSHOT
#undef MADPIPE_SERVE_LATENCY_SNAPSHOT
  return stats;
}

void ServeCounters::mirror(const PlanCacheCounters& cache) {
#define MADPIPE_SERVE_SKIP(...)
#define MADPIPE_SERVE_CACHE_MIRROR(field, member, metric, help) \
  field.set(static_cast<double>(cache.member));
  MADPIPE_SERVE_STATS(MADPIPE_SERVE_SKIP, MADPIPE_SERVE_CACHE_MIRROR,
                      MADPIPE_SERVE_SKIP)
#undef MADPIPE_SERVE_SKIP
#undef MADPIPE_SERVE_CACHE_MIRROR
}

void ServeCounters::refresh_hit_rate() {
  const long long total = requests.total();
  if (total <= 0) return;
  hit_rate.set(static_cast<double>(hits.total()) /
               static_cast<double>(total));
}

}  // namespace madpipe::serve
