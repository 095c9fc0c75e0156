// Tests for the observability layer (src/obs/): span recording, ring-wrap
// semantics, Chrome trace-event export (round-tripped through our own JSON
// parser), cross-thread attribution, concurrent drain (the seqlock path —
// these run under TSan in CI), and the registry's parity with the legacy
// PlannerStats / ServeStats structs on real planner and serve runs.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "core/platform.hpp"
#include "madpipe/planner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace madpipe {
namespace {

/// install_trace for the duration of a scope, uninstalling on exit so no
/// test leaves tracing armed for its neighbours.
struct ScopedTrace {
  explicit ScopedTrace(std::size_t capacity = 4096) {
    obs::install_trace(capacity);
  }
  ~ScopedTrace() { obs::uninstall_trace(); }
};

const obs::TraceEvent* find_event(const std::vector<obs::TraceEvent>& events,
                                  const std::string& name) {
  for (const obs::TraceEvent& event : events) {
    if (event.name != nullptr && name == event.name) return &event;
  }
  return nullptr;
}

TEST(ObsTrace, DisarmedRecordsNothing) {
  ASSERT_FALSE(obs::trace_enabled());
  { obs::Span span("obs_test_disarmed", obs::kCatPlanner); }
  ScopedTrace trace;
  // Installing replaces any buffered events; nothing from before survives
  // and the disarmed span above was never recorded.
  EXPECT_TRUE(obs::drain_trace().empty());
}

TEST(ObsTrace, NestedSpansRecordContainment) {
  ScopedTrace trace;
  {
    obs::Span outer("obs_test_outer", obs::kCatServe);
    {
      obs::Span inner("obs_test_inner", obs::kCatPlanner);
      inner.arg("value", 42);
    }
  }
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent* outer = find_event(events, "obs_test_outer");
  const obs::TraceEvent* inner = find_event(events, "obs_test_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_STREQ(outer->category, obs::kCatServe);
  EXPECT_STREQ(inner->category, obs::kCatPlanner);
  // Same thread, and the inner interval nests inside the outer one.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  ASSERT_NE(inner->arg1_key, nullptr);
  EXPECT_STREQ(inner->arg1_key, "value");
  EXPECT_EQ(inner->arg1_value, 42);
}

TEST(ObsTrace, RingWrapKeepsNewestEvents) {
  ScopedTrace trace(4);  // exactly 4 slots (already a power of two)
  for (int i = 0; i < 10; ++i) {
    obs::Span span("obs_test_wrap", obs::kCatPlanner);
    span.arg("i", i);
  }
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  ASSERT_EQ(events.size(), 4u);
  // The ring overwrites oldest-first: the survivors are 6, 7, 8, 9.
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].arg1_value, static_cast<long long>(6 + k));
  }
}

TEST(ObsTrace, ThreadsGetDistinctIdsAndAllEventsAreDrained) {
  ScopedTrace trace;
  {
    obs::Span span("obs_test_main", obs::kCatServe);
  }
  std::thread worker([] { obs::Span span("obs_test_worker", obs::kCatServe); });
  worker.join();
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  const obs::TraceEvent* main_event = find_event(events, "obs_test_main");
  const obs::TraceEvent* worker_event = find_event(events, "obs_test_worker");
  ASSERT_NE(main_event, nullptr);
  ASSERT_NE(worker_event, nullptr);
  EXPECT_NE(main_event->tid, worker_event->tid);
}

TEST(ObsTrace, EmitCompleteRecordsHandMeasuredPhase) {
  ScopedTrace trace;
  const std::int64_t start = obs::now_ns();
  obs::emit_complete("obs_test_phase", obs::kCatServe, start, 12345,
                     "queued", 7);
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  const obs::TraceEvent* event = find_event(events, "obs_test_phase");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->start_ns, start);
  EXPECT_EQ(event->dur_ns, 12345);
  EXPECT_EQ(event->arg1_value, 7);
}

TEST(ObsTrace, ChromeJsonRoundTripsThroughParser) {
  ScopedTrace trace;
  {
    obs::Span outer("obs_test_chrome_outer", obs::kCatServe);
    obs::Span inner("obs_test_chrome_inner", obs::kCatSolver);
    inner.arg("nodes", 3);
  }
  const std::string text = obs::trace_to_chrome_json();
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const json::Value* trace_events = parsed.value.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  bool saw_inner = false, saw_metadata = false;
  for (const json::Value& event : trace_events->items()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "M") {
      saw_metadata = true;  // thread-name metadata record
      continue;
    }
    ASSERT_EQ(ph, "X") << text;
    EXPECT_NE(event.find("ts"), nullptr);
    EXPECT_NE(event.find("dur"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
    if (event.string_or("name", "") == "obs_test_chrome_inner") {
      saw_inner = true;
      EXPECT_EQ(event.string_or("cat", ""), "solver");
      const json::Value* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->number_or("nodes", -1), 3.0);
    }
  }
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_metadata);
}

// The seqlock path: one thread records spans while the main thread drains
// concurrently. Runs under TSan in CI — any torn read or missing atomic
// would be reported there; here we just assert nothing crashes and drained
// events are well-formed.
TEST(ObsTrace, ConcurrentDrainWhileRecording) {
  ScopedTrace trace(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Span span("obs_test_concurrent", obs::kCatPlanner);
      span.arg("x", 1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    for (const obs::TraceEvent& event : obs::drain_trace()) {
      ASSERT_NE(event.name, nullptr);
      ASSERT_GE(event.dur_ns, 0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(ObsMetrics, HistogramQuantileInterpolatesWithinBuckets) {
  // Buckets (0,1], (1,2], (2,4], +Inf with per-bucket counts 2, 2, 4, 0.
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  const std::vector<long long> counts{2, 2, 4, 0};
  // rank(0.5) = 4 → exactly exhausts bucket 1 → its upper bound.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.5), 2.0);
  // rank(0.25) = 2 → exhausts bucket 0 → 1.0.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.25), 1.0);
  // rank(0.75) = 6 → halfway through bucket 2 → 2 + 0.5·(4−2) = 3.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.75), 3.0);
  // q clamps to [0, 1].
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 2.0), 4.0);
}

TEST(ObsMetrics, HistogramQuantileClampsInfBucketAndHandlesEmpty) {
  const std::vector<double> bounds{1.0, 2.0};
  // All mass in +Inf: fixed buckets cannot say more than the last bound.
  const std::vector<long long> overflow{0, 0, 5};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, overflow, 0.99), 2.0);
  // Mass split across a finite bucket and +Inf: low quantiles interpolate,
  // high quantiles clamp.
  const std::vector<long long> mixed{4, 0, 4};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, mixed, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, mixed, 0.9), 2.0);
  // Empty histogram → 0.
  const std::vector<long long> empty{0, 0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile({}, {}, 0.5), 0.0);
}

TEST(ObsMetrics, HistogramQuantileLiveOverloadMatchesRawBuckets) {
  obs::Registry& registry = obs::Registry::global();
  obs::Histogram& histogram =
      registry.histogram("obs_test_quantile_hist", {1.0, 2.0, 4.0});
  for (int i = 0; i < 4; ++i) histogram.observe(0.5);
  for (int i = 0; i < 4; ++i) histogram.observe(3.0);
  std::vector<long long> counts;
  for (std::size_t i = 0; i <= histogram.bounds().size(); ++i) {
    counts.push_back(histogram.bucket_count(i));
  }
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(histogram, 0.5),
                   obs::histogram_quantile(histogram.bounds(), counts, 0.5));
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(histogram, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(histogram, 0.75), 3.0);
}

TEST(ObsMetrics, RegistryJsonDumpRoundTrips) {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("obs_test_counter", "test counter").add(3);
  registry.histogram("obs_test_hist").observe(0.5);
  const json::ParseResult parsed = json::parse(registry.json());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("schema", ""), obs::kMetricsSchema);
  ASSERT_NE(parsed.value.find("counters"), nullptr);
  ASSERT_NE(parsed.value.find("gauges"), nullptr);
  ASSERT_NE(parsed.value.find("histograms"), nullptr);
  // Prometheus text exposition of the same registry mentions the counter.
  const std::string text = registry.text();
  EXPECT_NE(text.find("# TYPE obs_test_counter counter"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

// One plan_madpipe run publishes exactly its PlannerStats.
TEST(ObsRegistryParity, PlannerStatsMatchRegistryAfterOnePlan) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset_for_tests();

  const Chain chain = make_uniform_chain(4, ms(2), ms(4), MB, 8 * MB, MB);
  const Platform platform{2, 2 * GB, 12 * GB};
  const std::optional<Plan> plan = plan_madpipe(chain, platform);
  ASSERT_TRUE(plan.has_value());

  EXPECT_EQ(registry.counter("madpipe_planner_dp_probes_total").value(),
            plan->stats.dp_probes);
  EXPECT_EQ(registry.counter("madpipe_planner_dp_states_total").value(),
            plan->stats.dp_states);
  EXPECT_EQ(registry.counter("madpipe_planner_phase1_probes_total").value(),
            plan->stats.phase1_probes);
  EXPECT_EQ(registry.counter("madpipe_planner_phase2_probes_total").value(),
            plan->stats.phase2_probes);
  EXPECT_EQ(registry.counter("madpipe_planner_memo_hits_total").value(),
            plan->stats.memo_hits);
  EXPECT_EQ(registry.counter("madpipe_planner_phase1_speculative_probes_total")
                .value(),
            plan->stats.speculative_probes);
  EXPECT_EQ(registry.counter("madpipe_planner_phase2_speculative_probes_total")
                .value(),
            plan->stats.phase2_speculative_probes);
  EXPECT_EQ(registry.counter("madpipe_planner_phase2_budget_hits_total").value(),
            plan->stats.phase2_budget_hits);
  // Exactly one plan → one observation in each phase-wall histogram.
  EXPECT_EQ(registry.histogram("madpipe_planner_phase1_seconds").count(), 1);
  EXPECT_EQ(registry.histogram("madpipe_planner_phase2_seconds").count(), 1);
}

// The serve layer bumps its registry metrics live; after a miss + a hit the
// cumulative counters must equal the ServeStats snapshot.
TEST(ObsRegistryParity, ServeMetricsMatchServeStats) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset_for_tests();

  const Chain chain = make_uniform_chain(4, ms(2), ms(4), MB, 8 * MB, MB);
  const Platform platform{2, 2 * GB, 12 * GB};
  serve::ServiceOptions options;
  options.workers = 1;
  serve::PlanService service(options);
  const serve::PlanRequest request{"obs", chain, platform,
                                   serve::PlannerKind::MadPipe,
                                   MadPipeOptions{}, 0.0};
  ASSERT_EQ(service.plan(request).status, serve::ResponseStatus::Ok);
  ASSERT_EQ(service.plan(request).status, serve::ResponseStatus::Ok);

  const serve::ServeStats stats = service.stats();
  ASSERT_EQ(stats.requests, 2);
  ASSERT_EQ(stats.hits, 1);
  ASSERT_EQ(stats.misses, 1);
  EXPECT_EQ(registry.counter("madpipe_serve_requests_total").value(),
            stats.requests);
  EXPECT_EQ(registry.counter("madpipe_serve_hits_total").value(), stats.hits);
  EXPECT_EQ(registry.counter("madpipe_serve_misses_total").value(),
            stats.misses);
  EXPECT_EQ(registry.counter("madpipe_serve_planner_runs_total").value(),
            stats.planner_runs);
  // stats() refreshes the cache gauges from the cache counters.
  EXPECT_EQ(registry.gauge("madpipe_serve_cache_entries").value(),
            static_cast<double>(stats.cache_entries));
  // Latency histograms saw one hit and one miss.
  EXPECT_EQ(registry.histogram("madpipe_serve_hit_latency_seconds").count(),
            1);
  EXPECT_EQ(registry.histogram("madpipe_serve_miss_latency_seconds").count(),
            1);
}

}  // namespace
}  // namespace madpipe
