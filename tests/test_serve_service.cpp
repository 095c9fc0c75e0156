// PlanService end-to-end tests: golden bit-identity with direct planning,
// cache hits that provably skip the DP, request coalescing, backpressure
// rejection, deadline degradation, and clean shutdown under load.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace madpipe::serve {
namespace {

Chain ragged_chain(double time_factor = 1.0, double byte_factor = 1.0) {
  std::vector<Layer> layers;
  for (int l = 1; l <= 8; ++l) {
    Layer layer;
    layer.name = "l" + std::to_string(l);
    layer.forward_time = ms(1.0 + 0.37 * l) * time_factor;
    layer.backward_time = ms(2.0 + 0.61 * l) * time_factor;
    layer.weight_bytes = (3.0 + l) * MB * byte_factor;
    layer.output_bytes = (40.0 + 7.0 * l) * MB * byte_factor;
    layers.push_back(layer);
  }
  return Chain("ragged", 25 * MB * byte_factor, std::move(layers));
}

MadPipeOptions quick_options() {
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  return options;
}

PlanRequest make_request(const std::string& id, double time_factor = 1.0,
                         double byte_factor = 1.0) {
  return PlanRequest{id,
                     ragged_chain(time_factor, byte_factor),
                     Platform{4, 2 * GB * byte_factor,
                              12 * GB * byte_factor / time_factor},
                     quick_options(),
                     0.0};
}

TEST(ServeService, MissThenHitAreBitIdenticalToDirectPlanning) {
  const PlanRequest request = make_request("golden");
  const std::optional<Plan> direct =
      plan_madpipe(request.chain, request.platform, quick_options());
  ASSERT_TRUE(direct.has_value());

  PlanService service;
  const PlanResponse miss = service.plan(request);
  EXPECT_EQ(miss.status, ResponseStatus::Ok);
  EXPECT_EQ(miss.cache, CacheOutcome::Miss);
  ASSERT_TRUE(miss.plan.has_value());
  EXPECT_TRUE(plans_bit_identical(*miss.plan, *direct));

  const PlanResponse hit = service.plan(request);
  EXPECT_EQ(hit.status, ResponseStatus::Ok);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  ASSERT_TRUE(hit.plan.has_value());
  EXPECT_TRUE(plans_bit_identical(*hit.plan, *direct));
}

TEST(ServeService, HitsAreServedWithoutRerunningTheDp) {
  PlanService service;
  const PlanRequest request = make_request("nodp");
  const PlanResponse miss = service.plan(request);
  ASSERT_TRUE(miss.plan.has_value());
  const long long runs_after_miss = service.stats().planner_runs;
  EXPECT_EQ(runs_after_miss, 1);
  for (int i = 0; i < 10; ++i) {
    const PlanResponse hit = service.plan(request);
    EXPECT_EQ(hit.cache, CacheOutcome::Hit);
    // PlannerStats probe counters of the served plan stay those of the one
    // original run: nothing re-planned, re-probed or re-memoized.
    ASSERT_TRUE(hit.plan.has_value());
    EXPECT_EQ(hit.plan->stats.dp_probes, miss.plan->stats.dp_probes);
    EXPECT_EQ(hit.plan->stats.dp_states, miss.plan->stats.dp_states);
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.planner_runs, 1);
  EXPECT_EQ(stats.hits, 10);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ServeService, Pow2RescaledRequestHitsAndMatchesDirectPlanning) {
  PlanService service;
  service.plan(make_request("base"));

  const PlanRequest scaled = make_request("scaled", 16.0, 2.0);
  const PlanResponse hit = service.plan(scaled);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  ASSERT_TRUE(hit.plan.has_value());

  const std::optional<Plan> direct =
      plan_madpipe(scaled.chain, scaled.platform, quick_options());
  ASSERT_TRUE(direct.has_value());
  EXPECT_TRUE(plans_bit_identical(*hit.plan, *direct));

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.planner_runs, 1);
  EXPECT_EQ(stats.scaled_hits, 1);
}

TEST(ServeService, IdenticalConcurrentRequestsCoalesceIntoOneRun) {
  ServiceOptions options;
  options.workers = 4;
  PlanService service(options);
  constexpr int kClients = 12;
  const PlanRequest request = make_request("coalesce");
  std::vector<std::future<PlanResponse>> futures;
  futures.reserve(kClients);
  for (int c = 0; c < kClients; ++c) futures.push_back(service.submit(request));
  std::optional<Plan> first;
  int coalesced = 0;
  for (std::future<PlanResponse>& future : futures) {
    PlanResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    ASSERT_TRUE(response.plan.has_value());
    if (!first.has_value()) first = *response.plan;
    EXPECT_TRUE(plans_bit_identical(*response.plan, *first));
    if (response.cache == CacheOutcome::Coalesced) ++coalesced;
  }
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.planner_runs, 1);
  EXPECT_EQ(stats.coalesced, coalesced);
  EXPECT_EQ(stats.coalesced + stats.misses + stats.hits, kClients);
}

// The paper-scale resnet101 request (24 layers, P=4, M=8 GB, default
// options) plans long enough for all 16 concurrent submits to land while the
// first run is in flight, so the coalescing count is exact. A cache hit of
// it is a lookup: its median latency is at least 100x below a cold plan.
TEST(ServeService, PaperRequestCoalescesExactlyAndHitsBeatAColdPlan) {
  using Clock = std::chrono::steady_clock;
  const PlanRequest request{"r101",
                            models::paper_network("resnet101"),
                            Platform{4, 8 * GB, 12 * GB},
                            MadPipeOptions{},
                            0.0};
  const Clock::time_point cold_start = Clock::now();
  ASSERT_TRUE(plan_madpipe(request.chain, request.platform, request.options)
                  .has_value());
  const double cold_seconds =
      std::chrono::duration<double>(Clock::now() - cold_start).count();

  ServiceOptions options;
  options.workers = 4;
  PlanService service(options);
  constexpr int kClients = 16;
  std::vector<std::future<PlanResponse>> futures;
  for (int c = 0; c < kClients; ++c) futures.push_back(service.submit(request));
  for (std::future<PlanResponse>& future : futures) {
    EXPECT_EQ(future.get().status, ResponseStatus::Ok);
  }
  EXPECT_EQ(service.stats().planner_runs, 1);
  EXPECT_EQ(service.stats().coalesced, kClients - 1);

  constexpr int kHits = 200;
  std::vector<double> hit_seconds;
  for (int i = 0; i < kHits; ++i) {
    const Clock::time_point start = Clock::now();
    const PlanResponse hit = service.plan(request);
    hit_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    ASSERT_EQ(hit.cache, CacheOutcome::Hit);
  }
  const double hit_p50 = stats::percentile(hit_seconds, 0.50);
  EXPECT_GE(cold_seconds / hit_p50, 100.0)
      << "cold " << cold_seconds << " s, median hit " << hit_p50 << " s";
  EXPECT_EQ(service.stats().errors, 0);
}

// options.explain is cache-key-inert: a request asking for the summary and
// one that does not share the cache entry, the served plans are bit
// identical, and the summary only travels when asked for. Exercises all
// three paths: miss (canonical summary rescaled per waiter), plain hit,
// and hit with explain (computed directly in request units).
TEST(ServeService, ExplainIsCacheKeyInertAcrossMissAndHit) {
  PlanRequest plain = make_request("plain");
  PlanRequest explained = make_request("explained");
  explained.report_explain = true;
  EXPECT_EQ(canonicalize(plain).fingerprint,
            canonicalize(explained).fingerprint);
  EXPECT_EQ(canonicalize(plain).key, canonicalize(explained).key);

  PlanService service;
  const PlanResponse miss = service.plan(explained);
  EXPECT_EQ(miss.status, ResponseStatus::Ok);
  EXPECT_EQ(miss.cache, CacheOutcome::Miss);
  ASSERT_TRUE(miss.plan.has_value());
  ASSERT_TRUE(miss.explain.has_value());
  EXPECT_GT(miss.explain->period, 0.0);
  EXPECT_EQ(miss.explain->period, miss.plan->period());
  EXPECT_FALSE(miss.explain->critical_resource.empty());
  EXPECT_GE(miss.explain->critical_utilization, 0.0);
  EXPECT_LE(miss.explain->critical_utilization, 1.0);
  EXPECT_GT(miss.explain->memory_peak_bytes, 0.0);
  EXPECT_LE(miss.explain->memory_peak_bytes,
            plain.platform.memory_per_processor);

  // The explain flag did not fork the cache: the plain request hits, gets
  // the bit-identical plan, and carries no summary.
  const PlanResponse hit = service.plan(plain);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  ASSERT_TRUE(hit.plan.has_value());
  EXPECT_TRUE(plans_bit_identical(*hit.plan, *miss.plan));
  EXPECT_FALSE(hit.explain.has_value());

  // A hit that asks again gets the same summary bit for bit: the hit path
  // computes it directly in request units, the miss path rescaled the
  // canonical one — identical because the units are powers of two.
  const PlanResponse hit_explained = service.plan(explained);
  EXPECT_EQ(hit_explained.cache, CacheOutcome::Hit);
  ASSERT_TRUE(hit_explained.explain.has_value());
  EXPECT_EQ(hit_explained.explain->period, miss.explain->period);
  EXPECT_EQ(hit_explained.explain->critical_resource,
            miss.explain->critical_resource);
  EXPECT_EQ(hit_explained.explain->critical_utilization,
            miss.explain->critical_utilization);
  EXPECT_EQ(hit_explained.explain->memory_peak_bytes,
            miss.explain->memory_peak_bytes);
  EXPECT_EQ(hit_explained.explain->memory_headroom_bytes,
            miss.explain->memory_headroom_bytes);
  EXPECT_EQ(hit_explained.explain->binding_gpu, miss.explain->binding_gpu);
  EXPECT_EQ(hit_explained.explain->binding_term, miss.explain->binding_term);
  EXPECT_EQ(service.stats().planner_runs, 1);
}

// A power-of-two rescaled request served from cache carries a summary in
// *its* units: period and bytes scale exactly, ratios do not move.
TEST(ServeService, ExplainSummaryIsServedInRequestUnits) {
  PlanService service;
  PlanRequest base = make_request("base");
  base.report_explain = true;
  const PlanResponse miss = service.plan(base);
  ASSERT_TRUE(miss.explain.has_value());

  PlanRequest scaled = make_request("scaled", 16.0, 2.0);
  scaled.report_explain = true;
  const PlanResponse hit = service.plan(scaled);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  ASSERT_TRUE(hit.explain.has_value());
  EXPECT_EQ(hit.explain->period, miss.explain->period * 16.0);
  EXPECT_EQ(hit.explain->memory_peak_bytes,
            miss.explain->memory_peak_bytes * 2.0);
  EXPECT_EQ(hit.explain->memory_headroom_bytes,
            miss.explain->memory_headroom_bytes * 2.0);
  EXPECT_EQ(hit.explain->critical_utilization,
            miss.explain->critical_utilization);
  EXPECT_EQ(hit.explain->mean_gpu_utilization,
            miss.explain->mean_gpu_utilization);
  EXPECT_EQ(hit.explain->binding_gpu, miss.explain->binding_gpu);
  EXPECT_EQ(service.stats().planner_runs, 1);
}

TEST(ServeService, FullQueueRejectsImmediately) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  PlanService service(options);
  // Distinct requests (different gpu counts) so nothing coalesces; a single
  // worker grinds through them while the queue backs up.
  std::vector<std::future<PlanResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    PlanRequest request = make_request("load" + std::to_string(i));
    request.platform.memory_per_processor = (2.0 + 0.125 * i) * GB;
    futures.push_back(service.submit(std::move(request)));
  }
  int rejected = 0;
  for (std::future<PlanResponse>& future : futures) {
    const PlanResponse response = future.get();
    if (response.status == ResponseStatus::Rejected) {
      ++rejected;
      EXPECT_FALSE(response.plan.has_value());
      EXPECT_FALSE(response.error.empty());
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(service.stats().rejected, rejected);
}

TEST(ServeService, PastDeadlineDegradesInsteadOfStalling) {
  ServiceOptions options;
  options.workers = 1;
  // An expired deadline clamps every probe to the floor budget; a floor of
  // one state guarantees the valve fires.
  options.min_state_budget = 1;
  options.states_per_second = 1.0;
  PlanService service(options);
  PlanRequest request = make_request("late");
  request.deadline_seconds = 1e-9;  // effectively already over
  const PlanResponse response = service.plan(request);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(service.stats().degraded, 1);

  // Degraded results are not cached: a healthy follow-up re-plans fully and
  // the full-fidelity result is bit-identical to direct planning.
  PlanRequest healthy = make_request("ontime");
  const PlanResponse full = service.plan(healthy);
  EXPECT_EQ(full.cache, CacheOutcome::Miss);
  EXPECT_FALSE(full.degraded);
  ASSERT_TRUE(full.plan.has_value());
  const std::optional<Plan> direct =
      plan_madpipe(healthy.chain, healthy.platform, quick_options());
  ASSERT_TRUE(direct.has_value());
  EXPECT_TRUE(plans_bit_identical(*full.plan, *direct));
  EXPECT_EQ(service.stats().planner_runs, 2);
}

TEST(ServeService, InfeasibleRequestsAreNegativelyCached) {
  PlanService service;
  PlanRequest request = make_request("hopeless");
  request.platform.memory_per_processor = MB;  // nothing fits
  const PlanResponse miss = service.plan(request);
  EXPECT_EQ(miss.status, ResponseStatus::Infeasible);
  EXPECT_FALSE(miss.plan.has_value());
  const PlanResponse hit = service.plan(request);
  EXPECT_EQ(hit.status, ResponseStatus::Infeasible);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  EXPECT_EQ(service.stats().planner_runs, 1);
}

TEST(ServeService, DestructorDrainsAcceptedWork) {
  std::vector<std::future<PlanResponse>> futures;
  {
    ServiceOptions options;
    options.workers = 2;
    PlanService service(options);
    for (int i = 0; i < 6; ++i) {
      PlanRequest request = make_request("drain" + std::to_string(i));
      request.platform.memory_per_processor = (2.0 + 0.25 * i) * GB;
      futures.push_back(service.submit(std::move(request)));
    }
    // Service destroyed here with work still queued.
  }
  for (std::future<PlanResponse>& future : futures) {
    const PlanResponse response = future.get();  // must not hang or throw
    EXPECT_NE(response.status, ResponseStatus::Error);
  }
}

TEST(ServeService, DestructionCancelsQueuedJobsWithShutdownStatus) {
  std::future<PlanResponse> running;
  std::vector<std::future<PlanResponse>> queued;
  {
    ServiceOptions options;
    options.workers = 1;
    PlanService service(options);
    // A paper-scale chain on full default grids keeps the single worker
    // busy for >100 ms — long enough to observe the backlog deterministically.
    models::NetworkConfig config;
    config.network = "resnet50";
    config.chain_length = 16;
    PlanRequest slow{"running",
                     models::build_network(config),
                     Platform{4, 8 * GB, 12 * GB},
                     MadPipeOptions{},
                     0.0};
    running = service.submit(std::move(slow));
    for (int i = 0; i < 3; ++i) {
      PlanRequest request = make_request("queued" + std::to_string(i));
      request.platform.memory_per_processor = (2.0 + 0.25 * (i + 1)) * GB;
      queued.push_back(service.submit(std::move(request)));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    // Exactly 3 queued means the worker has dequeued the slow job and the
    // three cheap ones all wait behind it.
    while (service.queue_depth() != 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.queue_depth(), 3u);
    // Service destroyed here: the running job finishes, the queued three
    // must be cancelled with the distinct Shutdown status — not Error, not
    // a silent hang waiting out the backlog.
  }
  EXPECT_EQ(running.get().status, ResponseStatus::Ok);
  for (std::future<PlanResponse>& future : queued) {
    const PlanResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::Shutdown);
    EXPECT_FALSE(response.error.empty());
    EXPECT_FALSE(response.plan.has_value());
  }
}

TEST(ServeService, SubmitAsyncCallbacksCarryShutdownStatusMidDrain) {
  // The callback path must honor the same drain contract as the future
  // path: destroying the service with a backlog fires every pending
  // callback exactly once, queued-but-unstarted jobs with Shutdown (the
  // fleet/TCP front-ends key retry logic off that distinction).
  std::mutex mutex;
  std::map<std::string, ResponseStatus> delivered;
  std::map<std::string, int> deliveries;
  {
    ServiceOptions options;
    options.workers = 1;
    PlanService service(options);
    auto capture = [&](PlanResponse&& response) {
      std::lock_guard<std::mutex> lock(mutex);
      delivered[response.id] = response.status;
      ++deliveries[response.id];
    };
    models::NetworkConfig config;
    config.network = "resnet50";
    config.chain_length = 16;
    PlanRequest slow{"running",
                     models::build_network(config),
                     Platform{4, 8 * GB, 12 * GB},
                     MadPipeOptions{},
                     0.0};
    service.submit_async(std::move(slow), capture);
    for (int i = 0; i < 3; ++i) {
      PlanRequest request = make_request("cancelled" + std::to_string(i));
      request.platform.memory_per_processor = (2.0 + 0.25 * (i + 1)) * GB;
      service.submit_async(std::move(request), capture);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.queue_depth() != 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.queue_depth(), 3u);
    // Destruction drains: the running job completes, the queued three are
    // cancelled — all through the callbacks, no futures anywhere.
  }
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered["running"], ResponseStatus::Ok);
  for (int i = 0; i < 3; ++i) {
    const std::string id = "cancelled" + std::to_string(i);
    EXPECT_EQ(delivered[id], ResponseStatus::Shutdown) << id;
    EXPECT_EQ(deliveries[id], 1) << id << " must be delivered exactly once";
  }
  EXPECT_EQ(deliveries["running"], 1);
}

TEST(ServeService, StatsSnapshotIsCoherent) {
  PlanService service;
  const PlanRequest request = make_request("stats");
  service.plan(request);
  service.plan(request);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced + stats.rejected, 2);
  EXPECT_EQ(stats.cache_entries, 1);
  EXPECT_GT(stats.cache_bytes, 0);
  EXPECT_GT(stats.miss_p50_seconds, 0.0);
  EXPECT_GT(stats.hit_p50_seconds, 0.0);
}

// The service plans every miss at one lane, whatever speculation width the
// request carries: no probe runs ahead of need in either phase, and the
// plan is the one plan_madpipe returns at its default (auto) width.
TEST(ServeService, MissPlansAtOneLane) {
  PlanRequest noncontig{"noncontig", models::paper_network("resnet50"),
                        Platform{4, 8 * GB, 12 * GB}, MadPipeOptions{}, 0.0};
  PlanRequest contig{"contig", models::paper_network("resnet50"),
                     Platform{8, 4 * GB, 12 * GB}, MadPipeOptions{}, 0.0};
  contig.options.phase1.speculation = 4;
  contig.options.phase2.speculation = 4;

  PlanService service;
  for (const PlanRequest* request : {&noncontig, &contig}) {
    SCOPED_TRACE(request->id);
    const std::optional<Plan> direct =
        plan_madpipe(request->chain, request->platform, MadPipeOptions{});
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(direct->allocation.contiguous(), request == &contig);

    const PlanResponse miss = service.plan(*request);
    ASSERT_EQ(miss.status, ResponseStatus::Ok);
    EXPECT_EQ(miss.cache, CacheOutcome::Miss);
    ASSERT_TRUE(miss.plan.has_value());
    EXPECT_GT(miss.plan->stats.phase1_probes, 0);
    EXPECT_EQ(miss.plan->stats.speculative_probes, 0);
    EXPECT_EQ(miss.plan->stats.phase2_speculative_probes, 0);
    EXPECT_TRUE(plans_bit_identical(*miss.plan, *direct));
  }
}

// The cache gauges on /metrics follow the cache as the service changes it:
// `madpipe serve --listen` never calls stats(), so a planned, cached miss
// must show up without one.
TEST(ServeService, CacheGaugesFollowAMissWithoutAStatsCall) {
  PlanService service;
  ASSERT_EQ(service.plan(make_request("gauge")).cache, CacheOutcome::Miss);
  const std::string text = obs::Registry::global().text();
  EXPECT_NE(text.find("\nmadpipe_serve_cache_entries 1\n"), std::string::npos)
      << text;
  const PlanCacheCounters cache = service.cache_counters();
  EXPECT_NE(text.find("\nmadpipe_serve_cache_bytes " +
                      std::to_string(cache.bytes) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace madpipe::serve
