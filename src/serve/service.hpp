// PlanService: the traffic-bearing front end to plan_madpipe.
//
// submit() canonicalizes the request, then takes the cheapest path that can
// serve it:
//
//   1. cache hit   — the stored canonical plan is rescaled to the request's
//                    units and the future completes immediately (no queue,
//                    no planner, microseconds);
//   2. coalesce    — an identical canonical request is already being
//                    planned: attach to it, one planning run feeds K waiters
//                    (each denormalized with its own units);
//   3. enqueue     — hand the request to the bounded worker pool; when the
//                    queue is full the request is REJECTED immediately
//                    (backpressure — a full queue must shed load, not grow).
//
// Deadlines map onto the DP's max_states safety valve: when a request's
// deadline is near (or past) at dequeue time, its per-probe state budget is
// shrunk to roughly states_per_second × remaining / expected_probes, so an
// over-deadline request degrades to a truncated best-effort plan (flagged
// `degraded`, never cached) instead of stalling the queue at full cost.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "report/plan_report.hpp"
#include "serve/plan_cache.hpp"
#include "serve/request.hpp"
#include "serve/serve_stats.hpp"

namespace madpipe::serve {

enum class ResponseStatus {
  Ok,          ///< plan present
  Infeasible,  ///< planner ran; no allocation fits memory
  Rejected,    ///< queue full — retry later / elsewhere
  Error,       ///< invalid request or planner failure
  Shutdown,    ///< service destroyed before the queued request started
};

enum class CacheOutcome { Miss, Hit, Coalesced, None };

const char* to_string(ResponseStatus status) noexcept;
const char* to_string(CacheOutcome outcome) noexcept;

/// Wall-clock breakdown of where one request spent its latency. Attached to
/// a PlanResponse only when the request asked for it
/// (PlanRequest::report_timings / protocol option `timings`). Phases the
/// request never traversed (e.g. plan on a cache hit) stay 0.
struct PhaseTimings {
  double cache_seconds = 0.0;  ///< canonicalization + plan-cache probe
  double queue_seconds = 0.0;  ///< enqueue → a worker dequeued the job
  double plan_seconds = 0.0;   ///< planner wall time (shared by coalesced
                               ///< waiters — one run fed them all)
};

struct PlanResponse {
  std::string id;
  ResponseStatus status = ResponseStatus::Error;
  CacheOutcome cache = CacheOutcome::None;
  /// The deadline forced a reduced DP state budget AND the valve actually
  /// truncated the search: the result is best-effort, not the full plan.
  bool degraded = false;
  std::optional<Plan> plan;  ///< in request units; present iff status == Ok
  std::string error;
  double latency_seconds = 0.0;  ///< submit → completion
  /// Present iff the request set report_timings.
  std::optional<PhaseTimings> phases;
  /// Present iff the request set report_explain and a plan was produced.
  /// Always in request units (canonical summaries are rescaled per waiter).
  std::optional<report::ExplainSummary> explain;
  /// Echo of the request's trace id (assigned at ingress if the caller
  /// left it 0). Cache-key-inert: two requests differing only here share
  /// a cache entry and receive bit-identical plans.
  std::uint64_t trace_id = 0;
};

struct ServiceOptions {
  std::size_t workers = 2;         ///< planning threads; 0 = hardware threads
  std::size_t queue_capacity = 64; ///< pending (non-coalesced) requests
  PlanCacheOptions cache;
  /// Applied when a request carries no deadline of its own; 0 = none.
  Seconds default_deadline_seconds = 0.0;
  /// Deadline → state-budget conversion rate. The default is conservative
  /// for paper-scale chains (perfbench's `madpipe.states_per_s` measures
  /// the flat engine's actual rate).
  double states_per_second = 1e6;
  /// Floor for the reduced budget: even a hopelessly late request explores
  /// this many states per probe so "degraded" still means "tried".
  std::size_t min_state_budget = 20'000;
  /// Probes a deadline is spread over (Algorithm 1 runs `iterations` DP
  /// probes; speculative extras run concurrently and share the wall clock).
  int expected_probes = 10;
};

/// Delivery sink for submit_async: invoked exactly once per request, from
/// whichever thread completes it (the submitter on hit/reject, a planner
/// worker on miss, the destructor thread on shutdown-cancel). Must not
/// block and must not call back into the service.
using ResponseCallback = std::function<void(PlanResponse&&)>;

class PlanService {
 public:
  explicit PlanService(const ServiceOptions& options = {});
  /// Completes every accepted request, then joins: in-flight planning runs
  /// finish normally; queued-but-unstarted jobs are cancelled with
  /// ResponseStatus::Shutdown (destruction must not wait out the backlog).
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Returns immediately; the future completes on hit/reject now, or when a
  /// worker finishes planning.
  std::future<PlanResponse> submit(PlanRequest request);

  /// Callback-style submission for event-driven callers (the TCP front-end):
  /// no future/promise pair per request, the callback fires once with the
  /// response. Cache hits and rejections invoke it before submit_async
  /// returns, on the submitting thread.
  void submit_async(PlanRequest request, ResponseCallback callback);

  /// Synchronous convenience wrapper.
  PlanResponse plan(PlanRequest request);

  /// Jobs accepted but not yet picked up by a worker. Admission-control
  /// signal for front-ends that want to shed load before the queue fills.
  std::size_t queue_depth() const;

  std::size_t worker_count() const { return workers_.size(); }
  std::size_t queue_capacity() const { return options_.queue_capacity; }

  /// This service's counters (the registry holds the sum over services).
  ServeStats stats() const;
  PlanCacheCounters cache_counters() const { return cache_.counters(); }

  /// Set the registry's madpipe_serve_cache_* gauges from cache(). The
  /// service calls it whenever it changes its cache; a caller that changes
  /// cache() directly (a snapshot load) calls it afterwards.
  void mirror_cache();

  ShardedPlanCache& cache() { return cache_; }
  const ShardedPlanCache& cache() const { return cache_; }

 private:
  struct Waiter {
    std::promise<PlanResponse> promise;
    ResponseCallback callback;  ///< when set, delivery bypasses the promise
    std::string id;
    double time_unit = 1.0;  ///< for per-waiter denormalization
    double byte_unit = 1.0;  ///< for per-waiter ExplainSummary rescaling
    std::chrono::steady_clock::time_point submitted;
    CacheOutcome outcome = CacheOutcome::Miss;
    bool report_timings = false;
    bool report_explain = false;
    double cache_seconds = 0.0;  ///< this waiter's submit-side cache phase
    std::uint64_t trace_id = 0;  ///< request trace id (echoed, sampled)
    /// Ingress → cache-probe-done, the sampled "admission" phase (frame
    /// read + parse + dispatch queue + canonicalization + cache probe).
    double admission_seconds = 0.0;
  };
  /// One in-flight canonical computation and everyone waiting on it.
  struct Pending {
    std::string fingerprint;
    std::vector<std::unique_ptr<Waiter>> waiters;
  };
  struct Job {
    std::shared_ptr<Pending> pending;
    CanonicalRequest canonical;
    MadPipeOptions options;
    Seconds deadline_seconds = 0.0;
    std::chrono::steady_clock::time_point submitted;
    std::int64_t enqueue_ns = 0;  ///< obs::now_ns() at enqueue (queue span)
    /// Trace id of the waiter that created the job (the first miss): the
    /// worker runs queue_wait/serve_plan/planner spans under this id.
    std::uint64_t trace_id = 0;
  };

  /// Shared body of submit/submit_async: the waiter already carries its
  /// delivery channel (promise or callback).
  void submit_impl(PlanRequest request, std::unique_ptr<Waiter> waiter);
  /// Invoke the waiter's callback or fulfill its promise — exactly once.
  static void deliver(Waiter& waiter, PlanResponse&& response);
  /// Hand the completed request to the tail sampler (no-op when sampling
  /// is disarmed). Called after the request's spans have closed and
  /// before delivery.
  static void sample_completion(const Waiter& waiter,
                                const PlanResponse& response,
                                const PhaseTimings& timings);

  void worker_loop();
  void run_job(Job& job);
  /// `timings.cache_seconds` is per-waiter and filled in here; queue/plan
  /// seconds are the job's and shared by every waiter.
  void fulfill(Pending& pending, const CachedPlan& cached,
               ResponseStatus status, bool degraded, const std::string& error,
               const PhaseTimings& timings,
               const std::optional<report::ExplainSummary>& canonical_summary);

  ServiceOptions options_;
  ShardedPlanCache cache_;

  mutable std::mutex mutex_;  ///< guards queue_, pending_, stop_
  std::condition_variable work_available_;
  std::deque<Job> queue_;
  /// fingerprint → in-flight computation (coalescing registry).
  std::vector<std::pair<std::string, std::shared_ptr<Pending>>> pending_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  /// This service's counters and latency histograms; each bump also adds
  /// to the process-wide registry.
  ServeCounters counters_;
};

}  // namespace madpipe::serve
