#include "serve/service.hpp"

#include <algorithm>
#include <chrono>

#include "obs/tail_sampler.hpp"
#include "obs/trace.hpp"
#include "util/threading.hpp"

namespace madpipe::serve {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Refresh the derived madpipe_serve_hit_rate gauge. Caller holds no lock:
/// the counters are monotonic registry atomics.
void refresh_hit_rate() {
  ServeMetrics& metrics = serve_metrics();
  const long long requests = metrics.requests.value();
  if (requests <= 0) return;
  metrics.hit_rate.set(static_cast<double>(metrics.hits.value()) /
                       static_cast<double>(requests));
}
}  // namespace

const char* to_string(ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::Ok: return "ok";
    case ResponseStatus::Infeasible: return "infeasible";
    case ResponseStatus::Rejected: return "rejected";
    case ResponseStatus::Error: return "error";
    case ResponseStatus::Shutdown: return "shutdown";
  }
  return "unknown";
}

const char* to_string(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::Miss: return "miss";
    case CacheOutcome::Hit: return "hit";
    case CacheOutcome::Coalesced: return "coalesced";
    case CacheOutcome::None: return "none";
  }
  return "unknown";
}

PlanService::PlanService(const ServiceOptions& options)
    : options_(options), cache_(options.cache) {
  // Materialize the serve metrics (including the live queue-depth gauge)
  // up front so a /metrics scrape sees them before the first request.
  serve_metrics().queue_depth.set(0.0);
  std::size_t workers = options.workers;
  if (workers == 0) workers = par::default_workers();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PlanService::~PlanService() {
  // Cancel everything no worker has started: destruction completes the
  // backlog with Shutdown instead of planning it. In-flight jobs (already
  // dequeued) finish normally and fulfill their waiters as usual.
  std::vector<Job> cancelled;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    while (!queue_.empty()) {
      cancelled.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    for (const Job& job : cancelled) {
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].second.get() == job.pending.get()) {
          pending_[i] = std::move(pending_.back());
          pending_.pop_back();
          break;
        }
      }
    }
  }
  work_available_.notify_all();
  for (Job& job : cancelled) {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      counters_.shutdowns +=
          static_cast<long long>(job.pending->waiters.size());
    }
    for (std::unique_ptr<Waiter>& waiter : job.pending->waiters) {
      serve_metrics().shutdowns.increment();
      PlanResponse response;
      response.id = waiter->id;
      response.trace_id = waiter->trace_id;
      response.status = ResponseStatus::Shutdown;
      response.cache = waiter->outcome;
      response.error = "service shut down before planning started";
      response.latency_seconds = seconds_since(waiter->submitted);
      PhaseTimings timings;
      timings.cache_seconds = waiter->cache_seconds;
      if (waiter->report_timings) response.phases = timings;
      sample_completion(*waiter, response, timings);
      deliver(*waiter, std::move(response));
    }
  }
  serve_metrics().queue_depth.set(0.0);
  for (std::thread& worker : workers_) worker.join();
}

std::future<PlanResponse> PlanService::submit(PlanRequest request) {
  auto waiter = std::make_unique<Waiter>();
  std::future<PlanResponse> future = waiter->promise.get_future();
  submit_impl(std::move(request), std::move(waiter));
  return future;
}

void PlanService::submit_async(PlanRequest request,
                               ResponseCallback callback) {
  auto waiter = std::make_unique<Waiter>();
  waiter->callback = std::move(callback);
  submit_impl(std::move(request), std::move(waiter));
}

void PlanService::deliver(Waiter& waiter, PlanResponse&& response) {
  if (waiter.callback) {
    waiter.callback(std::move(response));
  } else {
    waiter.promise.set_value(std::move(response));
  }
}

std::size_t PlanService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void PlanService::submit_impl(PlanRequest request,
                              std::unique_ptr<Waiter> waiter) {
  const Clock::time_point submitted = Clock::now();
  // Ingress: requests that arrived without a trace id (batch lines, direct
  // API callers) get one here; the TCP front-end stamps its own at frame
  // admission. Everything this request does — on this thread and on the
  // planner worker — runs under a TraceContextScope carrying the id.
  if (request.trace_id == 0) request.trace_id = obs::next_trace_id();
  if (request.ingress_ns == 0) request.ingress_ns = obs::now_ns();
  const bool sampling = obs::tail_enabled();
  if (sampling) obs::tail_sampler().begin(request.trace_id, request.ingress_ns);
  obs::TraceContextScope trace_scope(request.trace_id);
  // The span lives in an optional so the hit/reject paths can close it
  // *before* sampling + delivery: a sampled tree must contain its own
  // serve_submit span.
  std::optional<obs::Span> span;
  span.emplace("serve_submit", obs::kCatServe);
  std::optional<CachedPlan> cached;
  CanonicalRequest canonical = [&] {
    obs::Span lookup("cache_lookup", obs::kCatServe);
    CanonicalRequest result = canonicalize(request);
    cached = cache_.find(result);
    lookup.arg("hit", cached.has_value() ? 1 : 0);
    return result;
  }();
  const double cache_seconds = seconds_since(submitted);
  const double admission_seconds =
      static_cast<double>(obs::now_ns() - request.ingress_ns) * 1e-9;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.requests;
  }
  serve_metrics().requests.increment();
  waiter->id = request.id;
  waiter->trace_id = request.trace_id;
  waiter->cache_seconds = cache_seconds;
  waiter->admission_seconds = admission_seconds;
  waiter->submitted = submitted;

  // 1. Cache: a hit completes synchronously — no queue, no planner.
  const auto complete_hit = [&](const CachedPlan& hit) {
    span->arg("outcome", static_cast<long long>(CacheOutcome::Hit));
    PlanResponse response;
    response.id = request.id;
    response.trace_id = request.trace_id;
    response.cache = CacheOutcome::Hit;
    if (hit.feasible()) {
      response.status = ResponseStatus::Ok;
      response.plan = denormalize_plan(*hit.plan, canonical.time_unit);
      if (request.report_explain) {
        // The request's own chain/platform are at hand here, so summarize the
        // denormalized plan directly (bit-identical to summarizing the
        // canonical plan and rescaling: the units are powers of two).
        response.explain = report::build_explain_summary(
            *response.plan, request.chain, request.platform);
        serve_metrics().schedule_utilization.set(
            response.explain->mean_gpu_utilization);
        serve_metrics().memory_headroom_bytes.set(
            response.explain->memory_headroom_bytes);
      }
    } else {
      response.status = ResponseStatus::Infeasible;
    }
    response.latency_seconds = seconds_since(submitted);
    if (request.report_timings) {
      response.phases = PhaseTimings{cache_seconds, 0.0, 0.0};
    }
    hit_latency_.record(response.latency_seconds);
    serve_metrics().hit_latency.observe(response.latency_seconds);
    serve_metrics().hits.increment();
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.hits;
      if (canonical.time_unit != hit.creator_time_unit ||
          canonical.byte_unit != hit.creator_byte_unit) {
        // The entry was created by a request in different (power-of-two
        // related) units: the cache is being shared across a rescale.
        ++counters_.scaled_hits;
        serve_metrics().scaled_hits.increment();
      }
    }
    refresh_hit_rate();
    waiter->outcome = CacheOutcome::Hit;
    span.reset();  // close serve_submit so the sampled tree includes it
    sample_completion(*waiter, response,
                      PhaseTimings{cache_seconds, 0.0, 0.0});
    deliver(*waiter, std::move(response));
  };
  if (cached.has_value()) {
    complete_hit(*cached);
    return;
  }

  waiter->time_unit = canonical.time_unit;
  waiter->byte_unit = canonical.byte_unit;
  waiter->report_timings = request.report_timings;
  waiter->report_explain = request.report_explain;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // 2. Coalesce onto an identical in-flight computation.
    for (auto& [fingerprint, pending] : pending_) {
      if (fingerprint == canonical.fingerprint) {
        waiter->outcome = CacheOutcome::Coalesced;
        pending->waiters.push_back(std::move(waiter));
        lock.unlock();
        span->arg("outcome", static_cast<long long>(CacheOutcome::Coalesced));
        serve_metrics().coalesced.increment();
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++counters_.coalesced;
        return;
      }
    }
    // The run this request would coalesce onto may have inserted its plan
    // and retired its registration since the probe above. It inserts before
    // it retires, and it retires under mutex_, so probing again here finds
    // that plan instead of enqueueing a second planner run. (Lock order:
    // mutex_, then a cache shard's; the cache never calls back in.)
    if (std::optional<CachedPlan> late = cache_.find(canonical)) {
      lock.unlock();
      complete_hit(*late);
      return;
    }
    // 3. Enqueue, or reject under backpressure.
    if (queue_.size() >= options_.queue_capacity) {
      lock.unlock();
      span->arg("outcome", static_cast<long long>(CacheOutcome::None));
      PlanResponse response;
      response.id = request.id;
      response.trace_id = request.trace_id;
      response.status = ResponseStatus::Rejected;
      response.error = "queue full (" +
                       std::to_string(options_.queue_capacity) +
                       " pending requests)";
      response.latency_seconds = seconds_since(submitted);
      if (request.report_timings) {
        response.phases = PhaseTimings{cache_seconds, 0.0, 0.0};
      }
      serve_metrics().rejected.increment();
      {
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++counters_.rejected;
      }
      refresh_hit_rate();
      waiter->outcome = CacheOutcome::None;
      span.reset();
      sample_completion(*waiter, response,
                        PhaseTimings{cache_seconds, 0.0, 0.0});
      deliver(*waiter, std::move(response));
      return;
    }
    auto pending = std::make_shared<Pending>();
    pending->fingerprint = canonical.fingerprint;
    waiter->outcome = CacheOutcome::Miss;
    pending->waiters.push_back(std::move(waiter));
    pending_.emplace_back(canonical.fingerprint, pending);

    const Seconds deadline = request.deadline_seconds > 0.0
                                 ? request.deadline_seconds
                                 : options_.default_deadline_seconds;
    span->arg("outcome", static_cast<long long>(CacheOutcome::Miss));
    queue_.push_back(Job{std::move(pending), std::move(canonical),
                         planner_options(request), deadline, submitted,
                         obs::now_ns(), request.trace_id});
    serve_metrics().queue_depth.set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();
}

PlanResponse PlanService::plan(PlanRequest request) {
  return submit(std::move(request)).get();
}

void PlanService::worker_loop() {
  while (true) {
    std::optional<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain before stopping: every accepted future must complete.
      if (queue_.empty()) return;
      job.emplace(std::move(queue_.front()));
      queue_.pop_front();
      serve_metrics().queue_depth.set(static_cast<double>(queue_.size()));
    }
    run_job(*job);
  }
}

void PlanService::run_job(Job& job) {
  // The job's trace context crosses the thread boundary with the job: the
  // queue_wait event, serve_plan and every planner span below it are
  // stamped with the originating request's id.
  obs::TraceContextScope trace_scope(job.trace_id);
  // The queue phase just ended: the job waited from enqueue until this
  // worker picked it up.
  if ((obs::trace_enabled() || obs::tail_enabled()) && job.enqueue_ns != 0) {
    obs::emit_complete("queue_wait", obs::kCatServe, job.enqueue_ns,
                       obs::now_ns() - job.enqueue_ns);
  }
  PhaseTimings timings;
  timings.queue_seconds =
      static_cast<double>(obs::now_ns() - job.enqueue_ns) * 1e-9;
  const Clock::time_point plan_start = Clock::now();
  // Optional for the same reason as serve_submit: the span must close
  // before fulfill() hands the request trees to the tail sampler.
  std::optional<obs::Span> span;
  span.emplace("serve_plan", obs::kCatServe);

  // Deadline → state-budget valve. The budget shrinks with the remaining
  // wall clock; once it clamps below the configured max_states the run is a
  // candidate for degradation (it becomes "degraded" only if the valve
  // actually fires — an untruncated run is the full-fidelity result).
  bool budget_reduced = false;
  if (job.deadline_seconds > 0.0) {
    const double remaining =
        job.deadline_seconds - seconds_since(job.submitted);
    const double probes = static_cast<double>(
        std::max(1, options_.expected_probes));
    const double allowance =
        options_.states_per_second * std::max(remaining, 0.0) / probes;
    const std::size_t budget = std::max(
        options_.min_state_budget,
        static_cast<std::size_t>(std::min<double>(
            allowance, static_cast<double>(job.options.phase1.dp.max_states))));
    if (budget < job.options.phase1.dp.max_states) {
      job.options.phase1.dp.max_states = budget;
      budget_reduced = true;
    }
  }

  CachedPlan cached;
  ResponseStatus status = ResponseStatus::Error;
  bool degraded = false;
  std::string error;
  try {
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.planner_runs;
    }
    serve_metrics().planner_runs.increment();
    std::optional<Plan> plan =
        plan_madpipe(job.canonical.chain, job.canonical.platform, job.options);
    cached.creator_time_unit = job.canonical.time_unit;
    cached.creator_byte_unit = job.canonical.byte_unit;
    if (plan.has_value()) {
      degraded = budget_reduced && plan->stats.state_budget_hits > 0;
      status = ResponseStatus::Ok;
      cached.plan = std::move(plan);
    } else {
      status = ResponseStatus::Infeasible;
      // A truncated search can report infeasible spuriously; that is also a
      // degraded answer.
      degraded = budget_reduced;
    }
    // Degraded results are never cached: the next request (with a healthier
    // deadline) must get the chance to compute the real plan.
    if (!degraded) cache_.insert(job.canonical, cached);
  } catch (const std::exception& exception) {
    status = ResponseStatus::Error;
    error = exception.what();
  }
  timings.plan_seconds = seconds_since(plan_start);
  span->arg("degraded", degraded ? 1 : 0);
  span->arg("status", static_cast<long long>(status));
  span.reset();

  // Retire the in-flight registration *before* fulfilling, so a caller woken
  // by its future can immediately resubmit and reach the cache/queue.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].second.get() == job.pending.get()) {
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
        break;
      }
    }
  }

  // With the registration retired no new waiter can attach, so the waiter
  // list is final: compute the canonical-unit summary once if anyone asked
  // for it (fulfill rescales it per waiter).
  std::optional<report::ExplainSummary> canonical_summary;
  if (status == ResponseStatus::Ok) {
    for (const std::unique_ptr<Waiter>& waiter : job.pending->waiters) {
      if (!waiter->report_explain) continue;
      canonical_summary = report::build_explain_summary(
          *cached.plan, job.canonical.chain, job.canonical.platform);
      break;
    }
  }

  // Count the miss before fulfilling: a caller woken by its future must see
  // a stats snapshot that already includes its own request.
  serve_metrics().misses.increment();
  if (degraded) serve_metrics().degraded.increment();
  if (status == ResponseStatus::Error) serve_metrics().errors.increment();
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++counters_.misses;
    if (degraded) ++counters_.degraded;
    if (status == ResponseStatus::Error) ++counters_.errors;
  }
  refresh_hit_rate();

  fulfill(*job.pending, cached, status, degraded, error, timings,
          canonical_summary);
}

void PlanService::fulfill(
    Pending& pending, const CachedPlan& cached, ResponseStatus status,
    bool degraded, const std::string& error, const PhaseTimings& timings,
    const std::optional<report::ExplainSummary>& canonical_summary) {
  for (std::unique_ptr<Waiter>& waiter : pending.waiters) {
    PlanResponse response;
    response.id = waiter->id;
    response.trace_id = waiter->trace_id;
    response.status = status;
    response.cache = waiter->outcome;
    response.degraded = degraded;
    response.error = error;
    if (status == ResponseStatus::Ok) {
      response.plan = denormalize_plan(*cached.plan, waiter->time_unit);
      if (waiter->report_explain && canonical_summary.has_value()) {
        response.explain = report::scale_summary(
            *canonical_summary, waiter->time_unit, waiter->byte_unit);
        serve_metrics().schedule_utilization.set(
            response.explain->mean_gpu_utilization);
        serve_metrics().memory_headroom_bytes.set(
            response.explain->memory_headroom_bytes);
      }
    }
    response.latency_seconds = seconds_since(waiter->submitted);
    if (waiter->report_timings) {
      response.phases = timings;
      response.phases->cache_seconds = waiter->cache_seconds;
    }
    miss_latency_.record(response.latency_seconds);
    serve_metrics().miss_latency.observe(response.latency_seconds);
    PhaseTimings waiter_timings = timings;
    waiter_timings.cache_seconds = waiter->cache_seconds;
    sample_completion(*waiter, response, waiter_timings);
    deliver(*waiter, std::move(response));
  }
}

void PlanService::sample_completion(const Waiter& waiter,
                                    const PlanResponse& response,
                                    const PhaseTimings& timings) {
  if (!obs::tail_enabled() || waiter.trace_id == 0) return;
  obs::SampledRequest done;
  done.trace_id = waiter.trace_id;
  done.request_id = response.id;
  done.status = to_string(response.status);
  done.cache = to_string(response.cache);
  done.latency_seconds = response.latency_seconds;
  // Admission = ingress → cache probe done (frame read, parse, dispatch
  // queue, canonicalization, cache lookup). Queue/plan come from the job
  // and are shared by coalesced waiters.
  done.admission_seconds = waiter.admission_seconds;
  done.queue_seconds = timings.queue_seconds;
  done.plan_seconds = timings.plan_seconds;
  done.error = response.status == ResponseStatus::Rejected ||
               response.status == ResponseStatus::Error ||
               response.status == ResponseStatus::Shutdown;
  obs::tail_sampler().end(std::move(done));
}

ServeStats PlanService::stats() const {
  ServeStats snapshot;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = counters_;
  }
  const PlanCacheCounters cache = cache_.counters();
  snapshot.evictions = cache.evictions;
  snapshot.expirations = cache.expirations;
  snapshot.key_collisions = cache.key_collisions;
  snapshot.cache_entries = cache.entries;
  snapshot.cache_bytes = cache.bytes;
  // Refresh the registry's cache gauges from this snapshot (gauges, not
  // counters: cache state is point-in-time and owned by cache_, not summed
  // across services).
  ServeMetrics& metrics = serve_metrics();
  metrics.evictions.set(static_cast<double>(cache.evictions));
  metrics.expirations.set(static_cast<double>(cache.expirations));
  metrics.key_collisions.set(static_cast<double>(cache.key_collisions));
  metrics.cache_entries.set(static_cast<double>(cache.entries));
  metrics.cache_bytes.set(static_cast<double>(cache.bytes));
  snapshot.hit_p50_seconds = hit_latency_.percentile(0.50);
  snapshot.hit_p99_seconds = hit_latency_.percentile(0.99);
  snapshot.miss_p50_seconds = miss_latency_.percentile(0.50);
  snapshot.miss_p99_seconds = miss_latency_.percentile(0.99);
  return snapshot;
}

}  // namespace madpipe::serve
