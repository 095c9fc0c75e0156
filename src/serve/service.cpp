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

}  // namespace

const Plan& ServedPlan::operator*() const {
  if (!plan_.has_value()) plan_ = denormalize_plan(*entry_->plan, time_unit_);
  return *plan_;
}

ServedPlan::operator std::optional<Plan>() const {
  if (!has_value()) return std::nullopt;
  return **this;
}

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
  counters_.queue_depth.set(0.0);
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
    for (std::unique_ptr<Waiter>& waiter : job.pending->waiters) {
      counters_.shutdowns.add();
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
      sample_completion(waiter->trace_id, waiter->admission_seconds, response,
                        timings);
      waiter->callback(std::move(response));
    }
  }
  counters_.queue_depth.set(0.0);
  for (std::thread& worker : workers_) worker.join();
}

namespace {

/// Ingress bookkeeping shared by both submission entries: requests that
/// arrived without a trace id or ingress time (batch lines, direct API
/// callers) get them here — the TCP front-end stamps its own at frame
/// admission — and a sampled request's record opens.
void begin_request(std::uint64_t& trace_id, std::int64_t& ingress_ns) {
  if (trace_id == 0) trace_id = obs::next_trace_id();
  if (ingress_ns == 0) ingress_ns = obs::now_ns();
  if (obs::tail_enabled()) obs::tail_sampler().begin(trace_id, ingress_ns);
}

}  // namespace

std::future<PlanResponse> PlanService::submit(PlanRequest request) {
  auto promise = std::make_shared<std::promise<PlanResponse>>();
  std::future<PlanResponse> future = promise->get_future();
  submit_async(std::move(request), [promise](PlanResponse&& response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void PlanService::submit_async(PlanRequest request,
                               ResponseCallback callback) {
  const Clock::time_point submitted = Clock::now();
  std::uint64_t trace_id = request.trace_id;
  std::int64_t ingress_ns = request.ingress_ns;
  begin_request(trace_id, ingress_ns);
  // Everything this request does — on this thread and on the planner
  // worker — runs under a TraceContextScope carrying the id.
  obs::TraceContextScope trace_scope(trace_id);
  auto prepared =
      std::make_shared<const PreparedRequest>(prepare(std::move(request)));
  submit_impl(prepared, trace_id, ingress_ns, submitted, std::move(callback));
}

CacheOutcome PlanService::submit_prepared(
    const std::shared_ptr<const PreparedRequest>& prepared,
    std::uint64_t trace_id, std::int64_t ingress_ns,
    ResponseCallback callback) {
  const Clock::time_point submitted = Clock::now();
  begin_request(trace_id, ingress_ns);
  obs::TraceContextScope trace_scope(trace_id);
  return submit_impl(prepared, trace_id, ingress_ns, submitted,
                     std::move(callback));
}

std::size_t PlanService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

CacheOutcome PlanService::submit_impl(
    const std::shared_ptr<const PreparedRequest>& prepared,
    std::uint64_t trace_id, std::int64_t ingress_ns,
    Clock::time_point submitted, ResponseCallback callback) {
  const PlanRequest& request = prepared->request;
  const CacheKey& key = prepared->key;
  // The span lives in an optional so the hit/reject paths can close it
  // *before* sampling + delivery: a sampled tree must contain its own
  // serve_submit span.
  std::optional<obs::Span> span;
  span.emplace("serve_submit", obs::kCatServe);
  std::shared_ptr<const CacheEntry> cached = [&] {
    obs::Span lookup("cache_lookup", obs::kCatServe);
    std::shared_ptr<const CacheEntry> result = cache_.find(key);
    lookup.arg("hit", result != nullptr ? 1 : 0);
    return result;
  }();
  const double cache_seconds = seconds_since(submitted);
  const double admission_seconds =
      static_cast<double>(obs::now_ns() - ingress_ns) * 1e-9;
  counters_.requests.add();

  // 1. Cache: a hit completes synchronously — no queue, no planner. The
  // response shares the entry; nothing of the plan is copied.
  const auto complete_hit = [&](std::shared_ptr<const CacheEntry> hit,
                                ResponseCallback& deliver) {
    span->arg("outcome", static_cast<long long>(CacheOutcome::Hit));
    if (key.time_unit != hit->creator_time_unit ||
        key.byte_unit != hit->creator_byte_unit) {
      // The entry was created by a request in different (power-of-two
      // related) units: the cache is being shared across a rescale.
      counters_.scaled_hits.add();
    }
    PlanResponse response;
    response.id = request.id;
    response.trace_id = trace_id;
    response.cache = CacheOutcome::Hit;
    if (hit->feasible()) {
      response.status = ResponseStatus::Ok;
      if (request.report_explain) {
        response.explain =
            report::scale_summary(hit->explain_summary(request, key),
                                  key.time_unit, key.byte_unit);
        report::publish_quality(*response.explain);
      }
      response.plan = ServedPlan(std::move(hit), key.time_unit);
    } else {
      response.status = ResponseStatus::Infeasible;
    }
    response.latency_seconds = seconds_since(submitted);
    if (request.report_timings) {
      response.phases = PhaseTimings{cache_seconds, 0.0, 0.0};
    }
    counters_.hit_latency.observe(response.latency_seconds);
    counters_.hits.add();
    counters_.refresh_hit_rate();
    span.reset();  // close serve_submit so the sampled tree includes it
    sample_completion(trace_id, admission_seconds, response,
                      PhaseTimings{cache_seconds, 0.0, 0.0});
    deliver(std::move(response));
  };
  if (cached != nullptr) {
    complete_hit(std::move(cached), callback);
    return CacheOutcome::Hit;
  }
  // A missed probe may have expired an entry or met a key collision.
  mirror_cache();

  // Only a miss needs a waiter: it carries the callback until a planner
  // run delivers.
  auto waiter = std::make_unique<Waiter>();
  waiter->callback = std::move(callback);
  waiter->id = request.id;
  waiter->time_unit = key.time_unit;
  waiter->byte_unit = key.byte_unit;
  waiter->submitted = submitted;
  waiter->report_timings = request.report_timings;
  waiter->report_explain = request.report_explain;
  waiter->cache_seconds = cache_seconds;
  waiter->trace_id = trace_id;
  waiter->admission_seconds = admission_seconds;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // 2. Coalesce onto an identical in-flight computation.
    for (auto& [fingerprint, pending] : pending_) {
      if (fingerprint == key.fingerprint) {
        waiter->outcome = CacheOutcome::Coalesced;
        pending->waiters.push_back(std::move(waiter));
        lock.unlock();
        span->arg("outcome", static_cast<long long>(CacheOutcome::Coalesced));
        counters_.coalesced.add();
        return CacheOutcome::Coalesced;
      }
    }
    // The run this request would coalesce onto may have inserted its plan
    // and retired its registration since the probe above. It inserts before
    // it retires, and it retires under mutex_, so probing again here finds
    // that plan instead of enqueueing a second planner run. (Lock order:
    // mutex_, then a cache shard's; the cache never calls back in.)
    if (std::shared_ptr<const CacheEntry> late = cache_.find(key)) {
      lock.unlock();
      complete_hit(std::move(late), waiter->callback);
      return CacheOutcome::Hit;
    }
    // 3. Enqueue, or reject under backpressure.
    if (queue_.size() >= options_.queue_capacity) {
      lock.unlock();
      span->arg("outcome", static_cast<long long>(CacheOutcome::None));
      PlanResponse response;
      response.id = request.id;
      response.trace_id = trace_id;
      response.status = ResponseStatus::Rejected;
      response.error = "queue full (" +
                       std::to_string(options_.queue_capacity) +
                       " pending requests)";
      response.latency_seconds = seconds_since(submitted);
      if (request.report_timings) {
        response.phases = PhaseTimings{cache_seconds, 0.0, 0.0};
      }
      counters_.rejected.add();
      counters_.refresh_hit_rate();
      span.reset();
      sample_completion(trace_id, admission_seconds, response,
                        PhaseTimings{cache_seconds, 0.0, 0.0});
      waiter->callback(std::move(response));
      return CacheOutcome::None;
    }
    auto pending = std::make_shared<Pending>();
    pending->fingerprint = key.fingerprint;
    waiter->outcome = CacheOutcome::Miss;
    pending->waiters.push_back(std::move(waiter));
    pending_.emplace_back(key.fingerprint, pending);

    const Seconds deadline = request.deadline_seconds > 0.0
                                 ? request.deadline_seconds
                                 : options_.default_deadline_seconds;
    span->arg("outcome", static_cast<long long>(CacheOutcome::Miss));
    queue_.push_back(Job{std::move(pending), prepared, deadline, submitted,
                         obs::now_ns(), trace_id});
    counters_.queue_depth.set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();
  return CacheOutcome::Miss;
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
      counters_.queue_depth.set(static_cast<double>(queue_.size()));
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

  // One lane per miss, whatever width the request carried. The service gets
  // its concurrency across requests (planner workers run misses side by
  // side, dispatch threads serve hits), so a speculative probe here only
  // takes CPU from another request. On serve_mix's small miss cells a
  // batch does not repay its barrier even on idle cores; a lone large miss
  // on an idle server does lose wall time at one lane (DESIGN.md §11). The
  // widths are result-invariant and outside the cache key: the plan is the
  // same.
  MadPipeOptions options = job.prepared->request.options;
  options.phase1.speculation = 1;
  options.phase2.speculation = 1;

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
            allowance, static_cast<double>(options.phase1.dp.max_states))));
    if (budget < options.phase1.dp.max_states) {
      options.phase1.dp.max_states = budget;
      budget_reduced = true;
    }
  }

  // Only a miss builds the canonical profile the planner runs on.
  const CanonicalRequest canonical =
      canonicalize(job.prepared->request, job.prepared->key);
  std::shared_ptr<const CacheEntry> entry;
  ResponseStatus status = ResponseStatus::Error;
  bool degraded = false;
  std::string error;
  try {
    counters_.planner_runs.add();
    CachedPlan cached;
    cached.plan = plan_madpipe(canonical.chain, canonical.platform, options);
    cached.creator_time_unit = canonical.time_unit;
    cached.creator_byte_unit = canonical.byte_unit;
    if (cached.feasible()) {
      timings.phase1_seconds = cached.plan->stats.phase1_wall_seconds;
      timings.phase2_seconds = cached.plan->stats.phase2_wall_seconds;
      degraded = budget_reduced && cached.plan->stats.state_budget_hits > 0;
      status = ResponseStatus::Ok;
    } else {
      status = ResponseStatus::Infeasible;
      // A truncated search can report infeasible spuriously; that is also a
      // degraded answer.
      degraded = budget_reduced;
    }
    // Degraded results are never cached: the next request (with a healthier
    // deadline) must get the chance to compute the real plan. Its waiters
    // are still served from an entry, one the cache never sees.
    if (degraded) {
      entry = std::make_shared<const CacheEntry>(std::move(cached));
    } else {
      entry = cache_.insert(canonical, std::move(cached));
      mirror_cache();
    }
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
  // list is final: build the entry's canonical-unit summary if anyone asked
  // for it (fulfill rescales it per waiter, and later explain hits reuse
  // it). A run no waiter asked to explain never pays for one.
  const report::ExplainSummary* canonical_summary = nullptr;
  if (status == ResponseStatus::Ok) {
    for (const std::unique_ptr<Waiter>& waiter : job.pending->waiters) {
      if (!waiter->report_explain) continue;
      canonical_summary =
          &entry->explain_summary(job.prepared->request, job.prepared->key);
      break;
    }
  }

  // Count the miss before fulfilling: a caller woken by its future must see
  // a stats snapshot that already includes its own request.
  counters_.misses.add();
  if (degraded) counters_.degraded.add();
  if (status == ResponseStatus::Error) counters_.errors.add();
  counters_.refresh_hit_rate();

  fulfill(*job.pending, entry, status, degraded, error, timings,
          canonical_summary);
}

void PlanService::fulfill(Pending& pending,
                          const std::shared_ptr<const CacheEntry>& entry,
                          ResponseStatus status, bool degraded,
                          const std::string& error,
                          const PhaseTimings& timings,
                          const report::ExplainSummary* canonical_summary) {
  for (std::unique_ptr<Waiter>& waiter : pending.waiters) {
    PlanResponse response;
    response.id = waiter->id;
    response.trace_id = waiter->trace_id;
    response.status = status;
    response.cache = waiter->outcome;
    response.degraded = degraded;
    response.error = error;
    if (status == ResponseStatus::Ok) {
      response.plan = ServedPlan(entry, waiter->time_unit);
      if (waiter->report_explain && canonical_summary != nullptr) {
        response.explain = report::scale_summary(
            *canonical_summary, waiter->time_unit, waiter->byte_unit);
        report::publish_quality(*response.explain);
      }
    }
    response.latency_seconds = seconds_since(waiter->submitted);
    if (waiter->report_timings) {
      response.phases = timings;
      response.phases->cache_seconds = waiter->cache_seconds;
    }
    counters_.miss_latency.observe(response.latency_seconds);
    PhaseTimings waiter_timings = timings;
    waiter_timings.cache_seconds = waiter->cache_seconds;
    sample_completion(waiter->trace_id, waiter->admission_seconds, response,
                      waiter_timings);
    waiter->callback(std::move(response));
  }
}

void PlanService::sample_completion(std::uint64_t trace_id,
                                    double admission_seconds,
                                    const PlanResponse& response,
                                    const PhaseTimings& timings) {
  if (!obs::tail_enabled() || trace_id == 0) return;
  obs::SampledRequest done;
  done.trace_id = trace_id;
  done.request_id = response.id;
  done.status = to_string(response.status);
  done.cache = to_string(response.cache);
  done.latency_seconds = response.latency_seconds;
  // Admission = ingress → cache probe done (frame read, parse, dispatch
  // queue, cache key, cache lookup). Queue/plan come from the job
  // and are shared by coalesced waiters.
  done.admission_seconds = admission_seconds;
  done.queue_seconds = timings.queue_seconds;
  done.plan_seconds = timings.plan_seconds;
  done.error = response.status == ResponseStatus::Rejected ||
               response.status == ResponseStatus::Error ||
               response.status == ResponseStatus::Shutdown;
  obs::tail_sampler().end(std::move(done));
}

void PlanService::mirror_cache() { counters_.mirror(cache_.counters()); }

ServeStats PlanService::stats() const {
  return counters_.snapshot(cache_.counters());
}

}  // namespace madpipe::serve
