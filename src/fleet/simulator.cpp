#include "fleet/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "core/platform.hpp"
#include "core/types.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace madpipe::fleet {

namespace {

std::string time_tag(double t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "t=%.6f", t);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Per-job mutable state during a run.
struct RunJob {
  const JobSpec* spec = nullptr;
  long long remaining_batches = 0;
  std::int64_t epoch = 0;       ///< bumped on preemption; stale completions skip
  std::uint64_t order = 0;      ///< admission order; KEPT across preemptions so
                                ///< FIFO resumes preempted work first
  bool admitted = false;
  bool waiting = false;
  bool running = false;
  bool completed = false;
  bool failed = false;
  double enqueued_s = 0.0;
  double start_s = 0.0;         ///< current placement start
  double first_start_s = -1.0;
  double finish_s = 0.0;
  double wait_s = 0.0;
  double period = 0.0;          ///< current placement's plan period
  int width = 0;                ///< current placement width
  int plans = 0;
  int preemptions = 0;
  bool deadline_met = true;
};

}  // namespace

std::uint64_t hash_event_log(const std::vector<std::string>& log) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const std::string& line : log) {
    for (const unsigned char c : line) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 0x100000001b3ull;
  }
  return h;
}

FleetSimulator::FleetSimulator(const FleetTrace& trace,
                               const FleetOptions& options,
                               serve::PlanService& service)
    : trace_(trace), options_(options), service_(service) {}

FleetResult FleetSimulator::run() {
  FleetResult result;
  result.policy = options_.policy;
  if (std::string err = fleet_trace_validate(trace_); !err.empty()) {
    result.error = "invalid trace: " + err;
    return result;
  }
  const std::unique_ptr<PlacementPolicy> policy = make_policy(options_.policy);
  if (policy == nullptr) {
    result.error = "unknown policy \"" + options_.policy + "\"";
    return result;
  }

  obs::Registry& registry = obs::Registry::global();
  obs::Counter& events_counter = registry.counter(
      "madpipe_fleet_events_total", "Fleet simulator events dispatched");
  obs::Counter& completed_counter = registry.counter(
      "madpipe_fleet_jobs_completed_total", "Fleet jobs run to completion");
  obs::Counter& preempt_counter = registry.counter(
      "madpipe_fleet_preemptions_total", "Jobs preempted by pool shrinks");
  obs::Counter& replan_counter = registry.counter(
      "madpipe_fleet_replans_total",
      "Placements of previously preempted jobs (forced replans)");
  obs::Gauge& capacity_gauge = registry.gauge(
      "madpipe_fleet_pool_capacity", "Elastic GPU pool capacity");
  obs::Gauge& in_use_gauge =
      registry.gauge("madpipe_fleet_pool_in_use", "GPUs currently placed");
  obs::Gauge& depth_gauge = registry.gauge(
      "madpipe_fleet_queue_depth", "Jobs waiting for placement");
  obs::Histogram& wait_histogram = registry.histogram(
      "madpipe_fleet_queue_wait_seconds", obs::latency_bounds_seconds(),
      "Simulated queueing delay per placement");

  // One linearized chain per network name; the profile is trace-wide so a
  // (network, width) pair maps to exactly one canonical cache key.
  std::map<std::string, Chain> chains;
  const auto chain_for = [&](const std::string& network) -> const Chain& {
    auto it = chains.find(network);
    if (it == chains.end()) {
      models::NetworkConfig config;
      config.network = network;
      config.image_size = trace_.profile.image_size;
      config.batch = trace_.profile.batch;
      config.chain_length = trace_.profile.chain_length;
      it = chains.emplace(network, models::build_network(config)).first;
    }
    return it->second;
  };

  EventQueue events;
  for (std::size_t i = 0; i < trace_.jobs.size(); ++i) {
    Event event;
    event.time = trace_.jobs[i].arrival_s;
    event.kind = EventKind::JobArrival;
    event.job = static_cast<std::int32_t>(i);
    events.push(event);
  }
  for (const PoolEvent& pool_event : trace_.pool_events) {
    Event event;
    event.time = pool_event.time_s;
    event.kind = EventKind::PoolResize;
    event.arg = pool_event.gpus;
    events.push(event);
  }

  std::vector<RunJob> jobs(trace_.jobs.size());
  for (std::size_t i = 0; i < trace_.jobs.size(); ++i) {
    jobs[i].spec = &trace_.jobs[i];
    jobs[i].remaining_batches = trace_.jobs[i].batches;
  }
  result.jobs_in = static_cast<int>(trace_.jobs.size());

  std::vector<WaitingJob> queue;
  WarmSet warm;
  std::vector<std::int32_t> placed;  ///< running jobs, placement order
  int capacity = trace_.pool_gpus;
  int in_use = 0;
  double last_time = 0.0;
  std::uint64_t next_order = 0;
  std::vector<double> wait_samples;

  const auto log_line = [&](std::string line) {
    result.event_log.push_back(std::move(line));
  };

  const auto refresh_gauges = [&] {
    capacity_gauge.set(static_cast<double>(capacity));
    in_use_gauge.set(static_cast<double>(in_use));
    depth_gauge.set(static_cast<double>(queue.size()));
  };

  // Place as many waiting jobs as the policy will admit at `now`. Every
  // placement asks PlanService for a real plan — the cache outcome and the
  // period are deterministic, so they may be logged.
  const auto try_place = [&](double now) {
    while (!queue.empty()) {
      PlacementView view;
      view.queue = &queue;
      view.free_gpus = capacity - in_use;
      view.warm = &warm;
      const std::optional<PlacementDecision> decision = policy->select(view);
      if (!decision) break;
      MP_ASSERT(decision->queue_index < queue.size(),
                "policy returned an out-of-range queue index");
      const WaitingJob waiting = queue[decision->queue_index];
      queue.erase(queue.begin() +
                  static_cast<std::ptrdiff_t>(decision->queue_index));
      RunJob& job = jobs[static_cast<std::size_t>(waiting.job)];
      MP_ASSERT(decision->gpus >= job.spec->min_gpus &&
                    decision->gpus <=
                        std::min(job.spec->gpus, capacity - in_use),
                "policy returned an out-of-range width");

      serve::PlanRequest request{
          job.spec->id,
          chain_for(job.spec->network),
          Platform{decision->gpus, trace_.memory_gb * GB,
                   trace_.bandwidth_gbs * GB},
          MadPipeOptions{},
          job.spec->plan_deadline_ms / 1000.0,
          /*report_timings=*/false,
          /*report_explain=*/false};
      const bool is_replan = job.preemptions > 0;
      // Every placement is one traced request: the fleet span and the
      // serve/planner spans underneath share one trace id, so a slow
      // placement shows up in /slow with its full cross-layer tree. The
      // id never reaches the event log — the log stays bit-identical
      // across runs regardless of telemetry.
      request.trace_id = obs::next_trace_id();
      serve::PlanResponse response;
      {
        obs::TraceContextScope trace_scope(request.trace_id);
        obs::Span span(is_replan ? "fleet_replan" : "fleet_plan",
                       obs::kCatFleet);
        span.arg("gpus", decision->gpus);
        response = service_.plan(std::move(request));
      }
      ++job.plans;
      ++result.plans_requested;
      result.plan_wall_seconds += response.latency_seconds;
      if (response.cache == serve::CacheOutcome::Hit) {
        ++result.cache_hits;
      } else if (response.cache == serve::CacheOutcome::Miss ||
                 response.cache == serve::CacheOutcome::Coalesced) {
        ++result.cache_misses;
      }
      if (response.degraded) ++result.degraded_plans;

      if (response.status != serve::ResponseStatus::Ok) {
        job.waiting = false;
        job.failed = true;
        ++result.failed;
        log_line(time_tag(now) + " fail job=" + job.spec->id + " gpus=" +
                 std::to_string(decision->gpus) + " status=" +
                 serve::to_string(response.status));
        continue;
      }

      warm.insert({job.spec->network, decision->gpus});
      const double wait = now - job.enqueued_s;
      job.wait_s += wait;
      wait_samples.push_back(wait);
      wait_histogram.observe(wait);
      job.waiting = false;
      job.running = true;
      job.width = decision->gpus;
      job.period = response.plan->period();
      job.start_s = now;
      if (job.first_start_s < 0.0) job.first_start_s = now;
      if (is_replan) {
        ++result.replans;
        replan_counter.increment();
      }
      in_use += job.width;
      placed.push_back(waiting.job);

      Event completion;
      completion.time =
          now + static_cast<double>(job.remaining_batches) * job.period;
      completion.kind = EventKind::JobCompletion;
      completion.job = waiting.job;
      completion.arg = job.epoch;
      events.push(completion);

      log_line(time_tag(now) + " place job=" + job.spec->id + " gpus=" +
               std::to_string(job.width) + " cache=" +
               serve::to_string(response.cache) + " period=" +
               num(job.period) + " batches=" +
               std::to_string(job.remaining_batches) +
               (is_replan ? " replan" : ""));
    }
  };

  while (!events.empty()) {
    const Event event = events.pop();
    obs::Span span("fleet_dispatch", obs::kCatFleet);
    span.arg("kind", static_cast<long long>(event.kind));
    // Utilization integrals advance on every dispatch.
    const double dt = event.time - last_time;
    MP_ASSERT(dt >= 0.0, "event queue popped events out of order");
    result.busy_gpu_seconds += static_cast<double>(in_use) * dt;
    result.capacity_gpu_seconds += static_cast<double>(capacity) * dt;
    last_time = event.time;
    ++result.events_dispatched;
    events_counter.increment();

    switch (event.kind) {
      case EventKind::JobArrival: {
        RunJob& job = jobs[static_cast<std::size_t>(event.job)];
        MP_ASSERT(!job.admitted, "duplicate arrival event");
        job.admitted = true;
        job.waiting = true;
        job.order = next_order++;
        job.enqueued_s = event.time;
        queue.push_back({event.job, job.spec, event.time, job.order});
        log_line(time_tag(event.time) + " arrival job=" + job.spec->id +
                 " net=" + job.spec->network + " want=" +
                 std::to_string(job.spec->gpus) + " min=" +
                 std::to_string(job.spec->min_gpus));
        try_place(event.time);
        break;
      }
      case EventKind::PoolResize: {
        capacity = static_cast<int>(event.arg);
        log_line(time_tag(event.time) + " resize gpus=" +
                 std::to_string(capacity));
        // Shrink below usage: preempt most-recently-placed first (the jobs
        // with the least sunk progress), re-queue the remainder of their
        // batch budget, and let the next placement replan them.
        while (in_use > capacity) {
          MP_ASSERT(!placed.empty(), "in_use > 0 with nothing placed");
          const std::int32_t victim_index = placed.back();
          placed.pop_back();
          RunJob& victim = jobs[static_cast<std::size_t>(victim_index)];
          MP_ASSERT(victim.running, "placed stack holds a non-running job");
          const double elapsed = event.time - victim.start_s;
          long long done = static_cast<long long>(
              std::floor(elapsed / victim.period + kTimeEps));
          done = std::min(done, victim.remaining_batches - 1);
          done = std::max(done, 0ll);
          victim.remaining_batches -= done;
          ++victim.epoch;  // invalidates the scheduled completion
          ++victim.preemptions;
          ++result.preemptions;
          preempt_counter.increment();
          in_use -= victim.width;
          victim.running = false;
          victim.waiting = true;
          victim.width = 0;
          victim.enqueued_s = event.time;
          queue.push_back(
              {victim_index, victim.spec, event.time, victim.order});
          log_line(time_tag(event.time) + " preempt job=" + victim.spec->id +
                   " remaining=" + std::to_string(victim.remaining_batches));
        }
        try_place(event.time);
        break;
      }
      case EventKind::JobCompletion: {
        RunJob& job = jobs[static_cast<std::size_t>(event.job)];
        if (event.arg != job.epoch) {
          ++result.stale_events;  // preempted since this was scheduled
          break;
        }
        MP_ASSERT(job.running, "live completion for a non-running job");
        job.running = false;
        job.completed = true;
        job.finish_s = event.time;
        job.remaining_batches = 0;
        in_use -= job.width;
        placed.erase(std::find(placed.begin(), placed.end(), event.job));
        ++result.completed;
        completed_counter.increment();
        if (job.spec->deadline_s > 0.0) {
          job.deadline_met = event.time <= job.spec->deadline_s + kTimeEps;
          if (job.deadline_met) {
            ++result.deadlines_met;
          } else {
            ++result.deadlines_missed;
          }
        }
        log_line(time_tag(event.time) + " complete job=" + job.spec->id +
                 " gpus=" + std::to_string(job.width));
        try_place(event.time);
        break;
      }
    }
    refresh_gauges();
  }

  result.makespan_s = last_time;
  for (const RunJob& job : jobs) {
    if (!job.completed && !job.failed) ++result.stranded;
  }
  MP_ASSERT(result.accounting_exact(), "jobs_in != completed+failed+stranded");

  result.utilization = result.capacity_gpu_seconds > 0.0
                           ? result.busy_gpu_seconds /
                                 result.capacity_gpu_seconds
                           : 0.0;
  if (!wait_samples.empty()) {
    result.wait_mean_s = stats::mean(wait_samples);
    result.wait_p50_s = stats::percentile(wait_samples, 0.50);
    result.wait_p99_s = stats::percentile(wait_samples, 0.99);
    result.wait_max_s = stats::max(wait_samples);
  }
  result.cache_hit_rate =
      result.plans_requested > 0
          ? static_cast<double>(result.cache_hits) /
                static_cast<double>(result.plans_requested)
          : 0.0;

  result.jobs.reserve(jobs.size());
  for (const RunJob& job : jobs) {
    JobOutcome outcome;
    outcome.id = job.spec->id;
    outcome.network = job.spec->network;
    outcome.arrival_s = job.spec->arrival_s;
    outcome.first_start_s = std::max(job.first_start_s, 0.0);
    outcome.finish_s = job.finish_s;
    outcome.wait_s = job.wait_s;
    outcome.placed_gpus = job.width;
    outcome.plans = job.plans;
    outcome.preemptions = job.preemptions;
    outcome.completed = job.completed;
    outcome.failed = job.failed;
    outcome.deadline_met = job.deadline_met;
    result.jobs.push_back(std::move(outcome));
  }
  result.event_log_hash = hash_event_log(result.event_log);
  return result;
}

FleetResult run_fleet(const FleetTrace& trace, const FleetOptions& options,
                      const serve::ServiceOptions& service_options) {
  serve::PlanService service(service_options);
  FleetSimulator simulator(trace, options, service);
  return simulator.run();
}

std::string fleet_result_to_json(const FleetResult& result,
                                 bool include_event_log) {
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(result.event_log_hash));
  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value(kFleetReportSchema);
  w.key("policy");
  w.value(result.policy);
  if (!result.ok()) {
    w.key("error");
    w.value(result.error);
    w.end_object();
    return w.str();
  }
  w.key("accounting");
  w.begin_object();
  w.key("jobs_in");
  w.value(result.jobs_in);
  w.key("completed");
  w.value(result.completed);
  w.key("failed");
  w.value(result.failed);
  w.key("stranded");
  w.value(result.stranded);
  w.key("exact");
  w.value(result.accounting_exact());
  w.end_object();
  w.key("makespan_s");
  w.value(result.makespan_s);
  w.key("utilization");
  w.value(result.utilization);
  w.key("busy_gpu_seconds");
  w.value(result.busy_gpu_seconds);
  w.key("capacity_gpu_seconds");
  w.value(result.capacity_gpu_seconds);
  w.key("wait");
  w.begin_object();
  w.key("mean_s");
  w.value(result.wait_mean_s);
  w.key("p50_s");
  w.value(result.wait_p50_s);
  w.key("p99_s");
  w.value(result.wait_p99_s);
  w.key("max_s");
  w.value(result.wait_max_s);
  w.end_object();
  w.key("planning");
  w.begin_object();
  w.key("requests");
  w.value(result.plans_requested);
  w.key("cache_hits");
  w.value(result.cache_hits);
  w.key("cache_misses");
  w.value(result.cache_misses);
  w.key("cache_hit_rate");
  w.value(result.cache_hit_rate);
  w.key("degraded");
  w.value(result.degraded_plans);
  w.key("wall_seconds");
  w.value(result.plan_wall_seconds);
  w.key("replans");
  w.value(result.replans);
  w.end_object();
  w.key("preemptions");
  w.value(result.preemptions);
  w.key("deadlines");
  w.begin_object();
  w.key("met");
  w.value(result.deadlines_met);
  w.key("missed");
  w.value(result.deadlines_missed);
  w.end_object();
  w.key("engine");
  w.begin_object();
  w.key("events_dispatched");
  w.value(result.events_dispatched);
  w.key("stale_events");
  w.value(result.stale_events);
  w.end_object();
  w.key("jobs");
  w.begin_array();
  for (const JobOutcome& job : result.jobs) {
    w.begin_object();
    w.key("id");
    w.value(job.id);
    w.key("network");
    w.value(job.network);
    w.key("arrival_s");
    w.value(job.arrival_s);
    w.key("first_start_s");
    w.value(job.first_start_s);
    w.key("finish_s");
    w.value(job.finish_s);
    w.key("wait_s");
    w.value(job.wait_s);
    w.key("gpus");
    w.value(job.placed_gpus);
    w.key("plans");
    w.value(job.plans);
    w.key("preemptions");
    w.value(job.preemptions);
    w.key("completed");
    w.value(job.completed);
    w.key("failed");
    w.value(job.failed);
    w.key("deadline_met");
    w.value(job.deadline_met);
    w.end_object();
  }
  w.end_array();
  w.key("event_log_hash");
  w.value(hash_buf);
  if (include_event_log) {
    w.key("event_log");
    w.begin_array();
    for (const std::string& line : result.event_log) w.value(line);
    w.end_array();
  }
  w.end_object();
  return w.str();
}

std::string fleet_result_report(const FleetResult& result) {
  if (!result.ok()) return "fleet: " + result.error + "\n";
  std::string out;
  out += "fleet policy=" + result.policy + "\n";
  out += "  jobs: " + std::to_string(result.jobs_in) + " in, " +
         std::to_string(result.completed) + " completed, " +
         std::to_string(result.failed) + " failed, " +
         std::to_string(result.stranded) + " stranded\n";
  out += "  makespan: " + fmt::seconds(result.makespan_s) +
         "  utilization: " + fmt::fixed(100.0 * result.utilization, 1) +
         "%\n";
  out += "  wait: mean " + fmt::seconds(result.wait_mean_s) + ", p50 " +
         fmt::seconds(result.wait_p50_s) + ", p99 " +
         fmt::seconds(result.wait_p99_s) + ", max " +
         fmt::seconds(result.wait_max_s) + "\n";
  out += "  plans: " + std::to_string(result.plans_requested) + " (" +
         std::to_string(result.cache_hits) + " hits, " +
         std::to_string(result.cache_misses) + " misses, hit-rate " +
         fmt::fixed(100.0 * result.cache_hit_rate, 1) + "%), replans " +
         std::to_string(result.replans) + ", preemptions " +
         std::to_string(result.preemptions) + "\n";
  if (result.deadlines_met + result.deadlines_missed > 0) {
    out += "  deadlines: " + std::to_string(result.deadlines_met) + " met, " +
           std::to_string(result.deadlines_missed) + " missed\n";
  }
  out += "  engine: " + std::to_string(result.events_dispatched) +
         " events (" + std::to_string(result.stale_events) + " stale)\n";
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(result.event_log_hash));
  out += "  event-log hash: ";
  out += hash_buf;
  out += "\n";

  fmt::Table table({"job", "network", "arrival", "start", "finish", "wait",
                    "gpus", "plans", "state"});
  for (const JobOutcome& job : result.jobs) {
    const char* state =
        job.completed ? (job.deadline_met ? "done" : "done(late)")
                      : (job.failed ? "failed" : "stranded");
    table.add_row({job.id, job.network, fmt::seconds(job.arrival_s),
                   fmt::seconds(job.first_start_s),
                   fmt::seconds(job.finish_s), fmt::seconds(job.wait_s),
                   std::to_string(job.placed_gpus),
                   std::to_string(job.plans), state});
  }
  out += table.to_string();
  return out;
}

}  // namespace madpipe::fleet
