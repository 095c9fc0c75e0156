// Machine-readable serve benchmark: measures the plan-serving subsystem on a
// paper-scale workload — cold planning cost, cache-hit latency (p50/p99 and
// the speedup over a cold plan), request coalescing, and multi-client hit
// throughput — and writes BENCH_serve.json so the serving path's perf
// trajectory can be tracked across PRs, next to BENCH_planner.json.
//
// Besides timings the document carries *equivalence* records: the planner
// result served through the cache (cold, cached, and under an exact
// power-of-two rescale of the profile) is compared bit for bit against a
// direct plan_madpipe call, so the caching layer is continuously proven to
// change nothing about the answers.
//
//   bench_serve [-o FILE] [--smoke]   (default: BENCH_serve.json;
//                                      --smoke = minimal iteration counts)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using namespace madpipe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Chain resnet101_chain(int length) {
  models::NetworkConfig config;
  config.network = "resnet101";
  config.image_size = 1000;
  config.batch = 8;
  config.chain_length = length;
  return models::build_network(config);
}

/// The chain with every duration × time_factor and every byte quantity ×
/// byte_factor (both powers of two in this bench, so the scaling is exact).
Chain scale_chain(const Chain& chain, double time_factor, double byte_factor) {
  std::vector<Layer> layers;
  layers.reserve(static_cast<std::size_t>(chain.length()));
  for (int l = 1; l <= chain.length(); ++l) {
    Layer layer = chain.layer(l);
    layer.forward_time *= time_factor;
    layer.backward_time *= time_factor;
    layer.weight_bytes *= byte_factor;
    layer.output_bytes *= byte_factor;
    layer.scratch_bytes *= byte_factor;
    layers.push_back(std::move(layer));
  }
  return Chain(chain.name() + "_scaled", chain.activation(0) * byte_factor,
               std::move(layers));
}

serve::PlanRequest make_request(const std::string& id, const Chain& chain,
                                const Platform& platform) {
  return serve::PlanRequest{id, chain, platform, serve::PlannerKind::MadPipe,
                            MadPipeOptions{}, 0.0};
}

struct EquivalenceRecord {
  std::string name;
  std::string cache;  ///< outcome on the serve side
  bool identical = false;
  double serve_period = 0.0;
  double direct_period = 0.0;
  std::string serve_allocation;
  std::string direct_allocation;
};

EquivalenceRecord check_equivalence(const std::string& name,
                                    const serve::PlanResponse& response,
                                    const std::optional<Plan>& direct) {
  EquivalenceRecord record;
  record.name = name;
  record.cache = serve::to_string(response.cache);
  if (response.plan.has_value() && direct.has_value()) {
    record.identical = serve::plans_bit_identical(*response.plan, *direct);
    record.serve_period = response.plan->period();
    record.direct_period = direct->period();
    record.serve_allocation =
        serve::allocation_fingerprint(response.plan->allocation);
    record.direct_allocation = serve::allocation_fingerprint(direct->allocation);
  }
  std::printf("%-24s %-9s %s\n", record.name.c_str(), record.cache.c_str(),
              record.identical ? "bit-identical" : "MISMATCH");
  return record;
}

struct ThroughputRecord {
  int clients = 0;
  long long requests = 0;
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
};

/// `clients` threads hammer the (warm) cache for `duration` seconds.
ThroughputRecord hit_throughput(serve::PlanService& service,
                                const serve::PlanRequest& request, int clients,
                                double duration) {
  ThroughputRecord record;
  record.clients = clients;
  std::vector<std::thread> threads;
  std::vector<long long> counts(static_cast<std::size_t>(clients), 0);
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      do {
        serve::PlanResponse response = service.plan(request);
        if (response.status == serve::ResponseStatus::Ok)
          ++counts[static_cast<std::size_t>(c)];
      } while (seconds_since(start) < duration);
    });
  }
  for (std::thread& thread : threads) thread.join();
  record.wall_seconds = seconds_since(start);
  for (long long count : counts) record.requests += count;
  record.requests_per_second =
      static_cast<double>(record.requests) / record.wall_seconds;
  std::printf("throughput %2d clients: %8.0f hits/s\n", clients,
              record.requests_per_second);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_serve.json";
  bool smoke = false;
  bench::ObsSinkArgs sinks;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (sinks.parse(argc, argv, &i)) continue;
    if (arg == "-o" && i + 1 < argc) output = argv[++i];
    if (arg == "--smoke") smoke = true;
  }
  sinks.install();
  const int hit_iterations = smoke ? 200 : 5000;
  const double throughput_seconds = smoke ? 0.05 : 0.5;

  const Chain r101 = resnet101_chain(24);
  const Platform p4{4, 8 * GB, 12 * GB};
  const MadPipeOptions plan_options;  // defaults == the paper configuration

  // --- cold: the planner without any serving layer. ---
  const Clock::time_point cold_start = Clock::now();
  const std::optional<Plan> direct = plan_madpipe(r101, p4, plan_options);
  const double cold_plan_seconds = seconds_since(cold_start);
  std::printf("cold plan_madpipe: %.3f s\n", cold_plan_seconds);

  serve::ServiceOptions service_options;
  service_options.workers = 2;
  serve::PlanService service(service_options);
  const serve::PlanRequest request = make_request("bench", r101, p4);

  // --- miss through the service (equivalence check #1). ---
  const Clock::time_point miss_start = Clock::now();
  const serve::PlanResponse miss = service.plan(request);
  const double serve_miss_seconds = seconds_since(miss_start);
  std::vector<EquivalenceRecord> equivalence;
  equivalence.push_back(check_equivalence("serve_miss", miss, direct));

  // --- hits: latency distribution (equivalence check #2 on the first). ---
  std::vector<double> hit_latencies;
  hit_latencies.reserve(static_cast<std::size_t>(hit_iterations));
  for (int i = 0; i < hit_iterations; ++i) {
    const Clock::time_point start = Clock::now();
    const serve::PlanResponse hit = service.plan(request);
    hit_latencies.push_back(seconds_since(start));
    if (i == 0) equivalence.push_back(check_equivalence("serve_hit", hit, direct));
  }
  const double hit_p50 = stats::percentile(hit_latencies, 0.50);
  const double hit_p99 = stats::percentile(hit_latencies, 0.99);
  std::printf("cache hit: p50 %.1f us, p99 %.1f us over %d requests\n",
              hit_p50 * 1e6, hit_p99 * 1e6, hit_iterations);

  // --- scaled hit: durations ×4, bytes ×2 (M, β adjusted to match) is the
  // same canonical request; the served plan must equal planning the scaled
  // profile directly (equivalence check #3 — the key property of §request.hpp).
  const double time_factor = 4.0, byte_factor = 2.0;
  const Chain scaled = scale_chain(r101, time_factor, byte_factor);
  const Platform scaled_platform{p4.processors,
                                 p4.memory_per_processor * byte_factor,
                                 p4.bandwidth * byte_factor / time_factor};
  const serve::PlanRequest scaled_request =
      make_request("bench_scaled", scaled, scaled_platform);
  const serve::PlanResponse scaled_hit = service.plan(scaled_request);
  const std::optional<Plan> scaled_direct =
      plan_madpipe(scaled, scaled_platform, plan_options);
  equivalence.push_back(
      check_equivalence("serve_scaled_hit", scaled_hit, scaled_direct));

  // --- coalescing: 16 identical requests land before the first completes;
  // exactly one planner run feeds all of them. ---
  serve::ServiceOptions coalesce_options;
  coalesce_options.workers = 4;
  serve::PlanService coalesce_service(coalesce_options);
  const int coalesce_clients = 16;
  std::vector<std::future<serve::PlanResponse>> coalesce_futures;
  for (int c = 0; c < coalesce_clients; ++c) {
    coalesce_futures.push_back(coalesce_service.submit(request));
  }
  for (std::future<serve::PlanResponse>& future : coalesce_futures)
    future.get();
  const serve::ServeStats coalesce_stats = coalesce_service.stats();
  std::printf("coalesce %d clients: %lld planner runs, %lld coalesced\n",
              coalesce_clients, coalesce_stats.planner_runs,
              coalesce_stats.coalesced);

  // --- hit throughput at 1/4/16 client threads. ---
  std::vector<ThroughputRecord> throughput;
  for (int clients : {1, 4, 16}) {
    throughput.push_back(
        hit_throughput(service, request, clients, throughput_seconds));
  }

  const serve::ServeStats serve_stats = service.stats();
  const double hit_speedup =
      hit_p50 > 0.0 ? cold_plan_seconds / hit_p50 : 0.0;
  std::printf("summary: cold %.3f s, hit p50 %.1f us -> %.0fx\n",
              cold_plan_seconds, hit_p50 * 1e6, hit_speedup);

  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("madpipe-bench-serve-v1");
  w.key("smoke");
  w.value(smoke);
  w.key("workload");
  w.begin_object();
  w.key("name"); w.value("plan_resnet101_24_p4_m8");
  w.key("hit_iterations"); w.value(hit_iterations);
  w.end_object();
  w.key("equivalence");
  w.begin_array();
  for (const EquivalenceRecord& record : equivalence) {
    w.begin_object();
    w.key("name"); w.value(record.name);
    w.key("cache"); w.value(record.cache);
    w.key("identical"); w.value(record.identical);
    w.key("serve_period"); w.value(record.serve_period);
    w.key("direct_period"); w.value(record.direct_period);
    w.key("serve_allocation"); w.value(record.serve_allocation);
    w.key("direct_allocation"); w.value(record.direct_allocation);
    w.end_object();
  }
  w.end_array();
  w.key("coalesce");
  w.begin_object();
  w.key("clients"); w.value(coalesce_clients);
  w.key("planner_runs"); w.value(coalesce_stats.planner_runs);
  w.key("coalesced"); w.value(coalesce_stats.coalesced);
  w.end_object();
  w.key("throughput");
  w.begin_array();
  for (const ThroughputRecord& record : throughput) {
    w.begin_object();
    w.key("clients"); w.value(record.clients);
    w.key("requests"); w.value(record.requests);
    w.key("wall_seconds"); w.value(record.wall_seconds);
    w.key("requests_per_second"); w.value(record.requests_per_second);
    w.end_object();
  }
  w.end_array();
  w.key("stats");
  serve_stats.write_json(w);
  w.key("summary");
  w.begin_object();
  w.key("cold_plan_seconds"); w.value(cold_plan_seconds);
  w.key("serve_miss_seconds"); w.value(serve_miss_seconds);
  w.key("hit_p50_seconds"); w.value(hit_p50);
  w.key("hit_p99_seconds"); w.value(hit_p99);
  w.key("hit_speedup"); w.value(hit_speedup);
  w.end_object();
  w.end_object();

  std::ofstream out(output);
  out << w.str() << "\n";
  std::printf("serve benchmark JSON -> %s\n", output.c_str());
  sinks.flush();

  // Equivalence is the contract: fail the bench loudly if it ever breaks.
  for (const EquivalenceRecord& record : equivalence) {
    if (!record.identical) return 1;
  }
  return 0;
}
