// Machine-readable network-serve benchmark: drives the `madpipe serve
// --listen` TCP front-end (NetServer) over loopback and writes
// BENCH_net.json so the wire path's perf trajectory can be tracked across
// PRs, next to BENCH_serve.json (which measures PlanService without the
// socket layer in front).
//
// Phases:
//   * equivalence — the response served over TCP (miss and hit) must carry a
//     plan block bit-identical to batch-mode serve on a fresh service; the
//     bench exits non-zero if the wire ever changes an answer;
//   * latency — closed-loop (window 1) hit traffic on one connection,
//     p50/p95/p99 of the full round trip;
//   * throughput — pipelined clients (window 16) at 1/2/4 connections,
//     aggregate hit requests per second;
//   * mixed — rotating over a pool of distinct requests, half prewarmed, so
//     the stream interleaves hits with real planner runs;
//   * overload — open-loop burst against a rate-limited server
//     (tokens_per_second + burst), measuring the shed fraction: admission
//     control must reject, not queue.
//
//   bench_net [-o FILE] [--smoke]   (default: BENCH_net.json;
//                                    --smoke = minimal iteration counts)
//
// Floors (≥100k hits/s) live in tools/check_bench_schema.py and are gated on
// the recorded hardware_threads.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/tail_sampler.hpp"
#include "serve/net/admin.hpp"
#include "serve/net/server.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/stats.hpp"

namespace {

using namespace madpipe;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One blocking loopback client speaking newline-delimited madpipe-serve-v1.
class Client {
 public:
  Client(const std::string& host, std::uint16_t port)
      : fd_(net::connect_tcp(host, port)) {}

  bool ok() const { return fd_.valid(); }

  bool send(const std::string& frame) {
    return net::write_all(fd_.get(), frame.data(), frame.size());
  }

  bool recv(std::string& line) {
    line.clear();
    return net::read_line(fd_.get(), line, carry_);
  }

 private:
  net::FdGuard fd_;
  std::string carry_;
};

/// The wire request used throughout: a zoo network resolved server-side, so
/// the frame stays small (the hot path a real cache front-end would see).
std::string request_frame(const std::string& id, double memory_gb) {
  json::Writer w;
  w.begin_object();
  w.key("id"); w.value(id);
  w.key("network");
  w.begin_object();
  w.key("name"); w.value("resnet50");
  w.end_object();
  w.key("gpus"); w.value(2);
  w.key("memory_gb"); w.value(memory_gb);
  w.key("bandwidth_gbs"); w.value(12);
  w.key("planner"); w.value("madpipe");
  w.end_object();
  return w.str() + "\n";
}

/// Everything from `"plan":` onward — deterministic planner output (no
/// latency fields), the part of the response that must survive the wire
/// bit for bit.
std::string plan_tail(const std::string& response) {
  const std::size_t pos = response.find("\"plan\":");
  return pos == std::string::npos ? std::string() : response.substr(pos);
}

bool has_field(const std::string& response, const char* field,
               const char* value) {
  const std::string needle =
      std::string("\"") + field + "\": \"" + value + "\"";
  if (response.find(needle) != std::string::npos) return true;
  const std::string tight = std::string("\"") + field + "\":\"" + value + "\"";
  return response.find(tight) != std::string::npos;
}

struct EquivalenceRecord {
  std::string name;
  std::string net_cache;
  bool identical = false;
};

struct ThroughputRecord {
  int clients = 0;
  int window = 0;
  long long requests = 0;
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
};

/// `clients` pipelined connections (window frames in flight each) hammer the
/// warm cache for `duration` seconds.
ThroughputRecord pipelined_throughput(const std::string& host,
                                      std::uint16_t port,
                                      const std::string& frame, int clients,
                                      int window, double duration) {
  ThroughputRecord record;
  record.clients = clients;
  record.window = window;
  std::vector<std::thread> threads;
  std::vector<long long> counts(static_cast<std::size_t>(clients), 0);
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(host, port);
      if (!client.ok()) return;
      std::string burst;
      for (int i = 0; i < window; ++i) burst += frame;
      if (!client.send(burst)) return;
      std::string line;
      long long local = 0;
      while (seconds_since(start) < duration) {
        if (!client.recv(line)) return;
        ++local;
        if (!client.send(frame)) return;
      }
      for (int i = 0; i < window; ++i) {
        if (!client.recv(line)) break;
        ++local;
      }
      counts[static_cast<std::size_t>(c)] = local;
    });
  }
  for (std::thread& thread : threads) thread.join();
  record.wall_seconds = seconds_since(start);
  for (long long count : counts) record.requests += count;
  record.requests_per_second =
      record.wall_seconds > 0.0
          ? static_cast<double>(record.requests) / record.wall_seconds
          : 0.0;
  std::printf("throughput %2d clients x window %2d: %8.0f req/s\n", clients,
              window, record.requests_per_second);
  return record;
}

/// One admin-endpoint scrape: fresh connection, GET, read to EOF (exactly
/// what a Prometheus scraper does). Returns the body; empty on failure.
std::string admin_scrape(const std::string& host, std::uint16_t port,
                         const std::string& path) {
  net::FdGuard fd = net::connect_tcp(host, port);
  if (!fd.valid()) return {};
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!net::write_all(fd.get(), request.data(), request.size())) return {};
  std::string out;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd.get(), buffer, sizeof(buffer))) > 0) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  const std::size_t sep = out.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : out.substr(sep + 4);
}

/// Exactly `count` pipelined hit requests on one connection; returns the
/// aggregate requests-per-second (0 on any transport failure).
double fixed_run_rps(const std::string& host, std::uint16_t port,
                     const std::string& frame, int count) {
  Client client(host, port);
  if (!client.ok()) return 0.0;
  const int window = std::min(16, count);
  const Clock::time_point start = Clock::now();
  int sent = 0, received = 0;
  std::string line;
  for (; sent < window; ++sent) {
    if (!client.send(frame)) return 0.0;
  }
  while (received < count) {
    if (!client.recv(line)) return 0.0;
    ++received;
    if (sent < count) {
      if (!client.send(frame)) return 0.0;
      ++sent;
    }
  }
  const double wall = seconds_since(start);
  return wall > 0.0 ? static_cast<double>(count) / wall : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_net.json";
  bool smoke = false;
  bench::ObsSinkArgs sinks;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (sinks.parse(argc, argv, &i)) continue;
    if (arg == "-o" && i + 1 < argc) output = argv[++i];
    if (arg == "--smoke") smoke = true;
  }
  sinks.install();
  const int latency_iterations = smoke ? 200 : 5000;
  const double throughput_seconds = smoke ? 0.05 : 0.4;
  const int mixed_rounds = smoke ? 64 : 512;
  const int overload_frames = smoke ? 500 : 2000;
  const int hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  const std::string host = "127.0.0.1";
  serve::ServiceOptions service_options;
  service_options.workers = 2;
  serve::PlanService service(service_options);
  serve::net::NetServerOptions server_options;
  server_options.host = host;
  server_options.port = 0;
  server_options.dispatch_workers = 2;
  serve::net::NetServer server(service, server_options);
  const std::uint16_t port = server.port();
  std::printf("bench_net: NetServer on %s:%u\n", host.c_str(), port);

  const std::string frame = request_frame("bench", 8.0);

  // --- equivalence: wire responses vs batch-mode serve on a fresh service.
  std::vector<EquivalenceRecord> equivalence;
  {
    serve::PlanService direct_service(service_options);
    const serve::BatchParse parsed =
        serve::parse_requests(frame.substr(0, frame.size() - 1));
    if (!parsed.ok() || parsed.requests.size() != 1 ||
        !parsed.requests[0].ok()) {
      std::fprintf(stderr, "bench request failed to parse\n");
      return 1;
    }
    const std::string direct_line = serve::response_to_json(
        direct_service.plan(*parsed.requests[0].request));

    Client client(host, port);
    if (!client.ok()) {
      std::fprintf(stderr, "cannot connect to bench server\n");
      return 1;
    }
    std::string miss_line, hit_line;
    if (!client.send(frame) || !client.recv(miss_line) ||
        !client.send(frame) || !client.recv(hit_line)) {
      std::fprintf(stderr, "equivalence round trip failed\n");
      return 1;
    }
    EquivalenceRecord miss;
    miss.name = "net_miss";
    miss.net_cache = has_field(miss_line, "cache", "miss") ? "miss" : "other";
    miss.identical = !plan_tail(miss_line).empty() &&
                     plan_tail(miss_line) == plan_tail(direct_line);
    equivalence.push_back(miss);
    EquivalenceRecord hit;
    hit.name = "net_hit";
    hit.net_cache = has_field(hit_line, "cache", "hit") ? "hit" : "other";
    hit.identical = !plan_tail(hit_line).empty() &&
                    plan_tail(hit_line) == plan_tail(direct_line);
    equivalence.push_back(hit);
    for (const EquivalenceRecord& record : equivalence) {
      std::printf("%-10s %-6s %s\n", record.name.c_str(),
                  record.net_cache.c_str(),
                  record.identical ? "bit-identical" : "MISMATCH");
    }
  }

  // --- latency: closed-loop hits, one request in flight. ---
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(latency_iterations));
  {
    Client client(host, port);
    std::string line;
    for (int i = 0; i < latency_iterations; ++i) {
      const Clock::time_point start = Clock::now();
      if (!client.send(frame) || !client.recv(line)) {
        std::fprintf(stderr, "latency round trip failed\n");
        return 1;
      }
      latencies.push_back(seconds_since(start));
    }
  }
  const double p50 = stats::percentile(latencies, 0.50);
  const double p95 = stats::percentile(latencies, 0.95);
  const double p99 = stats::percentile(latencies, 0.99);
  std::printf("hit latency: p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
              p50 * 1e6, p95 * 1e6, p99 * 1e6);

  // --- throughput: pipelined hit traffic at 1/2/4 connections. ---
  std::vector<ThroughputRecord> throughput;
  double peak_rps = 0.0;
  for (int clients : {1, 2, 4}) {
    const ThroughputRecord record = pipelined_throughput(
        host, port, frame, clients, 16, throughput_seconds);
    peak_rps = std::max(peak_rps, record.requests_per_second);
    throughput.push_back(record);
  }

  // --- mixed: a pool of 8 distinct requests, 4 prewarmed — the stream
  // interleaves cache hits with real planner runs. ---
  long long mixed_hits = 0, mixed_misses = 0, mixed_requests = 0;
  double mixed_seconds = 0.0;
  {
    std::vector<std::string> pool;
    for (int k = 0; k < 8; ++k) {
      pool.push_back(request_frame("mix" + std::to_string(k),
                                   4.0 + static_cast<double>(k)));
    }
    Client warm(host, port);
    std::string line;
    for (int k = 0; k < 4; ++k) {
      if (!warm.send(pool[static_cast<std::size_t>(k)]) || !warm.recv(line)) {
        std::fprintf(stderr, "mixed warm-up failed\n");
        return 1;
      }
    }
    Client client(host, port);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < mixed_rounds; ++i) {
      const std::string& request = pool[static_cast<std::size_t>(i % 8)];
      if (!client.send(request) || !client.recv(line)) {
        std::fprintf(stderr, "mixed round trip failed\n");
        return 1;
      }
      ++mixed_requests;
      if (has_field(line, "cache", "hit")) ++mixed_hits;
      if (has_field(line, "cache", "miss")) ++mixed_misses;
    }
    mixed_seconds = seconds_since(start);
  }
  std::printf("mixed: %lld requests (%lld hits, %lld misses), %8.0f req/s\n",
              mixed_requests, mixed_hits, mixed_misses,
              mixed_seconds > 0.0 ? mixed_requests / mixed_seconds : 0.0);

  // --- overload: open-loop burst against a rate-limited server; admission
  // control must shed (reject) instead of queueing. ---
  const double overload_rate = 2000.0;
  const double overload_burst = 16.0;
  long long overload_rejected = 0, overload_served = 0;
  {
    serve::net::NetServerOptions limited = server_options;
    limited.tokens_per_second = overload_rate;
    limited.token_burst = overload_burst;
    serve::net::NetServer limited_server(service, limited);
    Client client(host, limited_server.port());
    std::string burst;
    for (int i = 0; i < overload_frames; ++i) burst += frame;
    if (!client.send(burst)) {
      std::fprintf(stderr, "overload burst send failed\n");
      return 1;
    }
    std::string line;
    for (int i = 0; i < overload_frames; ++i) {
      if (!client.recv(line)) {
        std::fprintf(stderr, "overload response %d missing\n", i);
        return 1;
      }
      if (has_field(line, "status", "rejected")) {
        ++overload_rejected;
      } else {
        ++overload_served;
      }
    }
    const serve::net::NetServerStats limited_stats = limited_server.stats();
    if (limited_stats.shed_rate != overload_rejected) {
      std::fprintf(stderr,
                   "shed accounting mismatch: %lld responses vs %lld stat\n",
                   overload_rejected, limited_stats.shed_rate);
      return 1;
    }
  }
  const double shed_fraction =
      static_cast<double>(overload_rejected) / overload_frames;
  std::printf("overload: %d frames at %d/s budget -> %lld served, %lld shed "
              "(%.1f%%)\n",
              overload_frames, static_cast<int>(overload_rate),
              overload_served, overload_rejected, shed_fraction * 100.0);

  // --- admin: scrape latency of the telemetry endpoint while the server
  // is warm. Every scrape is a fresh connection + GET /metrics, the
  // Prometheus pattern; /healthz must answer ok on a live server. ---
  const int admin_scrapes = smoke ? 50 : 200;
  std::vector<double> scrape_latencies;
  std::size_t metrics_bytes = 0;
  bool healthz_ok = false;
  {
    serve::net::AdminServerOptions admin_options;
    admin_options.host = host;
    admin_options.port = 0;
    admin_options.draining = [&server] { return server.draining(); };
    serve::net::AdminServer admin(admin_options);
    healthz_ok = admin_scrape(host, admin.port(), "/healthz") == "ok\n";
    scrape_latencies.reserve(static_cast<std::size_t>(admin_scrapes));
    for (int i = 0; i < admin_scrapes; ++i) {
      const Clock::time_point start = Clock::now();
      const std::string body = admin_scrape(host, admin.port(), "/metrics");
      if (body.empty() ||
          body.find("madpipe_net_connections") == std::string::npos) {
        std::fprintf(stderr, "admin scrape %d failed\n", i);
        return 1;
      }
      scrape_latencies.push_back(seconds_since(start));
      metrics_bytes = body.size();
    }
  }
  const double scrape_p50 = stats::percentile(scrape_latencies, 0.50);
  const double scrape_p95 = stats::percentile(scrape_latencies, 0.95);
  std::printf("admin: %d /metrics scrapes, p50 %.1f us, p95 %.1f us "
              "(%zu bytes), healthz %s\n",
              admin_scrapes, scrape_p50 * 1e6, scrape_p95 * 1e6,
              metrics_bytes, healthz_ok ? "ok" : "FAILED");

  // --- tail sampling: the same fixed hit run with the sampler disarmed and
  // armed. Arming must not cost throughput — the ratio is floor-checked
  // (hardware-gated) by tools/check_bench_schema.py. ---
  const int tail_requests = smoke ? 200 : 1000;
  obs::disarm_tail_sampling();
  const double tail_baseline_rps =
      fixed_run_rps(host, port, frame, tail_requests);
  obs::arm_tail_sampling({});
  const double tail_armed_rps = fixed_run_rps(host, port, frame, tail_requests);
  obs::disarm_tail_sampling();
  if (tail_baseline_rps <= 0.0 || tail_armed_rps <= 0.0) {
    std::fprintf(stderr, "tail-sampling run failed\n");
    return 1;
  }
  const double tail_ratio = tail_armed_rps / tail_baseline_rps;
  std::printf("tail sampling: %d requests, %8.0f req/s disarmed, "
              "%8.0f req/s armed (ratio %.2f)\n",
              tail_requests, tail_baseline_rps, tail_armed_rps, tail_ratio);

  const serve::net::NetServerStats server_stats = server.stats();
  server.stop();

  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.value("madpipe-bench-net-v1");
  w.key("smoke");
  w.value(smoke);
  w.key("hardware_threads");
  w.value(hardware_threads);
  w.key("workload");
  w.begin_object();
  w.key("name"); w.value("serve_resnet50_p2_m8_tcp");
  w.key("request_bytes"); w.value(frame.size());
  w.key("latency_iterations"); w.value(latency_iterations);
  w.end_object();
  w.key("equivalence");
  w.begin_array();
  for (const EquivalenceRecord& record : equivalence) {
    w.begin_object();
    w.key("name"); w.value(record.name);
    w.key("cache"); w.value(record.net_cache);
    w.key("identical"); w.value(record.identical);
    w.end_object();
  }
  w.end_array();
  w.key("latency");
  w.begin_object();
  w.key("p50_seconds"); w.value(p50);
  w.key("p95_seconds"); w.value(p95);
  w.key("p99_seconds"); w.value(p99);
  w.end_object();
  w.key("throughput");
  w.begin_array();
  for (const ThroughputRecord& record : throughput) {
    w.begin_object();
    w.key("clients"); w.value(record.clients);
    w.key("window"); w.value(record.window);
    w.key("requests"); w.value(record.requests);
    w.key("wall_seconds"); w.value(record.wall_seconds);
    w.key("requests_per_second"); w.value(record.requests_per_second);
    w.end_object();
  }
  w.end_array();
  w.key("mixed");
  w.begin_object();
  w.key("requests"); w.value(mixed_requests);
  w.key("hits"); w.value(mixed_hits);
  w.key("misses"); w.value(mixed_misses);
  w.key("wall_seconds"); w.value(mixed_seconds);
  w.key("requests_per_second");
  w.value(mixed_seconds > 0.0 ? mixed_requests / mixed_seconds : 0.0);
  w.end_object();
  w.key("overload");
  w.begin_object();
  w.key("frames"); w.value(overload_frames);
  w.key("tokens_per_second"); w.value(overload_rate);
  w.key("token_burst"); w.value(overload_burst);
  w.key("served"); w.value(overload_served);
  w.key("rejected"); w.value(overload_rejected);
  w.key("shed_fraction"); w.value(shed_fraction);
  w.end_object();
  w.key("admin");
  w.begin_object();
  w.key("scrapes"); w.value(admin_scrapes);
  w.key("scrape_p50_seconds"); w.value(scrape_p50);
  w.key("scrape_p95_seconds"); w.value(scrape_p95);
  w.key("metrics_bytes"); w.value(metrics_bytes);
  w.key("healthz_ok"); w.value(healthz_ok);
  w.end_object();
  w.key("tail_sampling");
  w.begin_object();
  w.key("requests"); w.value(tail_requests);
  w.key("baseline_requests_per_second"); w.value(tail_baseline_rps);
  w.key("armed_requests_per_second"); w.value(tail_armed_rps);
  w.key("throughput_ratio"); w.value(tail_ratio);
  w.end_object();
  w.key("server_stats");
  w.begin_object();
  w.key("accepted"); w.value(server_stats.accepted);
  w.key("closed"); w.value(server_stats.closed);
  w.key("frames"); w.value(server_stats.frames);
  w.key("responses"); w.value(server_stats.responses);
  w.key("shed_rate"); w.value(server_stats.shed_rate);
  w.key("shed_depth"); w.value(server_stats.shed_depth);
  w.key("protocol_errors"); w.value(server_stats.protocol_errors);
  w.key("oversized"); w.value(server_stats.oversized);
  w.key("bytes_in"); w.value(server_stats.bytes_in);
  w.key("bytes_out"); w.value(server_stats.bytes_out);
  w.end_object();
  w.key("summary");
  w.begin_object();
  w.key("hit_p50_seconds"); w.value(p50);
  w.key("hit_p99_seconds"); w.value(p99);
  w.key("peak_requests_per_second"); w.value(peak_rps);
  w.end_object();
  w.end_object();

  std::ofstream out(output);
  out << w.str() << "\n";
  std::printf("net benchmark JSON -> %s\n", output.c_str());
  sinks.flush();

  // The wire must never change an answer: fail loudly if it does. The
  // admin endpoint answering /healthz on a live server is equally load
  // bearing for the CI smoke.
  for (const EquivalenceRecord& record : equivalence) {
    if (!record.identical) return 1;
  }
  if (!healthz_ok) return 1;
  return 0;
}
