// Throughput floors that only mean something on a host with real
// parallelism: the TCP event loop, its dispatch pool and the load generator
// share the machine, and a shared CI core cannot sustain the rates below.
// Every test skips on hosts with fewer than 8 hardware threads. ctest runs
// this suite serially (tests/CMakeLists.txt), so no other test steals its
// cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "models/zoo.hpp"
#include "obs/tail_sampler.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace madpipe {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class PerfFloor : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::thread::hardware_concurrency() < 8) {
      GTEST_SKIP() << "throughput floors bind at >= 8 hardware threads";
    }
  }
};

/// One blocking loopback client speaking the newline framing.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(net::connect_tcp("127.0.0.1", port)) {}

  bool ok() const { return fd_.valid(); }

  bool send(const std::string& bytes) {
    return net::write_all(fd_.get(), bytes.data(), bytes.size());
  }

  bool recv(std::string& line) {
    line.clear();
    return net::read_line(fd_.get(), line, carry_);
  }

 private:
  net::FdGuard fd_;
  std::string carry_;
};

/// resnet50 on 2 GPUs, resolved server-side: a small frame, the hot path a
/// cache front-end sees.
std::string hit_frame() {
  json::Writer w;
  w.begin_object();
  w.key("id"); w.value("floor");
  w.key("network");
  w.begin_object();
  w.key("name"); w.value("resnet50");
  w.end_object();
  w.key("gpus"); w.value(2);
  w.key("memory_gb"); w.value(8);
  w.key("bandwidth_gbs"); w.value(12);
  w.end_object();
  return w.str() + "\n";
}

/// A loopback NetServer (2 planner workers, 2 dispatchers) whose cache
/// already holds hit_frame()'s plan.
struct WarmServer {
  WarmServer() : service(service_options()), server(service, loopback()) {
    Client client(server.port());
    std::string line;
    warmed = client.ok() && client.send(hit_frame()) && client.recv(line);
  }

  static serve::ServiceOptions service_options() {
    serve::ServiceOptions options;
    options.workers = 2;
    return options;
  }

  static serve::net::NetServerOptions loopback() {
    serve::net::NetServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.dispatch_workers = 2;
    return options;
  }

  serve::PlanService service;
  serve::net::NetServer server;
  bool warmed = false;
};

/// `clients` connections, each keeping `window` hit frames in flight for
/// `duration` seconds; aggregate responses per second.
double pipelined_rps(std::uint16_t port, int clients, int window,
                     double duration) {
  const std::string frame = hit_frame();
  std::vector<long long> counts(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      std::string burst;
      for (int i = 0; i < window; ++i) burst += frame;
      if (!client.ok() || !client.send(burst)) return;
      std::string line;
      long long received = 0;
      while (seconds_since(start) < duration) {
        if (!client.recv(line) || !client.send(frame)) return;
        ++received;
      }
      for (int i = 0; i < window && client.recv(line); ++i) ++received;
      counts[static_cast<std::size_t>(c)] = received;
    });
  }
  for (std::thread& thread : threads) thread.join();
  long long total = 0;
  for (const long long count : counts) total += count;
  return static_cast<double>(total) / seconds_since(start);
}

/// Exactly `count` hit frames on one connection, 16 in flight.
double fixed_run_rps(std::uint16_t port, int count) {
  const std::string frame = hit_frame();
  Client client(port);
  if (!client.ok()) return 0.0;
  const Clock::time_point start = Clock::now();
  int sent = 0;
  for (; sent < 16; ++sent) {
    if (!client.send(frame)) return 0.0;
  }
  std::string line;
  for (int received = 0; received < count; ++received) {
    if (!client.recv(line)) return 0.0;
    if (sent < count) {
      if (!client.send(frame)) return 0.0;
      ++sent;
    }
  }
  return static_cast<double>(count) / seconds_since(start);
}

TEST_F(PerfFloor, PipelinedTcpHitsSustainOneHundredThousandPerSecond) {
  WarmServer warm;
  ASSERT_TRUE(warm.warmed);
  double peak = 0.0;
  for (const int clients : {1, 2, 4}) {
    peak = std::max(peak, pipelined_rps(warm.server.port(), clients, 16, 0.4));
  }
  std::printf("PerfFloor pipelined TCP hits: %.0f req/s (floor 100000)\n",
              peak);
  EXPECT_GE(peak, 100'000.0);
}

TEST_F(PerfFloor, ArmedTailSamplingKeepsEightyPercentOfHitThroughput) {
  WarmServer warm;
  ASSERT_TRUE(warm.warmed);
  obs::disarm_tail_sampling();
  const double disarmed = fixed_run_rps(warm.server.port(), 1000);
  obs::arm_tail_sampling({});
  const double armed = fixed_run_rps(warm.server.port(), 1000);
  obs::disarm_tail_sampling();
  std::printf(
      "PerfFloor tail sampling: armed/disarmed %.3f (%.0f vs %.0f req/s, "
      "floor 0.8)\n",
      armed / disarmed, armed, disarmed);
  ASSERT_GT(disarmed, 0.0);
  EXPECT_GE(armed / disarmed, 0.8) << armed << " vs " << disarmed << " req/s";
}

TEST_F(PerfFloor, Gpt2XlServeHitIsOneHundredTimesFasterThanColdPlan) {
  models::NetworkConfig config;
  config.network = "gpt2-xl";
  config.batch = 8;
  const serve::PlanRequest request{"floor",
                                   models::build_network(config),
                                   Platform{4, 16 * GB, 12 * GB},
                                   MadPipeOptions{},
                                   0.0};
  serve::PlanService service;
  const Clock::time_point cold_start = Clock::now();
  const serve::PlanResponse cold = service.plan(request);
  const double cold_seconds = seconds_since(cold_start);
  const Clock::time_point hit_start = Clock::now();
  const serve::PlanResponse hit = service.plan(request);
  const double hit_seconds = seconds_since(hit_start);
  std::printf("PerfFloor gpt2-xl serve: cold/hit %.0f (floor 100)\n",
              cold_seconds / hit_seconds);
  ASSERT_EQ(cold.status, serve::ResponseStatus::Ok);
  ASSERT_EQ(hit.cache, serve::CacheOutcome::Hit);
  EXPECT_GE(cold_seconds / hit_seconds, 100.0);
}

}  // namespace
}  // namespace madpipe
