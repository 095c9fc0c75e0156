// NetServer loopback integration tests: the TCP front-end must speak
// newline-delimited madpipe-serve-v1 faithfully (miss/hit round trips bit
// identical to batch-mode serve, responses in request order), survive
// malformed frames, slow writers and half-closed peers, shed load per its
// admission-control knobs, and shut down gracefully with every in-flight
// response delivered.
#include "serve/net/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "models/profile_io.hpp"
#include "obs/metrics.hpp"
#include "obs/tail_sampler.hpp"
#include "obs/trace.hpp"
#include "serve/net/admin.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/stats.hpp"

namespace madpipe::serve::net {
namespace {

using namespace std::chrono_literals;

/// One blocking loopback client speaking the newline framing.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(madpipe::net::connect_tcp("127.0.0.1", port)) {}

  bool ok() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  bool send(const std::string& bytes) {
    return madpipe::net::write_all(fd_.get(), bytes.data(), bytes.size());
  }

  bool recv(std::string& line) {
    line.clear();
    return madpipe::net::read_line(fd_.get(), line, carry_);
  }

  /// SHUT_WR: we promise to send nothing further; reads stay open.
  void half_close() { ::shutdown(fd_.get(), SHUT_WR); }

 private:
  madpipe::net::FdGuard fd_;
  std::string carry_;
};

/// A cheap request (resnet50/8 on 2 GPUs plans in well under a millisecond)
/// with an id and a distinguishing memory size.
std::string fast_frame(const std::string& id, double memory_gb = 8.0) {
  json::Writer w;
  w.begin_object();
  w.key("id"); w.value(id);
  w.key("network");
  w.begin_object();
  w.key("name"); w.value("resnet50");
  w.key("length"); w.value(8);
  w.end_object();
  w.key("gpus"); w.value(2);
  w.key("memory_gb"); w.value(memory_gb);
  w.end_object();
  return w.str() + "\n";
}

/// A request that really plans (tens of milliseconds): long chain, 4 GPUs,
/// full default grids. `length` varies the fingerprint.
std::string slow_frame(const std::string& id, int length) {
  json::Writer w;
  w.begin_object();
  w.key("id"); w.value(id);
  w.key("network");
  w.begin_object();
  w.key("name"); w.value("resnet50");
  w.key("length"); w.value(length);
  w.end_object();
  w.key("gpus"); w.value(4);
  w.key("memory_gb"); w.value(8);
  w.end_object();
  return w.str() + "\n";
}

std::string field(const std::string& response, const char* name) {
  const json::ParseResult parsed = json::parse(response);
  if (!parsed.ok()) return "<unparseable>";
  return parsed.value.string_or(name, "");
}

/// Everything from `"plan":` onward — the deterministic part of a response.
std::string plan_tail(const std::string& response) {
  const std::size_t pos = response.find("\"plan\":");
  return pos == std::string::npos ? std::string() : response.substr(pos);
}

struct Harness {
  explicit Harness(NetServerOptions options = {},
                   ServiceOptions service_options = {})
      : service(service_options), server(service, with_loopback(options)) {}

  static NetServerOptions with_loopback(NetServerOptions options) {
    options.host = "127.0.0.1";
    options.port = 0;
    options.dispatch_workers = 2;
    return options;
  }

  PlanService service;
  NetServer server;
};

TEST(ServeNet, MissThenHitMatchBatchModeServe) {
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  const std::string frame = fast_frame("t1");
  std::string miss_line, hit_line;
  ASSERT_TRUE(client.send(frame));
  ASSERT_TRUE(client.recv(miss_line));
  ASSERT_TRUE(client.send(frame));
  ASSERT_TRUE(client.recv(hit_line));

  EXPECT_EQ(field(miss_line, "id"), "t1");
  EXPECT_EQ(field(miss_line, "status"), "ok");
  EXPECT_EQ(field(miss_line, "cache"), "miss");
  EXPECT_EQ(field(hit_line, "status"), "ok");
  EXPECT_EQ(field(hit_line, "cache"), "hit");

  // The plan block must be bit-identical to batch-mode serve on a fresh
  // service answering the same request.
  const BatchParse parsed = parse_requests(frame.substr(0, frame.size() - 1));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.requests.size(), 1u);
  ASSERT_TRUE(parsed.requests[0].ok());
  PlanService direct;
  const std::string direct_line =
      response_to_json(direct.plan(*parsed.requests[0].request));
  ASSERT_FALSE(plan_tail(direct_line).empty());
  EXPECT_EQ(plan_tail(miss_line), plan_tail(direct_line));
  EXPECT_EQ(plan_tail(hit_line), plan_tail(direct_line));

  const NetServerStats stats = h.server.stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.frames, 2);
  EXPECT_EQ(stats.responses, 2);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(ServeNet, V2JsonProfileFrameMatchesV1TextBitForBit) {
  // The same profile as v1 text and as v2 JSON (both inline in
  // profile_text) through the TCP front-end: the plan blocks must be
  // bit-identical to each other and to batch-mode serve — the v2 format is
  // accepted everywhere v1 is, with identical results.
  const Chain chain = make_uniform_chain(6, ms(2), ms(4), MB, 8 * MB, MB);
  const auto frame = [&](const std::string& id, const std::string& profile) {
    json::Writer w;
    w.begin_object();
    w.key("id"); w.value(id);
    w.key("profile_text"); w.value(profile);
    w.key("gpus"); w.value(2);
    w.key("memory_gb"); w.value(8);
    w.end_object();
    return w.str() + "\n";
  };
  const std::string v1 = frame("v1", models::profile_to_string(chain));
  const std::string v2 = frame("v2", models::profile_to_json_string(chain));

  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());
  std::string v1_line, v2_line;
  ASSERT_TRUE(client.send(v1));
  ASSERT_TRUE(client.recv(v1_line));
  ASSERT_TRUE(client.send(v2));
  ASSERT_TRUE(client.recv(v2_line));

  EXPECT_EQ(field(v1_line, "status"), "ok");
  EXPECT_EQ(field(v2_line, "status"), "ok");
  ASSERT_FALSE(plan_tail(v1_line).empty());
  EXPECT_EQ(plan_tail(v2_line), plan_tail(v1_line));
  // The v2 request is a cache hit: identical canonical chain, identical
  // fingerprint.
  EXPECT_EQ(field(v2_line, "cache"), "hit");

  // Batch-mode serve on a fresh service agrees bit for bit.
  const BatchParse parsed = parse_requests(v1.substr(0, v1.size() - 1));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.requests[0].ok());
  PlanService direct;
  const std::string direct_line =
      response_to_json(direct.plan(*parsed.requests[0].request));
  EXPECT_EQ(plan_tail(v1_line), plan_tail(direct_line));
}

TEST(ServeNet, PipelinedResponsesArriveInRequestOrder) {
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  std::string burst;
  for (int i = 0; i < 6; ++i) {
    burst += fast_frame("seq" + std::to_string(i), 4.0 + i);
  }
  ASSERT_TRUE(client.send(burst));
  for (int i = 0; i < 6; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv(line)) << "response " << i << " missing";
    EXPECT_EQ(field(line, "id"), "seq" + std::to_string(i));
  }
}

TEST(ServeNet, MalformedFrameGetsErrorAndConnectionSurvives) {
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  std::string line;
  ASSERT_TRUE(client.send("this is not json\n"));
  ASSERT_TRUE(client.recv(line));
  EXPECT_EQ(field(line, "status"), "error");

  // Duplicate keys are a protocol error too (strict parser).
  ASSERT_TRUE(client.send("{\"id\": \"d\", \"id\": \"d\"}\n"));
  ASSERT_TRUE(client.recv(line));
  EXPECT_EQ(field(line, "status"), "error");

  // The connection is still usable for a well-formed request.
  ASSERT_TRUE(client.send(fast_frame("after-error")));
  ASSERT_TRUE(client.recv(line));
  EXPECT_EQ(field(line, "id"), "after-error");
  EXPECT_EQ(field(line, "status"), "ok");

  EXPECT_EQ(h.server.stats().protocol_errors, 2);
}

TEST(ServeNet, OversizedFrameClosesConnection) {
  NetServerOptions options;
  options.max_frame_bytes = 1024;
  Harness h(options);
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());
  const obs::Counter& registry_oversized =
      obs::Registry::global().counter("madpipe_net_oversized_total");
  const long long oversized_before = registry_oversized.value();

  ASSERT_TRUE(client.send(std::string(2048, 'x')));
  std::string line;
  ASSERT_TRUE(client.recv(line));
  EXPECT_EQ(field(line, "status"), "error");
  // After the error line the server closes: the next read sees EOF.
  EXPECT_FALSE(client.recv(line));
  EXPECT_EQ(h.server.stats().oversized, 1);
  EXPECT_EQ(registry_oversized.value() - oversized_before, 1);
}

TEST(ServeNet, SlowClientByteByByteStillGetsServed) {
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  const std::string frame = fast_frame("drip");
  for (const char c : frame) {
    ASSERT_TRUE(client.send(std::string(1, c)));
    if (static_cast<unsigned char>(c) % 16 == 0) {
      std::this_thread::sleep_for(1ms);
    }
  }
  std::string line;
  ASSERT_TRUE(client.recv(line));
  EXPECT_EQ(field(line, "id"), "drip");
  EXPECT_EQ(field(line, "status"), "ok");
}

TEST(ServeNet, HalfCloseStillDeliversPendingResponse) {
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.send(fast_frame("half")));
  client.half_close();
  std::string line;
  ASSERT_TRUE(client.recv(line));
  EXPECT_EQ(field(line, "id"), "half");
  EXPECT_EQ(field(line, "status"), "ok");
  // Nothing more to serve: the server closes its side too.
  EXPECT_FALSE(client.recv(line));
}

TEST(ServeNet, TokenBucketShedsExcessRate) {
  NetServerOptions options;
  options.tokens_per_second = 1.0;  // refill is negligible within the test
  options.token_burst = 3.0;
  Harness h(options);
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  const std::string frame = fast_frame("rate");
  std::string burst;
  for (int i = 0; i < 10; ++i) burst += frame;
  ASSERT_TRUE(client.send(burst));

  int ok = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv(line));
    const std::string status = field(line, "status");
    if (status == "ok") ++ok;
    if (status == "rejected") ++rejected;
  }
  EXPECT_EQ(ok + rejected, 10);
  EXPECT_GE(ok, 1);        // the initial burst allowance
  EXPECT_GE(rejected, 6);  // everything past it, minus refill slack
  EXPECT_EQ(h.server.stats().shed_rate, rejected);
}

TEST(ServeNet, ServiceBacklogShedsByQueueDepth) {
  NetServerOptions options;
  options.shed_queue_depth = 1;
  ServiceOptions service_options;
  service_options.workers = 1;
  // Declared before the harness so they outlive the service's drain.
  std::promise<void> parked;
  std::promise<void> gate;
  Harness h(options, service_options);
  // Opens the gate on every exit path, before the service drains.
  struct GateGuard {
    std::promise<void>& gate;
    bool open = false;
    void release() {
      if (!open) gate.set_value();
      open = true;
    }
    ~GateGuard() { release(); }
  } guard{gate};
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  // A, submitted straight to the service, holds the single planner worker:
  // its completion callback runs on that worker and parks there until the
  // gate opens. The backlog below stands however fast the planner is.
  std::future<void> a_parked = parked.get_future();
  h.service.submit_async(
      PlanRequest{"a", make_uniform_chain(6, ms(2), ms(4), MB, 8 * MB, MB),
                  Platform{2, 8 * GB, 12 * GB}, MadPipeOptions{}, 0.0},
      [&parked, open = gate.get_future().share()](PlanResponse&&) {
        parked.set_value();
        open.wait();
      });
  ASSERT_EQ(a_parked.wait_for(10s), std::future_status::ready)
      << "the worker never picked up A";

  // B is admitted (the queue is empty) and queues behind A.
  ASSERT_TRUE(client.send(fast_frame("queued-b")));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (h.service.queue_depth() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(h.service.queue_depth(), 1u) << "backlog never formed";

  // C arrives while the backlog stands: admission control sheds it. Only
  // then does A let go of the worker.
  ASSERT_TRUE(client.send(fast_frame("shed-c", 4.0)));
  while (h.server.stats().shed_depth < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  guard.release();

  std::string b, c;
  ASSERT_TRUE(client.recv(b));
  ASSERT_TRUE(client.recv(c));
  EXPECT_EQ(field(b, "id"), "queued-b");
  EXPECT_EQ(field(b, "status"), "ok");
  // Shed responses carry an empty id: admission control fires before the
  // frame is ever parsed, so position in the in-order stream correlates it.
  EXPECT_EQ(field(c, "id"), "");
  EXPECT_EQ(field(c, "status"), "rejected");
  EXPECT_EQ(h.server.stats().shed_depth, 1);
}

TEST(ServeNet, NoFrameIsAdmittedBehindAShedWriteThatFailed) {
  // A shed response is written inline, while the frames behind it in the
  // same read are still unparsed. When that write fails on a reset socket
  // with nothing in flight, the connection retires at once; a frame behind
  // it that finds a refilled token must not be admitted, or its response
  // slot outlives the connection. Under ASan that shows as a use-after-free
  // when the frame's plan completes; in any build it breaks the open_slot
  // invariant, which ends the process. The token refills kPeriod after
  // the one spent below; each round sends its burst half a millisecond
  // later, so in some round the refill lands inside the burst's read.
  constexpr auto kPeriod = 8ms;
  constexpr int kRounds = 16;
  NetServerOptions options;
  options.tokens_per_second =
      1.0 / std::chrono::duration<double>(kPeriod).count();
  options.token_burst = 1.0;
  Harness h(options);

  for (int round = 0; round < kRounds; ++round) {
    // A read's worth of planner-bound frames; each round plans a new chain.
    const std::string frame = slow_frame("r", 24 + round);
    std::string burst;
    while (burst.size() + frame.size() <= 60 * 1024) burst += frame;

    Client client(h.server.port());
    ASSERT_TRUE(client.ok());
    const linger reset{1, 0};  // close() sends RST
    ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof(reset)),
              0);
    // Spend the token on a frame answered at once: nothing stays in flight.
    std::string line;
    ASSERT_TRUE(client.send("not json\n"));
    ASSERT_TRUE(client.recv(line));
    ASSERT_EQ(field(line, "status"), "error");
    std::this_thread::sleep_for(round * 500us);
    // The burst's first frame is shed, and the reset fails its write.
    ASSERT_TRUE(client.send(burst));
  }

  // The server lives on and serves a new connection.
  Client after(h.server.port());
  ASSERT_TRUE(after.ok());
  std::this_thread::sleep_for(kPeriod);  // a fresh token
  std::string line;
  ASSERT_TRUE(after.send(fast_frame("after")));
  ASSERT_TRUE(after.recv(line));
  EXPECT_EQ(field(line, "id"), "after");
  EXPECT_EQ(field(line, "status"), "ok");

  // Stopping drains every admitted frame; each was answered exactly once.
  h.server.stop();
  const NetServerStats stats = h.server.stats();
  EXPECT_GE(stats.shed_rate, 1);
  EXPECT_EQ(stats.frames, stats.responses);
}

TEST(ServeNet, MultiClientHammerServesEveryRequest) {
  Harness h;
  const std::uint16_t port = h.server.port();

  // Warm the cache so the hammer is pure hit traffic.
  {
    Client warm(port);
    ASSERT_TRUE(warm.ok());
    std::string line;
    ASSERT_TRUE(warm.send(fast_frame("warm")));
    ASSERT_TRUE(warm.recv(line));
    ASSERT_EQ(field(line, "status"), "ok");
  }

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> threads;
  std::vector<int> ok_counts(kClients, 0);
  std::vector<std::vector<double>> round_trips(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      if (!client.ok()) return;
      const std::string frame = fast_frame("h" + std::to_string(c));
      std::string line;
      for (int i = 0; i < kPerClient; ++i) {
        const auto start = std::chrono::steady_clock::now();
        if (!client.send(frame)) return;
        if (!client.recv(line)) return;
        round_trips[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count());
        if (field(line, "status") == "ok") {
          ++ok_counts[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<double> latencies;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[static_cast<std::size_t>(c)], kPerClient);
    latencies.insert(latencies.end(),
                     round_trips[static_cast<std::size_t>(c)].begin(),
                     round_trips[static_cast<std::size_t>(c)].end());
  }
  // A closed-loop cache hit is a lookup plus two socket hops, never a
  // planning run.
  ASSERT_EQ(latencies.size(), static_cast<std::size_t>(kClients * kPerClient));
  EXPECT_LE(stats::percentile(latencies, 0.99), 0.1);
  const NetServerStats stats = h.server.stats();
  EXPECT_EQ(stats.frames, 1 + kClients * kPerClient);
  EXPECT_EQ(stats.responses, 1 + kClients * kPerClient);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(ServeNet, GracefulStopDeliversInFlightResponses) {
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  // A real planning run is in flight when stop() lands.
  ASSERT_TRUE(client.send(slow_frame("inflight", 16)));
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (h.server.stats().frames < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  h.server.stop();

  std::string line;
  ASSERT_TRUE(client.recv(line)) << "in-flight response lost at shutdown";
  EXPECT_EQ(field(line, "id"), "inflight");
  EXPECT_EQ(field(line, "status"), "ok");
  EXPECT_FALSE(client.recv(line));  // drained, flushed, closed
}

// --- Request-scoped tracing and the admin endpoint ------------------------

/// Parse the echoed trace id (16 lowercase hex digits) back to its number.
std::uint64_t echoed_trace_id(const std::string& response) {
  const std::string hex = field(response, "trace_id");
  if (hex.size() != 16) return 0;
  return std::strtoull(hex.c_str(), nullptr, 16);
}

const obs::TraceEvent* find_span(const std::vector<obs::TraceEvent>& events,
                                 const char* name, std::uint64_t trace_id) {
  for (const obs::TraceEvent& event : events) {
    if (event.name != nullptr && std::string(name) == event.name &&
        event.trace_id == trace_id) {
      return &event;
    }
  }
  return nullptr;
}

/// One blocking admin-endpoint GET; returns the response body.
std::string admin_get(std::uint16_t port, const std::string& path) {
  madpipe::net::FdGuard fd = madpipe::net::connect_tcp("127.0.0.1", port);
  if (!fd.valid()) return {};
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!madpipe::net::write_all(fd.get(), request.data(), request.size())) {
    return {};
  }
  std::string out;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd.get(), buffer, sizeof(buffer))) > 0) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  const std::size_t sep = out.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : out.substr(sep + 4);
}

TEST(ServeNet, TraceIdPropagatesAcrossThreadsOntoEverySpan) {
  obs::install_trace();
  {
    Harness h;
    Client client(h.server.port());
    ASSERT_TRUE(client.ok());

    std::string line;
    ASSERT_TRUE(client.send(fast_frame("traced")));
    ASSERT_TRUE(client.recv(line));
    ASSERT_EQ(field(line, "status"), "ok");
    ASSERT_EQ(field(line, "cache"), "miss");
    const std::uint64_t id = echoed_trace_id(line);
    ASSERT_NE(id, 0u) << line;

    // The request crossed three threads — the event loop's dispatch worker
    // (admission + cache probe), the queue, a planner worker — and every
    // phase span carries the id echoed in the response.
    const std::vector<obs::TraceEvent> events = obs::drain_trace();
    const obs::TraceEvent* submit = find_span(events, "serve_submit", id);
    const obs::TraceEvent* wait = find_span(events, "queue_wait", id);
    const obs::TraceEvent* plan = find_span(events, "serve_plan", id);
    ASSERT_NE(submit, nullptr);
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(plan, nullptr);
    // The planner ran on a different thread than admission, yet the tree
    // reassembles by id alone.
    EXPECT_NE(submit->tid, plan->tid);
    EXPECT_GE(plan->start_ns, submit->start_ns);
  }
  obs::uninstall_trace();
}

TEST(ServeNet, EchoedTraceIdIsCacheKeyInert) {
  // Telemetry fully disarmed: ids are still assigned and echoed, and they
  // must not leak into the cache key — a hit and its original miss return
  // bit-identical plan blocks under different trace ids.
  ASSERT_FALSE(obs::trace_enabled());
  ASSERT_FALSE(obs::tail_enabled());
  Harness h;
  Client client(h.server.port());
  ASSERT_TRUE(client.ok());

  const std::string frame = fast_frame("inert");
  std::string miss_line, hit_line;
  ASSERT_TRUE(client.send(frame));
  ASSERT_TRUE(client.recv(miss_line));
  ASSERT_TRUE(client.send(frame));
  ASSERT_TRUE(client.recv(hit_line));

  EXPECT_EQ(field(miss_line, "cache"), "miss");
  EXPECT_EQ(field(hit_line, "cache"), "hit");
  const std::uint64_t miss_id = echoed_trace_id(miss_line);
  const std::uint64_t hit_id = echoed_trace_id(hit_line);
  ASSERT_NE(miss_id, 0u);
  ASSERT_NE(hit_id, 0u);
  EXPECT_NE(miss_id, hit_id);
  ASSERT_FALSE(plan_tail(miss_line).empty());
  EXPECT_EQ(plan_tail(hit_line), plan_tail(miss_line));
}

/// A response with the per-submission fields (trace id, latency, phase
/// times) taken out: what every repeat of one frame must return.
std::string repeatable_part(const std::string& response) {
  const json::ParseResult parsed = json::parse(response);
  if (!parsed.ok()) return "<unparseable>";
  json::Writer w;
  w.begin_object();
  for (const auto& [key, value] : parsed.value.members()) {
    if (key == "trace_id" || key == "latency_ms") continue;
    w.key(key);
    if (key == "phases") {
      // A hit spends time only in the cache phase.
      w.begin_object();
      for (const auto& [phase, ms] : value.members()) {
        w.key(phase);
        w.value(phase == "cache_ms" ? ms.as_number() > 0.0
                                    : ms.as_number() == 0.0);
      }
      w.end_object();
    } else if (key == "explain") {
      w.begin_object();
      for (const auto& [name, item] : value.members()) {
        w.key(name);
        if (item.is_string()) {
          w.value(item.as_string());
        } else {
          w.value(item.as_number());
        }
      }
      w.end_object();
    } else if (key == "plan") {
      w.value(plan_tail(response));
    } else if (value.is_string()) {
      w.value(value.as_string());
    } else if (value.is_bool()) {
      w.value(value.as_bool());
    } else {
      w.value(value.as_number());
    }
  }
  w.end_object();
  return w.str();
}

TEST(ServeNet, RepeatedFrameIsPreparedOnceAndAnswersAsBefore) {
  // An inline v2 profile, as a client sends it, and the same profile with
  // every duration doubled and every byte quantity quadrupled (memory and
  // bandwidth follow), which shares the first one's cache entry.
  const Chain chain = make_uniform_chain(6, ms(2), ms(4), MB, 8 * MB, MB);
  const Chain scaled =
      make_uniform_chain(6, ms(4), ms(8), 4 * MB, 32 * MB, 4 * MB);
  const auto frame = [](const std::string& id, const Chain& profile,
                        double memory_gb, double bandwidth_gbs,
                        bool explain_timings) {
    json::Writer w;
    w.begin_object();
    w.key("id"); w.value(id);
    w.key("profile_text"); w.value(models::profile_to_json_string(profile));
    w.key("gpus"); w.value(2);
    w.key("memory_gb"); w.value(memory_gb);
    w.key("bandwidth_gbs"); w.value(bandwidth_gbs);
    if (explain_timings) {
      w.key("options");
      w.begin_object();
      w.key("explain"); w.value(true);
      w.key("timings"); w.value(true);
      w.end_object();
    }
    w.end_object();
    return w.str() + "\n";
  };
  const std::string warm = frame("warm", chain, 8, 12, false);
  const std::string base = frame("base", chain, 8, 12, true);
  const std::string rescaled = frame("rescaled", scaled, 32, 24, true);

  obs::install_trace();
  {
    PlanService service;
    NetServerOptions options = Harness::with_loopback({});
    options.dispatch_workers = 1;  // one dispatch worker, so one frame memo
    NetServer server(service, options);
    Client client(server.port());
    ASSERT_TRUE(client.ok());
    std::vector<std::uint64_t> ids;
    const auto round_trip = [&](const std::string& request) {
      std::string line;
      EXPECT_TRUE(client.send(request));
      EXPECT_TRUE(client.recv(line));
      ids.push_back(echoed_trace_id(line));
      return line;
    };
    /// serve_prepare spans (one per cache key computed) among the frames
    /// answered from `first` on.
    const auto prepares_since = [&](const std::vector<obs::TraceEvent>& events,
                                    std::size_t first) {
      int count = 0;
      for (const obs::TraceEvent& event : events) {
        if (event.name == nullptr ||
            std::string(event.name) != "serve_prepare") {
          continue;
        }
        for (std::size_t i = first; i < ids.size(); ++i) {
          if (event.trace_id == ids[i]) ++count;
        }
      }
      return count;
    };

    ASSERT_EQ(field(round_trip(warm), "cache"), "miss");
    obs::drain_trace();

    // A frame that hits on first sight is memoized: four sends, one key.
    const std::size_t base_first = ids.size();
    std::vector<std::string> base_lines;
    for (int i = 0; i < 4; ++i) base_lines.push_back(round_trip(base));
    EXPECT_EQ(prepares_since(obs::drain_trace(), base_first), 1);
    for (const std::string& line : base_lines) {
      EXPECT_EQ(field(line, "cache"), "hit") << line;
      ASSERT_NE(line.find("\"explain\":"), std::string::npos) << line;
      ASSERT_NE(line.find("\"phases\":"), std::string::npos) << line;
      // The memoized repeats answer with every field the first (parsed)
      // hit did.
      EXPECT_EQ(repeatable_part(line), repeatable_part(base_lines[0]));
    }

    // The rescaled frame shares the entry: every send, memoized or not,
    // is a scaled hit, in its own units.
    const long long scaled_before = service.stats().scaled_hits;
    const std::size_t rescaled_first = ids.size();
    std::vector<std::string> rescaled_lines;
    for (int i = 0; i < 3; ++i) rescaled_lines.push_back(round_trip(rescaled));
    EXPECT_EQ(prepares_since(obs::drain_trace(), rescaled_first), 1);
    EXPECT_EQ(service.stats().scaled_hits - scaled_before, 3);
    for (const std::string& line : rescaled_lines) {
      EXPECT_EQ(field(line, "cache"), "hit") << line;
      EXPECT_EQ(repeatable_part(line), repeatable_part(rescaled_lines[0]));
    }
    const json::ParseResult base_json = json::parse(base_lines[0]);
    const json::ParseResult rescaled_json = json::parse(rescaled_lines[0]);
    ASSERT_TRUE(base_json.ok() && rescaled_json.ok());
    EXPECT_EQ(rescaled_json.value.find("plan")->number_or("period", 0.0),
              2.0 * base_json.value.find("plan")->number_or("period", 0.0));
    EXPECT_EQ(
        rescaled_json.value.find("explain")->number_or("memory_peak_bytes",
                                                       0.0),
        4.0 * base_json.value.find("explain")->number_or("memory_peak_bytes",
                                                         0.0));

    // Only hits are memoized: the frame that missed is keyed again on its
    // first hit, then memoized.
    const std::size_t warm_first = ids.size();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(field(round_trip(warm), "cache"), "hit");
    }
    EXPECT_EQ(prepares_since(obs::drain_trace(), warm_first), 1);
  }
  obs::uninstall_trace();
}

TEST(ServeNet, PlansAreBitIdenticalWithTelemetryArmedVsDisarmed) {
  const std::string frame = fast_frame("armed");

  // Disarmed baseline.
  std::string baseline;
  {
    Harness h;
    Client client(h.server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(frame));
    ASSERT_TRUE(client.recv(baseline));
  }

  // Rings and tail sampler both armed: same plan, bit for bit.
  obs::install_trace();
  obs::arm_tail_sampling({});
  std::string armed;
  {
    Harness h;
    Client client(h.server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(frame));
    ASSERT_TRUE(client.recv(armed));
  }
  obs::disarm_tail_sampling();
  obs::uninstall_trace();

  ASSERT_EQ(field(baseline, "status"), "ok");
  ASSERT_EQ(field(armed, "status"), "ok");
  ASSERT_FALSE(plan_tail(baseline).empty());
  EXPECT_EQ(plan_tail(armed), plan_tail(baseline));
}

TEST(ServeNet, SlowestRequestOfAMixedRunAppearsInSlowWithPhases) {
  obs::arm_tail_sampling({});
  {
    Harness h;
    AdminServerOptions admin_options;
    admin_options.host = "127.0.0.1";
    admin_options.port = 0;
    admin_options.draining = [&h] { return h.server.draining(); };
    AdminServer admin(admin_options);

    Client client(h.server.port());
    ASSERT_TRUE(client.ok());

    // Mixed traffic: fast misses, fast hits, and one genuinely slow miss.
    std::string line;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.send(fast_frame("fast" + std::to_string(i),
                                         4.0 + i)));
      ASSERT_TRUE(client.recv(line));
      ASSERT_EQ(field(line, "status"), "ok");
    }
    ASSERT_TRUE(client.send(fast_frame("fast0-again", 4.0)));
    ASSERT_TRUE(client.recv(line));
    ASSERT_EQ(field(line, "cache"), "hit");

    std::string slow_line;
    ASSERT_TRUE(client.send(slow_frame("the-slow-one", 40)));
    ASSERT_TRUE(client.recv(slow_line));
    ASSERT_EQ(field(slow_line, "status"), "ok");
    ASSERT_EQ(field(slow_line, "cache"), "miss");
    const std::uint64_t slow_id = echoed_trace_id(slow_line);
    ASSERT_NE(slow_id, 0u);

    // The server is live mid-run: /healthz says ok, /metrics has the serve
    // gauges, and /slow ranks the slow request first with its trace id and
    // per-phase breakdown.
    EXPECT_EQ(admin_get(admin.port(), "/healthz"), "ok\n");
    const std::string metrics = admin_get(admin.port(), "/metrics");
    EXPECT_NE(metrics.find("madpipe_serve_queue_depth"), std::string::npos);
    EXPECT_NE(metrics.find("madpipe_serve_hit_rate"), std::string::npos);
    // A scrape is one short HTTP exchange on the admin thread; it never
    // waits on the data plane.
    std::vector<double> scrapes;
    for (int i = 0; i < 50; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const std::string body = admin_get(admin.port(), "/metrics");
      scrapes.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
      ASSERT_NE(body.find("madpipe_net_connections"), std::string::npos);
    }
    EXPECT_LE(stats::percentile(scrapes, 0.50), 0.1);

    const json::ParseResult parsed =
        json::parse(admin_get(admin.port(), "/slow"));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.value.string_or("schema", ""), "madpipe-admin-v1");
    const json::Value* slow = parsed.value.find("slow");
    ASSERT_NE(slow, nullptr);
    ASSERT_FALSE(slow->items().empty());
    const json::Value& top = slow->items()[0];
    EXPECT_EQ(top.string_or("trace_id", ""), obs::format_trace_id(slow_id));
    EXPECT_EQ(top.string_or("id", ""), "the-slow-one");
    EXPECT_EQ(top.string_or("cache", ""), "miss");
    const json::Value* phases = top.find("phases");
    ASSERT_NE(phases, nullptr);
    EXPECT_GT(phases->number_or("plan_seconds", -1.0), 0.0);
    EXPECT_GE(phases->number_or("admission_seconds", -1.0), 0.0);
    EXPECT_GE(phases->number_or("queue_seconds", -1.0), 0.0);
    // The retained span tree includes the planner phase itself.
    const json::Value* spans = top.find("spans");
    ASSERT_NE(spans, nullptr);
    bool has_plan_span = false;
    for (const json::Value& span : spans->items()) {
      if (span.string_or("name", "") == "serve_plan") has_plan_span = true;
    }
    EXPECT_TRUE(has_plan_span);

    // On the wire, a timed miss splits plan_ms between the planner's two
    // phases; its repeat, a hit, spends no time in either.
    json::Writer timed;
    timed.begin_object();
    timed.key("id"); timed.value("timed");
    timed.key("network");
    timed.begin_object();
    timed.key("name"); timed.value("resnet50");
    timed.key("length"); timed.value(12);
    timed.end_object();
    timed.key("gpus"); timed.value(4);
    timed.key("memory_gb"); timed.value(8);
    timed.key("options");
    timed.begin_object();
    timed.key("timings"); timed.value(true);
    timed.end_object();
    timed.end_object();
    const std::string timed_frame = timed.str() + "\n";
    std::vector<json::Value> timed_phases;
    for (const char* cache : {"miss", "hit"}) {
      ASSERT_TRUE(client.send(timed_frame));
      ASSERT_TRUE(client.recv(line));
      ASSERT_EQ(field(line, "cache"), cache) << line;
      const json::ParseResult response = json::parse(line);
      ASSERT_TRUE(response.ok()) << response.error;
      const json::Value* block = response.value.find("phases");
      ASSERT_NE(block, nullptr) << line;
      timed_phases.push_back(*block);
    }
    const json::Value& miss_phases = timed_phases[0];
    const double plan_ms = miss_phases.number_or("plan_ms", -1.0);
    const double phase1_ms = miss_phases.number_or("phase1_ms", -1.0);
    const double phase2_ms = miss_phases.number_or("phase2_ms", -1.0);
    EXPECT_GT(phase1_ms, 0.0);
    EXPECT_GE(phase2_ms, 0.0);
    EXPECT_LE(phase1_ms + phase2_ms, plan_ms);
    EXPECT_EQ(timed_phases[1].number_or("phase1_ms", -1.0), 0.0);
    EXPECT_EQ(timed_phases[1].number_or("phase2_ms", -1.0), 0.0);

    // Draining flips /healthz before the front-end finishes flushing.
    h.server.stop();
    const std::string draining = admin_get(admin.port(), "/healthz");
    EXPECT_EQ(draining, "draining\n");
  }
  obs::disarm_tail_sampling();
}

}  // namespace
}  // namespace madpipe::serve::net
