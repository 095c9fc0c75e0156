// NetServer: the TCP front-end of PlanService.
//
// Wire protocol: newline-delimited `madpipe-serve-v1` JSON — one request
// object per line, one response object per line, responses in request order
// per connection (so a pipelining client can match by position as well as by
// id). A malformed frame earns an error response and the connection stays
// open; an oversized frame closes it (the framing itself is broken).
//
// Threading:
//   * one event-loop thread owns every socket and all connection state
//     (epoll, non-blocking accept/read/write, buffered framing);
//   * a pool of dispatch workers does the per-frame work the loop must not
//     block on — JSON parse and cache key (both skipped on a verbatim
//     repeat), PlanService::submit_prepared, response serialization. Cache
//     hits complete synchronously on the dispatch thread; misses complete
//     later on a planner worker. Either way the finished line lands in a
//     completion queue and an eventfd wake hands it back to the loop
//     thread, which slots it into the connection's in-order response
//     window and flushes.
//
// Admission control (applied on the loop thread, before parse cost):
//   * per-connection token bucket (tokens_per_second/token_burst) — a
//     client exceeding its rate gets `rejected` responses immediately;
//   * service backlog (queue_depth ≥ shed_queue_depth) — overload sheds
//     with `rejected` instead of stacking latency (429-style semantics).
// Deadlines ride inside the request (`deadline_ms`) and propagate through
// PlanService's state-budget valve unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "util/net.hpp"

namespace madpipe::serve::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; NetServer::port() tells
  std::size_t max_connections = 1024;
  /// Frames above this close the connection (framing is unrecoverable).
  std::size_t max_frame_bytes = 1u << 20;
  /// Stop reading from a connection whose out-buffer exceeds this; resume
  /// when the client drains it (write backpressure instead of unbounded
  /// buffering for slow readers).
  std::size_t out_buffer_high_water = 4u << 20;
  /// Per-connection token bucket; 0 = unlimited.
  double tokens_per_second = 0.0;
  double token_burst = 64.0;
  /// Shed (reject) new frames while PlanService's queue depth is at or past
  /// this; 0 = use the service's own queue capacity.
  std::size_t shed_queue_depth = 0;
  /// Frame-parse/dispatch threads; 0 = hardware concurrency.
  std::size_t dispatch_workers = 0;
};

// The counter table: X(field, registry name, help), one row per counter.
// Every row is a summed counter (obs::Sum): one per server, readable at any
// time without a lock, plus its process-wide registry total.
#define MADPIPE_NET_STATS(X)                                                  \
  X(accepted, "madpipe_net_accepted_total", "TCP connections accepted")       \
  X(closed, "madpipe_net_closed_total", "TCP connections closed")             \
  X(frames, "madpipe_net_frames_total", "Complete request lines seen")        \
  X(responses, "madpipe_net_responses_total",                                 \
    "Response lines queued for writing")                                      \
  X(shed_rate, "madpipe_net_shed_rate_total",                                 \
    "Frames rejected by a per-connection token bucket")                       \
  X(shed_depth, "madpipe_net_shed_depth_total",                               \
    "Frames rejected by service backlog depth")                               \
  X(protocol_errors, "madpipe_net_protocol_errors_total",                     \
    "Malformed frames answered with an error response")                       \
  X(oversized, "madpipe_net_oversized_total",                                 \
    "Frames past max_frame_bytes (the connection is closed)")                 \
  X(bytes_in, "madpipe_net_bytes_in_total", "Bytes read from clients")        \
  X(bytes_out, "madpipe_net_bytes_out_total", "Bytes written to clients")

/// Snapshot of one server's counters.
struct NetServerStats {
#define MADPIPE_NET_FIELD(field, metric, help) long long field = 0;
  MADPIPE_NET_STATS(MADPIPE_NET_FIELD)
#undef MADPIPE_NET_FIELD
};

class NetServer {
 public:
  /// Binds, listens and starts the loop + dispatch threads. Throws
  /// std::runtime_error when the address cannot be bound.
  NetServer(PlanService& service, const NetServerOptions& options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  std::uint16_t port() const noexcept;

  /// Graceful shutdown: stop accepting, finish every in-flight request,
  /// flush every out-buffer, close, join. Idempotent; also runs from the
  /// destructor.
  void stop();

  /// True once shutdown has begun (stop() called or destructor running).
  /// The admin endpoint's /healthz turns 503 on this signal so load
  /// balancers stop routing to a draining server.
  bool draining() const noexcept;

  NetServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace madpipe::serve::net
