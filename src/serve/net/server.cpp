#include "serve/net/server.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net/event_loop.hpp"
#include "serve/protocol.hpp"
#include "util/expect.hpp"
#include "util/json.hpp"

namespace madpipe::serve::net {

namespace {

using Clock = std::chrono::steady_clock;

/// One server's live counters, generated from the NetServerStats table,
/// plus the registry-only network gauges. Each add() also lands in the
/// process-wide registry.
struct NetCounters {
#define MADPIPE_NET_LIVE(field, metric, help) \
  obs::OwnedCounter field{metric, help};
  MADPIPE_NET_STATS(MADPIPE_NET_LIVE)
#undef MADPIPE_NET_LIVE
  obs::Gauge& connections = obs::Registry::global().gauge(
      "madpipe_net_connections", "Open TCP connections");
  obs::Gauge& queue_depth = obs::Registry::global().gauge(
      "madpipe_net_queue_depth",
      "PlanService queue depth as last sampled by the server");
};

struct Connection;

/// An in-order response slot: slots fill out of order (hits beat misses),
/// the connection flushes the ready prefix. A frame's slot is the handle
/// its response is delivered to. The address holds until that response is
/// slotted: std::deque keeps it through pushes and pops at the ends, a slot
/// is popped only once ready, a slot opens only on a live connection, and a
/// dead connection retires only with no slot in flight.
struct Slot {
  Connection* conn = nullptr;
  bool ready = false;
  std::string line;
};

struct Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string in;
  std::string out;
  std::deque<Slot> slots;
  std::size_t inflight = 0;  ///< slots not yet ready
  double tokens = 0.0;
  Clock::time_point last_refill{};
  bool want_write = false;  ///< current epoll write interest
  bool reading = true;      ///< current epoll read interest
  bool read_closed = false;      ///< EOF/half-close seen
  bool close_after_flush = false;
  /// Queued for erasure, with no slot in flight; ignore its events.
  bool retired = false;

  bool alive() const noexcept { return fd >= 0; }
};

struct Work {
  Slot* slot = nullptr;
  std::uint64_t trace_id = 0;    ///< assigned at frame admission (ingress)
  std::int64_t ingress_ns = 0;   ///< obs::now_ns() at frame admission
  std::string frame;
};

struct Completion {
  Slot* slot = nullptr;
  std::string line;
};

std::string rejected_line(const char* reason, std::uint64_t trace_id) {
  PlanResponse response;
  response.trace_id = trace_id;
  response.status = ResponseStatus::Rejected;
  response.error = reason;
  return response_to_json(response);
}

}  // namespace

struct NetServer::Impl {
  PlanService& service;
  NetServerOptions options;
  madpipe::net::TcpListener listener;
  EventLoop loop;

  std::thread loop_thread;
  std::vector<std::thread> dispatchers;
  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};

  // Dispatch queue: loop thread → workers.
  std::mutex work_mutex;
  std::condition_variable work_available;
  std::deque<Work> work_queue;
  bool work_stop = false;

  // Completion queue: workers / planner threads → loop thread.
  std::mutex completion_mutex;
  std::vector<Completion> completions;

  // Connection state: loop thread only.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> by_id;
  std::unordered_map<int, std::uint64_t> by_fd;
  std::uint64_t next_conn_id = 1;
  /// Connections are never destroyed mid-callstack (a shed response can
  /// finish a connection while its read loop still holds a reference);
  /// retire() marks them and the loop erases between event batches.
  std::vector<std::uint64_t> graveyard;

  NetCounters counters;

  Impl(PlanService& svc, const NetServerOptions& opts)
      : service(svc),
        options(opts),
        listener(opts.host, opts.port) {
    if (options.shed_queue_depth == 0) {
      options.shed_queue_depth = service.queue_capacity();
    }
    std::size_t workers = options.dispatch_workers;
    if (workers == 0) {
      workers = std::max(1u, std::thread::hardware_concurrency());
    }
    loop.add(listener.fd());
    dispatchers.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      dispatchers.emplace_back([this] { dispatch_loop(); });
    }
    loop_thread = std::thread([this] { run_loop(); });
  }

  // ---- dispatch workers ---------------------------------------------------

  void push_completion(Slot* slot, std::string line) {
    // Wake under the lock: once the loop thread can take this completion,
    // it may flush the last in-flight response and exit, and the destructor
    // then closes the loop's eventfd. Holding completion_mutex across the
    // write keeps it before the loop's next drain_completions().
    const std::lock_guard<std::mutex> lock(completion_mutex);
    completions.push_back(Completion{slot, std::move(line)});
    loop.wake();
  }

  void dispatch_loop() {
    // Frame-text → prepared request memo. Hit traffic repeats frames
    // verbatim; a repeat skips the JSON parse and the cache key and shares
    // the one prepared request, const, with every submission of the frame.
    // Only frames that hit are memoized: a miss is most often a novel
    // request that never comes back, and a frame that does come back is
    // memoized on its first hit. Frames naming a profile_file are never
    // memoized (the parse reads the filesystem, it is not pure).
    std::unordered_map<std::string, std::shared_ptr<const PreparedRequest>>
        memo;
    constexpr std::size_t kMemoCap = 4096;
    while (true) {
      Work work;
      {
        std::unique_lock<std::mutex> lock(work_mutex);
        work_available.wait(lock,
                            [this] { return work_stop || !work_queue.empty(); });
        if (work_queue.empty()) return;  // drain before stopping
        work = std::move(work_queue.front());
        work_queue.pop_front();
      }
      // The frame's trace context crosses from the loop thread with the
      // Work item; net_dispatch and the submit-side spans below all carry
      // the id.
      obs::TraceContextScope trace_scope(work.trace_id);
      obs::Span span("net_dispatch", obs::kCatServe);

      std::shared_ptr<const PreparedRequest> prepared;
      const auto memo_it = memo.find(work.frame);
      const bool memoized = memo_it != memo.end();
      if (memoized) {
        prepared = memo_it->second;
        span.arg("memo", 1);
      } else {
        BatchParse batch = parse_requests(work.frame);
        std::string error;
        std::string id;
        if (!batch.ok()) {
          error = batch.error;
        } else if (batch.requests.size() != 1) {
          error = "expected one request per frame, got " +
                  std::to_string(batch.requests.size());
        } else if (!batch.requests[0].ok()) {
          error = batch.requests[0].error;
          id = batch.requests[0].id;
        }
        if (!error.empty()) {
          counters.protocol_errors.add();
          PlanResponse failure = error_response(id, error);
          failure.trace_id = work.trace_id;
          push_completion(work.slot, response_to_json(failure));
          continue;
        }
        prepared = std::make_shared<const PreparedRequest>(
            prepare(std::move(*batch.requests[0].request)));
      }

      // The trace id and ingress time are per frame, so they travel beside
      // the shared prepared request. The callback fires on this thread for
      // hits/rejections and on a planner worker for misses; push_completion
      // is safe from both.
      Slot* const slot = work.slot;
      const auto deliver = [this, slot](PlanResponse&& response) {
        push_completion(slot, response_to_json(response));
      };
      // libstdc++'s std::function keeps a trivially copyable callable of up
      // to two pointers in place: no frame allocates its callback.
      static_assert(sizeof(deliver) <= 2 * sizeof(void*) &&
                    std::is_trivially_copyable_v<decltype(deliver)>);
      const CacheOutcome outcome = service.submit_prepared(
          prepared, work.trace_id, work.ingress_ns, deliver);
      if (!memoized && outcome == CacheOutcome::Hit &&
          work.frame.find("profile_file") == std::string::npos) {
        if (memo.size() >= kMemoCap) memo.clear();
        memo.emplace(std::move(work.frame), std::move(prepared));
      }
    }
  }

  // ---- event loop ---------------------------------------------------------

  /// Loop-thread view of shutdown (set once stopping is observed).
  bool draining = false;

  void run_loop() {
    std::vector<Event> events;
    while (true) {
      if (!draining && stopping.load(std::memory_order_acquire)) {
        // Shutdown begins: stop accepting, stop handing work to the
        // dispatchers (frames arriving from here on are shed inline, so no
        // work item can be enqueued after the workers drain out).
        draining = true;
        loop.remove(listener.fd());
        {
          const std::lock_guard<std::mutex> lock(work_mutex);
          work_stop = true;
        }
        work_available.notify_all();
      }
      if (draining && idle()) break;
      loop.wait(events, draining ? 20 : -1);
      for (const Event& event : events) {
        if (event.fd == listener.fd()) {
          if (!draining) accept_burst();
          continue;
        }
        const auto it = by_fd.find(event.fd);
        if (it == by_fd.end()) continue;
        Connection& conn = *by_id.at(it->second);
        if (conn.retired) continue;
        if (event.writable) on_writable(conn);
        if (!conn.alive() || conn.retired) continue;
        if (event.readable || event.hangup) on_readable(conn);
      }
      drain_completions();
      collect();
    }
    // Drained: every in-flight request completed and flushed.
    for (auto& [id, conn] : by_id) {
      if (conn->alive()) close_fd(*conn);
    }
    by_id.clear();
    by_fd.clear();
  }

  /// True when shutdown can finish: no connection holds unfinished work or
  /// unflushed bytes, and no completion is waiting to be slotted.
  bool idle() {
    drain_completions();
    collect();
    for (const auto& [id, conn] : by_id) {
      if (conn->inflight > 0 || !conn->out.empty() || !conn->slots.empty()) {
        return false;
      }
    }
    return true;
  }

  void collect() {
    for (const std::uint64_t id : graveyard) by_id.erase(id);
    graveyard.clear();
  }

  void accept_burst() {
    obs::Span span("net_accept", obs::kCatServe);
    int count = 0;
    while (true) {
      const int fd = listener.accept_nonblocking();
      if (fd < 0) break;
      if (by_fd.size() >= options.max_connections) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->tokens = options.token_burst;
      conn->last_refill = Clock::now();
      try {
        loop.add(fd);
      } catch (const std::exception&) {
        ::close(fd);
        continue;
      }
      by_fd.emplace(fd, conn->id);
      by_id.emplace(conn->id, std::move(conn));
      ++count;
      counters.accepted.add();
    }
    counters.connections.set(static_cast<double>(by_fd.size()));
    span.arg("count", count);
  }

  void on_readable(Connection& conn) {
    obs::Span span("net_read", obs::kCatServe);
    char buffer[64 * 1024];
    while (conn.alive() && !conn.read_closed) {
      const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        abort_connection(conn);
        return;
      }
      if (n == 0) {
        // Half-close: the client is done sending; finish what it asked
        // for, flush, then close our side.
        conn.read_closed = true;
        conn.close_after_flush = true;
        break;
      }
      counters.bytes_in.add(static_cast<long long>(n));
      conn.in.append(buffer, static_cast<std::size_t>(n));
      extract_frames(conn);
      if (!conn.alive()) return;
      if (conn.out.size() >= options.out_buffer_high_water) break;
    }
    if (!conn.alive()) return;
    if (conn.in.size() > options.max_frame_bytes) {
      // No newline within the frame limit: framing is broken.
      oversize_close(conn);
      return;
    }
    update_interest(conn);
    maybe_finish(conn);
  }

  void extract_frames(Connection& conn) {
    std::size_t start = 0;
    while (true) {
      const std::size_t newline = conn.in.find('\n', start);
      if (newline == std::string::npos) break;
      const std::size_t size = newline - start;
      if (size > options.max_frame_bytes) {
        conn.in.erase(0, newline + 1);
        oversize_close(conn);
        return;
      }
      if (size > 0) {
        std::string frame = conn.in.substr(start, size);
        if (!frame.empty() && frame.back() == '\r') frame.pop_back();
        if (!frame.empty()) admit_frame(conn, std::move(frame));
        // A shed response is written at once; if that write failed, the
        // socket is gone and so is any answer to the frames behind it.
        if (!conn.alive()) {
          conn.in.clear();
          return;
        }
      }
      start = newline + 1;
    }
    conn.in.erase(0, start);
  }

  void admit_frame(Connection& conn, std::string frame) {
    counters.frames.add();
    // Ingress: every frame — even one shed right here — gets a trace id,
    // echoed in its response. The id and the admission timestamp travel
    // with the Work item (NOT inside the memoized PreparedRequest: the frame
    // memo is shared across repeats, the trace context is per-request).
    const std::uint64_t trace_id = obs::next_trace_id();
    const std::int64_t ingress_ns = obs::now_ns();

    // During shutdown the dispatchers are draining out; late frames are
    // answered inline so the drain provably terminates.
    if (draining) {
      complete_inline(conn, rejected_line("server shutting down", trace_id));
      return;
    }

    // Token bucket: refill by elapsed wall time, spend one per frame.
    if (options.tokens_per_second > 0.0) {
      const Clock::time_point now = Clock::now();
      const double elapsed =
          std::chrono::duration<double>(now - conn.last_refill).count();
      conn.last_refill = now;
      conn.tokens = std::min(options.token_burst,
                             conn.tokens + elapsed * options.tokens_per_second);
      if (conn.tokens < 1.0) {
        counters.shed_rate.add();
        complete_inline(conn, rejected_line("rate limit exceeded", trace_id));
        return;
      }
      conn.tokens -= 1.0;
    }

    // Backlog shed: when the service queue is already at the shed depth, a
    // planner-bound frame would only stack latency — bounce it before parse.
    const std::size_t depth = service.queue_depth();
    counters.queue_depth.set(static_cast<double>(depth));
    if (depth >= options.shed_queue_depth) {
      counters.shed_depth.add();
      complete_inline(conn, rejected_line("service backlog full", trace_id));
      return;
    }

    Slot& slot = open_slot(conn);
    {
      const std::lock_guard<std::mutex> lock(work_mutex);
      work_queue.push_back(
          Work{&slot, trace_id, ingress_ns, std::move(frame)});
    }
    work_available.notify_one();
  }

  /// The next response slot of `conn`, in flight until filled. Only a live
  /// connection opens slots: a dead one retires once its in-flight count
  /// drops to zero, and a slot opened after that would outlive it.
  Slot& open_slot(Connection& conn) {
    MP_ENSURE(conn.alive(), "response slot opened on a closed connection");
    Slot& slot = conn.slots.emplace_back();
    slot.conn = &conn;
    ++conn.inflight;
    return slot;
  }

  /// A response produced on the loop thread itself (shed paths): takes a
  /// slot and fills it immediately, keeping per-connection ordering.
  void complete_inline(Connection& conn, std::string line) {
    fill_slot(open_slot(conn), std::move(line));
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      const std::lock_guard<std::mutex> lock(completion_mutex);
      batch.swap(completions);
    }
    for (Completion& completion : batch) {
      fill_slot(*completion.slot, std::move(completion.line));
    }
  }

  void fill_slot(Slot& slot, std::string line) {
    Connection& conn = *slot.conn;
    if (!slot.ready) {
      slot.ready = true;
      --conn.inflight;
    }
    slot.line = std::move(line);
    counters.responses.add();
    flush_ready(conn);
  }

  void flush_ready(Connection& conn) {
    while (!conn.slots.empty() && conn.slots.front().ready) {
      if (conn.alive()) {
        conn.out += conn.slots.front().line;
        conn.out += '\n';
      }
      conn.slots.pop_front();
    }
    if (!conn.alive()) {
      // The socket died with work in flight; retire once everything that
      // was admitted has completed (dropping the unsendable responses).
      if (conn.inflight == 0) retire(conn);
      return;
    }
    try_write(conn);
  }

  void on_writable(Connection& conn) { try_write(conn); }

  void try_write(Connection& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = ::write(conn.fd, conn.out.data(), conn.out.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        abort_connection(conn);
        return;
      }
      counters.bytes_out.add(static_cast<long long>(n));
      conn.out.erase(0, static_cast<std::size_t>(n));
    }
    update_interest(conn);
    maybe_finish(conn);
  }

  /// Keep the epoll interest set in sync with buffer state: write interest
  /// while the out-buffer is non-empty, read interest while the client may
  /// send more and the out-buffer is under the high-water mark.
  void update_interest(Connection& conn) {
    if (!conn.alive()) return;
    const bool want_write = !conn.out.empty();
    const bool want_read =
        !conn.read_closed && conn.out.size() < options.out_buffer_high_water;
    if (want_write == conn.want_write && want_read == conn.reading) return;
    try {
      loop.modify(conn.fd, want_read, want_write);
      conn.want_write = want_write;
      conn.reading = want_read;
    } catch (const std::exception&) {
      abort_connection(conn);
    }
  }

  /// Close once a finishing connection has nothing left to say.
  void maybe_finish(Connection& conn) {
    if (!conn.alive() || !conn.close_after_flush) return;
    if (conn.out.empty() && conn.slots.empty() && conn.inflight == 0) {
      close_fd(conn);
      retire(conn);
    }
  }

  void oversize_close(Connection& conn) {
    counters.oversized.add();
    complete_inline(
        conn, response_to_json(error_response(
                  "", "frame exceeds " +
                          std::to_string(options.max_frame_bytes) +
                          " bytes")));
    conn.read_closed = true;
    conn.close_after_flush = true;
    conn.in.clear();
    update_interest(conn);
    maybe_finish(conn);
  }

  /// Hard close (I/O error, peer reset): drop the socket now; the entry
  /// stays until in-flight work drains so completions find their slots.
  void abort_connection(Connection& conn) {
    if (!conn.alive()) return;
    close_fd(conn);
    if (conn.inflight == 0) retire(conn);
  }

  void close_fd(Connection& conn) {
    loop.remove(conn.fd);
    by_fd.erase(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
    counters.closed.add();
    counters.connections.set(static_cast<double>(by_fd.size()));
  }

  void retire(Connection& conn) {
    if (conn.retired) return;
    conn.retired = true;
    graveyard.push_back(conn.id);
  }

  // ---- shutdown -----------------------------------------------------------

  void stop() {
    if (stopped.exchange(true)) return;
    stopping.store(true, std::memory_order_release);
    loop.wake();
    // The loop observes `stopping`, stops accepting/admitting, signals the
    // dispatchers to drain, then spins until every in-flight request has
    // completed and flushed. Join it first; the workers are done by then.
    loop_thread.join();
    for (std::thread& worker : dispatchers) worker.join();
  }
};

NetServer::NetServer(PlanService& service, const NetServerOptions& options)
    : impl_(std::make_unique<Impl>(service, options)) {}

NetServer::~NetServer() {
  if (impl_) impl_->stop();
}

std::uint16_t NetServer::port() const noexcept {
  return impl_->listener.local_port();
}

void NetServer::stop() { impl_->stop(); }

bool NetServer::draining() const noexcept {
  return impl_->stopping.load(std::memory_order_acquire);
}

NetServerStats NetServer::stats() const {
  NetServerStats stats;
#define MADPIPE_NET_SNAPSHOT(field, metric, help) \
  stats.field = impl_->counters.field.value();
  MADPIPE_NET_STATS(MADPIPE_NET_SNAPSHOT)
#undef MADPIPE_NET_SNAPSHOT
  return stats;
}

}  // namespace madpipe::serve::net
