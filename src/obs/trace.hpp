// Low-overhead trace spans for the planning pipeline.
//
// An obs::Span is an RAII stopwatch: construction timestamps the start,
// destruction records one fixed-size *complete* event (name, category,
// start, duration, thread, up to two integer args) into a lock-free
// thread-local ring buffer. When no sink is installed the constructor is a
// single relaxed atomic load and a branch (~1 ns) and nothing is recorded —
// instrumentation can stay on permanently in the hot paths (LP solves, DP
// probes, B&B scheduler probes, serve request phases).
//
// Concurrency model (single-writer rings, seqlock slots):
//   * each thread writes only its own ring — writers never contend;
//   * every slot field is a relaxed std::atomic and each write is bracketed
//     by an odd/even sequence number (seqlock), so the collector can drain
//     concurrently with writers without locks, torn reads or TSan reports;
//   * the ring wraps by overwriting the *oldest* slot — the newest events
//     are never lost (a drain after wrap returns the last `capacity`
//     events per thread).
//
// Lifecycle: install_trace() arms recording, uninstall_trace() disarms it
// (buffered events stay drainable), drain_trace() snapshots every thread's
// events, trace_to_chrome_json() formats them as a Chrome trace-event
// document (load in chrome://tracing or https://ui.perfetto.dev). All four
// are thread-safe; spans may be open across install/uninstall (a span only
// records if tracing is armed at *destruction* time).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace madpipe::json {
class Writer;
}

namespace madpipe::obs {

/// Span categories used by the built-in instrumentation. The acceptance
/// tests key on these three: every cold `madpipe serve` request produces
/// spans from all of them.
inline constexpr const char* kCatServe = "serve";
inline constexpr const char* kCatPlanner = "planner";
/// The phase-2 scheduling solver: the cyclic branch-and-bound scheduler (the
/// paper's ILP stand-in).
inline constexpr const char* kCatSolver = "solver";
/// Discrete-event execution of a pattern (sim/event_sim.cpp).
inline constexpr const char* kCatSim = "sim";
/// Exact pattern verification (core/pattern.cpp validate_pattern).
inline constexpr const char* kCatVerify = "verify";

namespace detail {
/// Armed flag, read on the Span fast path. Do not touch directly.
extern std::atomic<bool> g_trace_armed;
/// Tail-sampler armed flag (see tail_sampler.hpp). Do not touch directly.
extern std::atomic<bool> g_tail_armed;
}  // namespace detail

/// True when a sink is installed and spans are being recorded.
inline bool trace_enabled() noexcept {
  return detail::g_trace_armed.load(std::memory_order_relaxed);
}

/// True when the process tail sampler is armed (tail_sampler.hpp). Spans
/// fire when either sink is live; each sink filters on its own flag.
inline bool tail_enabled() noexcept {
  return detail::g_tail_armed.load(std::memory_order_relaxed);
}

/// Nanoseconds since the process trace epoch (steady clock; valid whether
/// or not tracing is armed). Use for emit_complete() phases measured by
/// hand, e.g. queue-wait time between threads.
std::int64_t now_ns() noexcept;

/// One drained trace event. `name`/`category`/arg keys are interned string
/// literals (Span never copies or owns strings — callers must pass literals
/// or strings that outlive the drain).
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< process-unique sequential thread id (from 1)
  std::uint64_t trace_id = 0;  ///< request trace id (0 = none)
  const char* arg1_key = nullptr;  ///< nullptr = absent
  long long arg1_value = 0;
  const char* arg2_key = nullptr;
  long long arg2_value = 0;
};

namespace detail {
/// Hands a finished span to the process tail sampler (tail_sampler.cpp).
/// Called only when tail_enabled() and the event carries a trace id.
void tail_record(const TraceEvent& event) noexcept;
}  // namespace detail

// --- Request trace context ----------------------------------------------
// Every serve request is assigned a 64-bit trace id at ingress (TCP frame
// or batch line). The id travels *with the request* across threads; each
// thread that works on the request wraps the work in a TraceContextScope,
// and every span finished inside that scope is stamped with the id — so a
// request's full span tree can be reassembled from the rings (or retained
// by the tail sampler) even though admission, dispatch, queue wait and the
// planner run on different threads.

/// Allocate a process-unique, non-zero trace id. Ids are splitmix64-mixed
/// so they read as opaque tokens; the top bit is clear so an id always
/// fits a positive int64 (span args, JSON numbers).
std::uint64_t next_trace_id() noexcept;

/// The calling thread's current trace id (0 = no request context).
std::uint64_t current_trace_id() noexcept;

/// Format a trace id the way responses echo it: 16 lowercase hex digits.
std::string format_trace_id(std::uint64_t trace_id);

/// RAII request-context guard: spans finished while the scope is alive are
/// stamped with `trace_id`. Nests (the previous id is restored on exit);
/// a zero id clears the context for the scope.
class TraceContextScope {
 public:
  explicit TraceContextScope(std::uint64_t trace_id) noexcept;
  ~TraceContextScope() noexcept;
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Cumulative count of ring events lost to wrap-around overwrite, process
/// wide. Also published as the `madpipe_spans_dropped_total` counter, so
/// silent trace truncation shows up in /metrics and `madpipe stats`.
long long spans_dropped_total() noexcept;

/// Install the trace sink: arms recording and replaces any previously
/// buffered events. `events_per_thread` is rounded up to a power of two;
/// each thread that records a span gets its own ring of that capacity.
void install_trace(std::size_t events_per_thread = 4096);

/// Disarm recording. Buffered events remain drainable until the next
/// install_trace().
void uninstall_trace();

/// Snapshot every thread's buffered events, oldest first (sorted by start
/// time). Safe to call while spans are still being recorded; events written
/// mid-drain may or may not be included.
std::vector<TraceEvent> drain_trace();

/// Record one pre-measured complete event (start/duration supplied by the
/// caller, timestamps from now_ns()). No-op when tracing is disarmed. Used
/// for phases that cross threads, e.g. a request's queue wait.
void emit_complete(const char* name, const char* category,
                   std::int64_t start_ns, std::int64_t dur_ns,
                   const char* arg1_key = nullptr, long long arg1_value = 0);

/// Append `events` as a Chrome trace-event JSON document (an object with
/// "traceEvents", one "X" event per TraceEvent, plus thread-name metadata).
void write_chrome_trace(json::Writer& writer,
                        const std::vector<TraceEvent>& events);

// --- Chrome trace-event building blocks ---------------------------------
// The raw emission layer under write_chrome_trace, shared with the other
// Chrome-trace producer in the tree, report/timeline_export.
// A document is: begin_chrome_trace, any number of metadata/complete events,
// end_chrome_trace.

/// Open the document: {"displayTimeUnit":"ms","traceEvents":[. Pair with
/// end_chrome_trace.
void begin_chrome_trace(json::Writer& writer);

/// Close the trace-events array and the document.
void end_chrome_trace(json::Writer& writer);

/// One "M" metadata record naming a viewer row: `what` is "process_name" or
/// "thread_name", `name` the label shown for that pid/tid.
void write_trace_metadata(json::Writer& writer, const char* what,
                          long long pid, long long tid,
                          const std::string& name);

/// Open one "X" complete event (name/cat/ph/pid/tid/ts/dur, timestamps in
/// microseconds; `cname` optionally picks a Chrome palette color). The
/// caller may append an "args" object and MUST close with end_object().
void begin_complete_event(json::Writer& writer, const std::string& name,
                          const std::string& category, long long pid,
                          long long tid, double ts_us, double dur_us,
                          const char* cname = nullptr);

/// drain_trace() + write_chrome_trace() as one string.
std::string trace_to_chrome_json();

/// RAII trace span. Construct at the top of the region of interest; the
/// event is recorded when the span is destroyed. Cheap enough for hot paths:
/// disabled cost is one atomic load, enabled cost is two clock reads and a
/// handful of relaxed atomic stores. Not copyable or movable; name/category
/// and arg keys must be string literals (or outlive the next drain).
class Span {
 public:
  explicit Span(const char* name, const char* category = kCatPlanner) noexcept
      : name_(name), category_(category),
        armed_(trace_enabled() || tail_enabled()) {
    if (armed_) start_ns_ = now_ns();
  }
  ~Span() noexcept { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach an integer argument (shown under "args" in the trace viewer).
  /// At most two are kept; extras are dropped. No-op when disarmed.
  void arg(const char* key, long long value) noexcept {
    if (!armed_) return;
    if (arg1_key_ == nullptr) {
      arg1_key_ = key;
      arg1_value_ = value;
    } else if (arg2_key_ == nullptr) {
      arg2_key_ = key;
      arg2_value_ = value;
    }
  }

 private:
  void finish() noexcept;

  const char* name_;
  const char* category_;
  std::int64_t start_ns_ = 0;
  const char* arg1_key_ = nullptr;
  long long arg1_value_ = 0;
  const char* arg2_key_ = nullptr;
  long long arg2_value_ = 0;
  bool armed_;
};

}  // namespace madpipe::obs
