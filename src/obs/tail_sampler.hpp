// Tail-based trace sampling: keep complete span trees only for the
// requests that matter — the slowest k per time window, plus every request
// that ends in an error — in bounded memory, so request-scoped tracing can
// stay armed on a production server instead of the all-or-nothing rings.
//
// Life of a sampled request:
//   1. begin(trace_id, start_ns) at ingress registers the request as
//      active (a bounded per-shard map; over-capacity requests are counted
//      and not tracked, never blocked).
//   2. Every span finished inside that request's TraceContextScope is
//      routed here by Span::finish / emit_complete (detail::tail_record)
//      and appended to the active record, capped at
//      max_spans_per_request (the cap is recorded as `truncated`). A few
//      slots are reserved for serve phase spans, which finish last —
//      a flood of inner planner spans can never evict the phase breakdown.
//   3. end(done) moves the request out of the active map and applies the
//      retention rule: errors go to a bounded error ring
//      (always-sampled); everything else competes for the current
//      window's slowest-k slots (a size-k min-heap on latency). When the
//      window rolls, the winners become the "previous window" snapshot
//      and the heap restarts — memory is bounded by
//      2·k + keep_errors requests at max_spans_per_request spans each.
//
// Thread-safety: begin/record/end hash the trace id onto one of a fixed
// set of mutex shards, so concurrent requests on different dispatch/worker
// threads rarely contend; retention and snapshot() take a separate
// retained-state mutex. snapshot() copies — readers (the admin endpoint)
// never block the hot path for longer than one retention update.
//
// The process-wide singleton (tail_sampler()) is never destroyed, like
// Registry::global(), so the Span fast path can use it lock-free behind
// the tail_enabled() flag with no lifetime hazard.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace madpipe::json {
class Writer;
}

namespace madpipe::obs {

struct TailSamplerOptions {
  std::size_t keep_slowest = 8;         ///< k: retained per window
  double window_seconds = 10.0;         ///< window length (wall clock)
  std::size_t max_spans_per_request = 64;
  std::size_t max_active = 4096;        ///< in-flight requests tracked
  std::size_t keep_errors = 16;         ///< always-sampled error ring
};

/// One retained request: identity, outcome, per-phase breakdown, and the
/// spans recorded under its trace id (name/category are interned string
/// literals, safe to hold for the process lifetime).
struct SampledRequest {
  std::uint64_t trace_id = 0;
  std::string request_id;   ///< protocol-level id ("" outside the protocol)
  std::string status;       ///< "ok", "rejected", "error", ...
  std::string cache;        ///< "hit", "miss", "coalesced", ...
  std::int64_t start_ns = 0;       ///< ingress, trace epoch (now_ns)
  double latency_seconds = 0.0;    ///< ingress → completion
  double admission_seconds = 0.0;  ///< ingress → enqueue (parse + cache)
  double queue_seconds = 0.0;
  double plan_seconds = 0.0;
  bool error = false;
  bool truncated = false;  ///< span cap hit; the tree is incomplete
  std::vector<TraceEvent> spans;
};

class TailSampler {
 public:
  explicit TailSampler(const TailSamplerOptions& options = {});

  /// Re-arm with new options, dropping all active and retained state.
  void configure(const TailSamplerOptions& options);

  /// Register a request at ingress. No-op (counted) past max_active.
  void begin(std::uint64_t trace_id, std::int64_t start_ns);

  /// Append one finished span to the request's record (called by the
  /// Span fast path via detail::tail_record). Unknown ids are ignored.
  void record(std::uint64_t trace_id, const TraceEvent& event);

  /// Complete a request: the caller fills everything except `spans`,
  /// `start_ns` and `truncated` (taken from the active record). Applies
  /// the retention rule described above.
  void end(SampledRequest&& done);

  struct Snapshot {
    std::vector<SampledRequest> slow;    ///< slowest first, both windows
    std::vector<SampledRequest> errors;  ///< newest last
    long long started = 0;
    long long finished = 0;
    long long retained = 0;          ///< kept at end() time (slow or error)
    long long overflow_dropped = 0;  ///< begins refused past max_active
  };
  Snapshot snapshot() const;

  /// The /slow payload: {"schema":"madpipe-admin-v1","slow":[...],
  /// "errors":[...],"counters":{...}} built from snapshot().
  std::string slow_json() const;

  const TailSamplerOptions& options() const { return options_; }

 private:
  struct Active {
    std::int64_t start_ns = 0;
    bool truncated = false;
    std::vector<TraceEvent> spans;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, Active> active;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard(std::uint64_t trace_id) noexcept {
    // The low bits are well-mixed (splitmix64 ids).
    return shards_[trace_id & (kShards - 1)];
  }
  void retain(SampledRequest&& done);

  TailSamplerOptions options_;
  Shard shards_[kShards];

  mutable std::mutex retained_mutex_;
  std::vector<SampledRequest> window_;    ///< min-heap on latency, size <= k
  std::vector<SampledRequest> previous_;  ///< last rolled window's winners
  std::deque<SampledRequest> errors_;
  std::int64_t window_start_ns_ = 0;
  long long started_ = 0;
  long long finished_ = 0;
  long long retained_ = 0;
  long long overflow_dropped_ = 0;
};

/// Process-wide sampler (never destroyed). Configure + arm it with
/// arm_tail_sampling(); the Span fast path reaches it through
/// detail::tail_record only while tail_enabled().
TailSampler& tail_sampler();

/// Arm the process tail sampler (clears prior state). Spans finished
/// inside a TraceContextScope are sampled from this point on.
void arm_tail_sampling(const TailSamplerOptions& options = {});

/// Disarm sampling. Retained requests stay readable via snapshot().
void disarm_tail_sampling();

/// Serialize one snapshot as the madpipe-admin-v1 /slow document.
void write_slow_json(json::Writer& writer, const TailSampler::Snapshot& s);

}  // namespace madpipe::obs
