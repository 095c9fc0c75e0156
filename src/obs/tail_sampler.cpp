#include "obs/tail_sampler.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/json.hpp"

namespace madpipe::obs {

namespace {

/// Min-heap order on latency: the heap root (front) is the *fastest*
/// retained request, the first to be displaced by a slower arrival.
bool slower(const SampledRequest& a, const SampledRequest& b) {
  return a.latency_seconds > b.latency_seconds;
}

}  // namespace

namespace detail {

void tail_record(const TraceEvent& event) noexcept {
  tail_sampler().record(event.trace_id, event);
}

}  // namespace detail

TailSampler::TailSampler(const TailSamplerOptions& options) {
  configure(options);
}

void TailSampler::configure(const TailSamplerOptions& options) {
  // Hold every shard lock while options_ changes: begin/record/end read
  // the options under their shard lock. Lock order (shards, then the
  // retained mutex) matches begin().
  std::unique_lock<std::mutex> shard_locks[kShards];
  for (std::size_t i = 0; i < kShards; ++i) {
    shard_locks[i] = std::unique_lock<std::mutex>(shards_[i].mutex);
    shards_[i].active.clear();
  }
  const std::lock_guard<std::mutex> lock(retained_mutex_);
  options_ = options;
  if (options_.keep_slowest == 0) options_.keep_slowest = 1;
  window_.clear();
  previous_.clear();
  errors_.clear();
  window_start_ns_ = now_ns();
  started_ = finished_ = retained_ = overflow_dropped_ = 0;
}

void TailSampler::begin(std::uint64_t trace_id, std::int64_t start_ns) {
  if (trace_id == 0) return;
  Shard& s = shard(trace_id);
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.active.size() >= options_.max_active / kShards + 1) {
    const std::lock_guard<std::mutex> retained_lock(retained_mutex_);
    ++overflow_dropped_;
    return;
  }
  Active& active = s.active[trace_id];
  active.start_ns = start_ns;
  active.truncated = false;
  active.spans.clear();
  {
    const std::lock_guard<std::mutex> retained_lock(retained_mutex_);
    ++started_;
  }
}

void TailSampler::record(std::uint64_t trace_id, const TraceEvent& event) {
  if (trace_id == 0) return;
  Shard& s = shard(trace_id);
  const std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.active.find(trace_id);
  if (it == s.active.end()) return;  // not a tracked request
  // Spans arrive in *finish* order, so a planning-heavy request floods the
  // record with fine-grained planner/solver spans before the coarse phase
  // spans (serve_submit, queue_wait, serve_plan — they close last) ever
  // land. Reserve a little headroom for the serve phase layer: inner spans
  // may fill at most cap - reserve slots, phase spans the full cap.
  const bool phase_span = event.category != nullptr &&
                          std::strcmp(event.category, kCatServe) == 0;
  const std::size_t reserve =
      std::min<std::size_t>(8, options_.max_spans_per_request / 2);
  const std::size_t limit = phase_span
                                ? options_.max_spans_per_request
                                : options_.max_spans_per_request - reserve;
  if (it->second.spans.size() >= limit) {
    it->second.truncated = true;
    return;
  }
  it->second.spans.push_back(event);
}

void TailSampler::end(SampledRequest&& done) {
  if (done.trace_id == 0) return;
  Shard& s = shard(done.trace_id);
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.active.find(done.trace_id);
    if (it == s.active.end()) return;  // never began (overflow-dropped)
    done.start_ns = it->second.start_ns;
    done.truncated = it->second.truncated;
    done.spans = std::move(it->second.spans);
    s.active.erase(it);
  }
  // Spans drained from per-thread contexts arrive in finish order; present
  // them start-sorted like drain_trace() so the tree reads top-down.
  std::sort(done.spans.begin(), done.spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  retain(std::move(done));
}

void TailSampler::retain(SampledRequest&& done) {
  const std::lock_guard<std::mutex> lock(retained_mutex_);
  ++finished_;
  const std::int64_t now = now_ns();
  const double window_ns = options_.window_seconds * 1e9;
  if (static_cast<double>(now - window_start_ns_) >= window_ns) {
    // Roll the window: current winners become the previous snapshot.
    std::sort(window_.begin(), window_.end(), slower);
    previous_ = std::move(window_);
    window_.clear();
    window_start_ns_ = now;
  }
  if (done.error) {
    ++retained_;
    errors_.push_back(std::move(done));
    while (errors_.size() > options_.keep_errors) errors_.pop_front();
    return;
  }
  if (window_.size() < options_.keep_slowest) {
    ++retained_;
    window_.push_back(std::move(done));
    std::push_heap(window_.begin(), window_.end(), slower);
    return;
  }
  if (done.latency_seconds > window_.front().latency_seconds) {
    ++retained_;
    std::pop_heap(window_.begin(), window_.end(), slower);
    window_.back() = std::move(done);
    std::push_heap(window_.begin(), window_.end(), slower);
  }
}

TailSampler::Snapshot TailSampler::snapshot() const {
  const std::lock_guard<std::mutex> lock(retained_mutex_);
  Snapshot snap;
  snap.slow = window_;
  snap.slow.insert(snap.slow.end(), previous_.begin(), previous_.end());
  std::sort(snap.slow.begin(), snap.slow.end(), slower);
  snap.errors.assign(errors_.begin(), errors_.end());
  snap.started = started_;
  snap.finished = finished_;
  snap.retained = retained_;
  snap.overflow_dropped = overflow_dropped_;
  return snap;
}

namespace {

void write_sampled_request(json::Writer& w, const SampledRequest& r) {
  w.begin_object();
  w.key("trace_id");
  w.value(format_trace_id(r.trace_id));
  w.key("id");
  w.value(r.request_id);
  w.key("status");
  w.value(r.status);
  w.key("cache");
  w.value(r.cache);
  w.key("start_us");
  w.value(static_cast<double>(r.start_ns) * 1e-3);
  w.key("latency_seconds");
  w.value(r.latency_seconds);
  w.key("phases");
  w.begin_object();
  w.key("admission_seconds");
  w.value(r.admission_seconds);
  w.key("queue_seconds");
  w.value(r.queue_seconds);
  w.key("plan_seconds");
  w.value(r.plan_seconds);
  w.end_object();
  w.key("error");
  w.value(r.error);
  w.key("truncated");
  w.value(r.truncated);
  w.key("spans");
  w.begin_array();
  for (const TraceEvent& e : r.spans) {
    w.begin_object();
    w.key("name");
    w.value(e.name != nullptr ? e.name : "");
    w.key("cat");
    w.value(e.category != nullptr ? e.category : "");
    w.key("tid");
    w.value(static_cast<long long>(e.tid));
    w.key("ts_us");
    w.value(static_cast<double>(e.start_ns) * 1e-3);
    w.key("dur_us");
    w.value(static_cast<double>(e.dur_ns) * 1e-3);
    if (e.arg1_key != nullptr) {
      w.key(e.arg1_key);
      w.value(e.arg1_value);
    }
    if (e.arg2_key != nullptr) {
      w.key(e.arg2_key);
      w.value(e.arg2_value);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_slow_json(json::Writer& w, const TailSampler::Snapshot& s) {
  w.begin_object();
  w.key("schema");
  w.value("madpipe-admin-v1");
  w.key("slow");
  w.begin_array();
  for (const SampledRequest& r : s.slow) write_sampled_request(w, r);
  w.end_array();
  w.key("errors");
  w.begin_array();
  for (const SampledRequest& r : s.errors) write_sampled_request(w, r);
  w.end_array();
  w.key("counters");
  w.begin_object();
  w.key("started");
  w.value(s.started);
  w.key("finished");
  w.value(s.finished);
  w.key("retained");
  w.value(s.retained);
  w.key("overflow_dropped");
  w.value(s.overflow_dropped);
  w.key("spans_dropped_total");
  w.value(spans_dropped_total());
  w.end_object();
  w.end_object();
}

std::string TailSampler::slow_json() const {
  json::Writer writer;
  write_slow_json(writer, snapshot());
  return writer.str();
}

TailSampler& tail_sampler() {
  // Never destroyed: the Span fast path may touch it at any point in the
  // process lifetime (same discipline as Registry::global()).
  static TailSampler* instance = new TailSampler();
  return *instance;
}

void arm_tail_sampling(const TailSamplerOptions& options) {
  // Same discipline as install_trace: the drop counter must be visible in
  // /metrics as soon as any telemetry sink is live.
  (void)spans_dropped_total();
  tail_sampler().configure(options);
  detail::g_tail_armed.store(true, std::memory_order_release);
}

void disarm_tail_sampling() {
  detail::g_tail_armed.store(false, std::memory_order_release);
}

}  // namespace madpipe::obs
