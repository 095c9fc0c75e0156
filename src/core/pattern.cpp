#include "core/pattern.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace madpipe {

const char* to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::Forward: return "F";
    case OpKind::Backward: return "B";
    case OpKind::CommForward: return "CF";
    case OpKind::CommBackward: return "CB";
  }
  return "?";
}

ResourceId ResourceId::link(int p, int q) {
  MP_EXPECT(p != q, "a link joins two distinct processors");
  if (p > q) std::swap(p, q);
  return {Kind::Link, p, q};
}

bool ResourceId::operator<(const ResourceId& other) const {
  if (kind != other.kind) return kind < other.kind;
  if (a != other.a) return a < other.a;
  return b < other.b;
}

std::string ResourceId::to_string() const {
  if (kind == Kind::Processor) return "gpu" + std::to_string(a);
  return "link" + std::to_string(a) + "-" + std::to_string(b);
}

PatternOp PeriodicPattern::make_op(OpKind kind, int stage, ResourceId resource,
                                   Seconds virtual_time, Seconds duration,
                                   Seconds period) {
  MP_EXPECT(period > 0.0, "period must be positive");
  MP_EXPECT(virtual_time >= -kTimeEps * period, "virtual time must be >= 0");
  MP_EXPECT(duration >= 0.0, "duration must be non-negative");
  if (virtual_time < 0.0) virtual_time = 0.0;
  auto shift = static_cast<long long>(
      std::floor(virtual_time / period + kTimeEps));
  if (shift < 0) shift = 0;
  Seconds start = virtual_time - static_cast<double>(shift) * period;
  if (start < 0.0) start = 0.0;
  if (start >= period) {  // numeric edge: z an exact multiple of T
    start = 0.0;
    ++shift;
  }
  return PatternOp{kind, stage, resource, start, duration, shift};
}

void ValidationResult::fail(std::string message) {
  valid = false;
  errors.push_back(std::move(message));
}

namespace {

/// floor(x) with snapping: values within eps of an integer round to it.
long long robust_floor(double x, double eps) {
  const double r = std::round(x);
  if (std::abs(x - r) <= eps) return static_cast<long long>(r);
  return static_cast<long long>(std::floor(x));
}

/// In-flight batches of a stage at (steady-state) time τ ∈ [0,T): the number
/// of F completions minus B completions by τ, counted with closed semantics
/// (a completion at exactly τ counts).
long long inflight_at(const PatternOp& fwd, const PatternOp& bwd, Seconds tau,
                      Seconds period, double eps) {
  const double f = (tau - fwd.start - fwd.duration) / period;
  const double b = (tau - bwd.start - bwd.duration) / period;
  return (bwd.shift - fwd.shift) + robust_floor(f, eps) - robust_floor(b, eps);
}

struct Interval {
  Seconds begin;
  Seconds end;  // begin + duration, may exceed the period (wraps)
  const PatternOp* op;
};

/// The event sweep shared by validate_pattern and sweep_processor_memory:
/// evaluate the in-flight activation bytes of `stages` at every F/B
/// completion instant (mod T). `fwd`/`bwd` are indexed by stage.
MemorySweep sweep_memory_events(const std::vector<const PatternOp*>& fwd,
                                const std::vector<const PatternOp*>& bwd,
                                const std::vector<int>& stages,
                                const Partitioning& parts, const Chain& chain,
                                Seconds T, double tol) {
  MemorySweep sweep;
  sweep.stages = stages;
  sweep.stage_max_inflight.assign(stages.size(), 0);

  std::vector<SweepStage> on_processor;
  on_processor.reserve(stages.size());
  for (const int s : stages) {
    on_processor.push_back(
        {fwd[s], bwd[s], parts.stage_stored_activations(chain, s)});
  }

  // Event times: all F/B completion instants (mod T) on this processor.
  std::vector<Seconds> events{0.0};
  for (const int s : stages) {
    events.push_back(std::fmod(fwd[s]->start + fwd[s]->duration, T));
    events.push_back(std::fmod(bwd[s]->start + bwd[s]->duration, T));
  }

  for (const Seconds tau : events) {
    const InflightAt at =
        inflight_at_event(on_processor.data(), on_processor.size(), tau, T,
                          tol, sweep.stage_max_inflight.data());
    if (at.negative >= 0) {
      sweep.error = "negative in-flight count for stage " +
                    std::to_string(stages[at.negative]) +
                    " (backward ahead of forward)";
      return sweep;
    }
    sweep.points.push_back({tau, at.bytes});
    sweep.peak_activation_bytes =
        std::max(sweep.peak_activation_bytes, at.bytes);
  }
  return sweep;
}

std::string op_name(const PatternOp& op) {
  std::ostringstream os;
  os << to_string(op.kind) << "[stage " << op.stage << " on "
     << op.resource.to_string() << ", t=" << op.start << ", h=" << op.shift
     << "]";
  return os.str();
}

/// Circular-disjointness check of all intervals on one resource.
void check_resource_packing(const std::vector<Interval>& intervals,
                            Seconds period, double tol,
                            ValidationResult& result) {
  Seconds busy = 0.0;
  for (const Interval& iv : intervals) busy += iv.end - iv.begin;
  if (busy > period * (1.0 + tol)) {
    result.fail("resource " + intervals.front().op->resource.to_string() +
                " is overcommitted: busy " + std::to_string(busy) +
                " > period " + std::to_string(period));
    return;
  }
  // Unroll each interval (possibly wrapping) into segments in [0, 2T) and
  // sweep; segments from distinct ops must not overlap.
  struct Segment {
    Seconds begin, end;
    const PatternOp* op;
  };
  std::vector<Segment> segments;
  for (const Interval& iv : intervals) {
    if (iv.end - iv.begin <= 0.0) continue;
    if (iv.end <= period + tol * period) {
      segments.push_back({iv.begin, std::min(iv.end, period), iv.op});
    } else {
      segments.push_back({iv.begin, period, iv.op});
      segments.push_back({0.0, iv.end - period, iv.op});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& x, const Segment& y) { return x.begin < y.begin; });
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].begin < segments[i].end - tol * period) {
      result.fail("overlap on " + segments[i].op->resource.to_string() + ": " +
                  op_name(*segments[i].op) + " and " +
                  op_name(*segments[i + 1].op));
      return;
    }
  }
}

}  // namespace

InflightAt inflight_at_event(const SweepStage* stages, std::size_t count,
                             Seconds tau, Seconds period, double tolerance,
                             int* max_inflight) {
  InflightAt at;
  for (std::size_t j = 0; j < count; ++j) {
    const long long q = inflight_at(*stages[j].forward, *stages[j].backward,
                                    tau, period, tolerance);
    if (q < 0) {
      at.negative = static_cast<int>(j);
      return at;
    }
    if (max_inflight != nullptr) {
      max_inflight[j] = std::max(max_inflight[j], static_cast<int>(q));
    }
    at.bytes += static_cast<double>(q) * stages[j].batch_bytes;
  }
  return at;
}

MemorySweep sweep_processor_memory(const PeriodicPattern& pattern,
                                   const Allocation& allocation,
                                   const Chain& chain, int processor,
                                   double tolerance) {
  const Partitioning& parts = allocation.partitioning();
  const int num_stages = parts.num_stages();
  std::vector<const PatternOp*> fwd(num_stages, nullptr);
  std::vector<const PatternOp*> bwd(num_stages, nullptr);
  for (const PatternOp& op : pattern.ops) {
    if (op.stage < 0 || op.stage >= num_stages) continue;
    if (op.kind == OpKind::Forward && fwd[op.stage] == nullptr) {
      fwd[op.stage] = &op;
    } else if (op.kind == OpKind::Backward && bwd[op.stage] == nullptr) {
      bwd[op.stage] = &op;
    }
  }
  const std::vector<int> stages = allocation.stages_on(processor);
  for (const int s : stages) {
    if (fwd[s] == nullptr || bwd[s] == nullptr) {
      MemorySweep sweep;
      sweep.error =
          "stage " + std::to_string(s) + " misses its F or B op";
      return sweep;
    }
  }
  return sweep_memory_events(fwd, bwd, stages, parts, chain, pattern.period,
                             tolerance);
}

ValidationResult validate_pattern(const PeriodicPattern& pattern,
                                  const Allocation& allocation,
                                  const Chain& chain, const Platform& platform,
                                  const ValidationOptions& options) {
  obs::Span span("validate_pattern", obs::kCatVerify);
  span.arg("ops", static_cast<long long>(pattern.ops.size()));
  span.arg("stages",
           static_cast<long long>(allocation.partitioning().num_stages()));
  ValidationResult result;
  const Seconds T = pattern.period;
  const double tol = options.tolerance;
  const Partitioning& parts = allocation.partitioning();
  const int num_stages = parts.num_stages();

  if (!(T > 0.0)) {
    result.fail("period must be positive");
    return result;
  }

  // --- 1. Structure ---------------------------------------------------
  std::vector<const PatternOp*> fwd(num_stages, nullptr);
  std::vector<const PatternOp*> bwd(num_stages, nullptr);
  std::vector<const PatternOp*> comm_fwd(num_stages, nullptr);
  std::vector<const PatternOp*> comm_bwd(num_stages, nullptr);

  for (const PatternOp& op : pattern.ops) {
    if (op.stage < 0 || op.stage >= num_stages) {
      result.fail("op references stage out of range: " + op_name(op));
      return result;
    }
    if (op.start < -tol * T || op.start >= T * (1.0 + tol)) {
      result.fail("start time outside [0, T): " + op_name(op));
    }
    if (op.shift < 0) {
      result.fail("negative index shift: " + op_name(op));
    }
    auto& slot = (op.kind == OpKind::Forward)       ? fwd
                 : (op.kind == OpKind::Backward)    ? bwd
                 : (op.kind == OpKind::CommForward) ? comm_fwd
                                                    : comm_bwd;
    if (slot[op.stage] != nullptr) {
      result.fail("duplicate op: " + op_name(op));
      return result;
    }
    slot[op.stage] = &op;
  }

  for (int s = 0; s < num_stages; ++s) {
    const Stage& st = parts.stage(s);
    const ResourceId proc = ResourceId::processor(allocation.processor_of(s));
    const bool cut = allocation.boundary_cut(s);

    if (fwd[s] == nullptr || bwd[s] == nullptr) {
      result.fail("stage " + std::to_string(s) + " misses its F or B op");
      return result;
    }
    const auto check_compute = [&](const PatternOp& op, Seconds expected) {
      if (!(op.resource == proc)) {
        result.fail(op_name(op) + " placed on wrong resource, expected " +
                    proc.to_string());
      }
      if (std::abs(op.duration - expected) > tol * std::max(1.0, expected)) {
        result.fail(op_name(op) + " has wrong duration, expected " +
                    std::to_string(expected));
      }
    };
    check_compute(*fwd[s], chain.forward_load(st.first, st.last));
    check_compute(*bwd[s], chain.backward_load(st.first, st.last));

    if (cut) {
      const ResourceId link = ResourceId::link(allocation.processor_of(s),
                                               allocation.processor_of(s + 1));
      const Seconds expected =
          platform.boundary_oneway_time(chain, parts.boundary_after(s));
      if (comm_fwd[s] == nullptr || comm_bwd[s] == nullptr) {
        result.fail("cut boundary after stage " + std::to_string(s) +
                    " misses its communication ops");
        return result;
      }
      for (const PatternOp* op : {comm_fwd[s], comm_bwd[s]}) {
        if (!(op->resource == link)) {
          result.fail(op_name(*op) + " placed on wrong link, expected " +
                      link.to_string());
        }
        if (std::abs(op->duration - expected) > tol * std::max(1.0, expected)) {
          result.fail(op_name(*op) + " has wrong duration, expected " +
                      std::to_string(expected));
        }
      }
    } else if (comm_fwd[s] != nullptr || comm_bwd[s] != nullptr) {
      result.fail("communication ops present on uncut boundary after stage " +
                  std::to_string(s));
    }
  }
  if (!result.valid) return result;

  // --- 2. Dependencies in virtual time --------------------------------
  std::vector<const PatternOp*> sequence;
  for (int s = 0; s < num_stages; ++s) {
    sequence.push_back(fwd[s]);
    if (comm_fwd[s] != nullptr) sequence.push_back(comm_fwd[s]);
  }
  for (int s = num_stages - 1; s >= 0; --s) {
    sequence.push_back(bwd[s]);
    if (s > 0 && comm_bwd[s - 1] != nullptr) sequence.push_back(comm_bwd[s - 1]);
  }
  for (std::size_t i = 0; i + 1 < sequence.size(); ++i) {
    const Seconds ready =
        sequence[i]->virtual_time(T) + sequence[i]->duration;
    const Seconds begin = sequence[i + 1]->virtual_time(T);
    if (begin < ready - tol * T) {
      result.fail("dependency violated: " + op_name(*sequence[i + 1]) +
                  " starts before " + op_name(*sequence[i]) + " completes");
    }
  }

  // --- 3. Resource exclusivity ----------------------------------------
  std::map<ResourceId, std::vector<Interval>> by_resource;
  for (const PatternOp& op : pattern.ops) {
    by_resource[op.resource].push_back(
        Interval{op.start, op.start + op.duration, &op});
  }
  for (auto& [resource, intervals] : by_resource) {
    check_resource_packing(intervals, T, tol, result);
  }

  // --- 4. Memory -------------------------------------------------------
  result.stage_active_batches.assign(num_stages, 0);
  result.processor_memory_peak.assign(allocation.num_processors(), 0.0);

  for (int p = 0; p < allocation.num_processors(); ++p) {
    const std::vector<int> stages = allocation.stages_on(p);
    const Bytes static_mem = allocation.static_memory(chain, p);

    const MemorySweep sweep =
        sweep_memory_events(fwd, bwd, stages, parts, chain, T, tol);
    if (!sweep.ok()) {
      result.fail(sweep.error);
      return result;
    }
    for (std::size_t j = 0; j < stages.size(); ++j) {
      result.stage_active_batches[stages[j]] = std::max(
          result.stage_active_batches[stages[j]], sweep.stage_max_inflight[j]);
    }
    result.processor_memory_peak[p] = static_mem + sweep.peak_activation_bytes;

    if (options.check_memory &&
        result.processor_memory_peak[p] >
            platform.memory_per_processor * (1.0 + tol)) {
      result.fail("memory exceeded on processor " + std::to_string(p) + ": " +
                  std::to_string(result.processor_memory_peak[p]) + " > " +
                  std::to_string(platform.memory_per_processor));
    }
  }

  return result;
}

}  // namespace madpipe
