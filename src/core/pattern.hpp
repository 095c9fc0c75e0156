// Periodic patterns (§3 of the paper) and their exact verification.
//
// A pattern of period T assigns every operation (stage forward/backward,
// boundary communications) a resource, a start time t ∈ [0,T) and an index
// shift h: in the k-th period the operation starts at kT + t and processes
// mini-batch k − h. The *virtual time* z = t + h·T is the time at which the
// operation processes batch 0; chain dependencies are plain precedences in
// z, which is how all schedulers in this library reason about patterns.
//
// `validate_pattern` checks, exactly:
//   1. structure — one F/B per stage on its processor, one comm pair per cut
//      boundary on the right link, durations consistent with the chain;
//   2. dependencies — the full F...F B...B chain in virtual time;
//   3. resource exclusivity — circular (mod T) disjointness per resource;
//   4. memory — event-sweep of in-flight activation counts per processor,
//      plus static weights and communication buffers, against M.
#pragma once

#include <string>
#include <vector>

#include "core/chain.hpp"
#include "core/partition.hpp"
#include "core/platform.hpp"
#include "core/types.hpp"

namespace madpipe {

enum class OpKind {
  Forward,       ///< F of a stage
  Backward,      ///< B of a stage
  CommForward,   ///< activation a^(boundary) moving downstream
  CommBackward,  ///< gradient b^(boundary) moving upstream
};

const char* to_string(OpKind kind) noexcept;

/// A compute or communication resource of the platform.
struct ResourceId {
  enum class Kind { Processor, Link };
  Kind kind = Kind::Processor;
  int a = 0;  ///< processor index; for links, the smaller endpoint
  int b = 0;  ///< for links, the larger endpoint; unused for processors

  static ResourceId processor(int p) { return {Kind::Processor, p, 0}; }
  static ResourceId link(int p, int q);

  bool operator==(const ResourceId&) const = default;
  bool operator<(const ResourceId& other) const;
  std::string to_string() const;
};

/// One operation of the periodic pattern.
struct PatternOp {
  OpKind kind = OpKind::Forward;
  int stage = 0;  ///< stage index; for comms, the boundary *after* this stage
  ResourceId resource;
  Seconds start = 0.0;     ///< t ∈ [0, period)
  Seconds duration = 0.0;
  long long shift = 0;     ///< h ≥ 0

  /// z = t + h·T: the absolute time this op processes batch 0.
  Seconds virtual_time(Seconds period) const {
    return start + static_cast<double>(shift) * period;
  }
};

/// A periodic pattern: period plus its operations.
struct PeriodicPattern {
  Seconds period = 0.0;
  std::vector<PatternOp> ops;

  /// Build an op from a virtual time z ≥ 0, splitting it into (start, shift).
  static PatternOp make_op(OpKind kind, int stage, ResourceId resource,
                           Seconds virtual_time, Seconds duration,
                           Seconds period);
};

struct ValidationOptions {
  bool check_memory = true;
  /// Relative tolerance for time comparisons (scaled by the period).
  double tolerance = 1e-7;
};

/// One stage as the memory sweep sees it: its F and B ops and the stored
/// activation bytes of one in-flight batch.
struct SweepStage {
  const PatternOp* forward = nullptr;
  const PatternOp* backward = nullptr;
  Bytes batch_bytes = 0.0;
};

/// In-flight activations of a processor's stages at one sweep instant.
struct InflightAt {
  Bytes bytes = 0.0;  ///< Σ count·batch_bytes, summed in stage order
  /// Position in `stages` of the first stage whose count is negative (its
  /// backward runs ahead of its forward), or -1. When set, `bytes` holds
  /// only the stages before it.
  int negative = -1;
};

/// The per-event kernel of the memory sweep: in-flight activation bytes of
/// `stages` at steady-state instant τ ∈ [0,T). A stage's count is its F
/// completions minus B completions by τ, closed at τ, with `tolerance`
/// snapping near-integer period fractions. When `max_inflight` is non-null,
/// max_inflight[j] is raised to stage j's count. validate_pattern and the
/// branch-and-bound leaf gate both evaluate memory through this function,
/// so their verdicts cannot drift apart.
InflightAt inflight_at_event(const SweepStage* stages, std::size_t count,
                             Seconds tau, Seconds period, double tolerance,
                             int* max_inflight = nullptr);

/// One instant of a processor's steady-state activation occupancy.
struct MemorySweepPoint {
  Seconds time = 0.0;            ///< event instant in [0, T)
  Bytes activation_bytes = 0.0;  ///< in-flight stored activations at `time`
};

/// Steady-state memory sweep of one processor: the in-flight activation
/// bytes at every F/B completion instant (mod T) of the stages living on it.
/// This is the exact event sweep `validate_pattern` checks memory with; the
/// report subsystem builds its memory-over-time curves from the same data,
/// so both sides agree bit for bit. The processor's total footprint at any
/// point is Allocation::static_memory + activation_bytes.
struct MemorySweep {
  std::vector<MemorySweepPoint> points;  ///< sweep order, not time-sorted
  Bytes peak_activation_bytes = 0.0;
  std::vector<int> stages;             ///< stage indices on the processor
  std::vector<int> stage_max_inflight; ///< parallel to `stages`
  std::string error;  ///< non-empty when F/B ops are missing or inconsistent
  bool ok() const { return error.empty(); }
};

/// Sweep the steady-state activation memory of `processor`. Fails (with a
/// message in `error`) when the pattern misses a stage's F/B op or a stage's
/// backward runs ahead of its forward.
MemorySweep sweep_processor_memory(const PeriodicPattern& pattern,
                                   const Allocation& allocation,
                                   const Chain& chain, int processor,
                                   double tolerance = 1e-7);

struct ValidationResult {
  bool valid = true;
  std::vector<std::string> errors;
  /// Peak memory per processor (weights + buffers + in-flight activations).
  std::vector<Bytes> processor_memory_peak;
  /// Max in-flight batches per stage (the stage's "group number").
  std::vector<int> stage_active_batches;

  void fail(std::string message);
};

/// Exact verification of `pattern` against the allocation it claims to
/// schedule. Always fills the memory/active-batch diagnostics when the
/// structure is sound, even if memory exceeds M (the error list says so).
ValidationResult validate_pattern(const PeriodicPattern& pattern,
                                  const Allocation& allocation,
                                  const Chain& chain, const Platform& platform,
                                  const ValidationOptions& options = {});

}  // namespace madpipe
