// Branch-and-bound cyclic scheduler: the phase-2 engine of our MadPipe
// implementation (the paper delegates this step to the ILP of its reference
// [1] with a one-minute solver time limit; we solve the same problem with a
// dedicated combinatorial search — see DESIGN.md for the substitution).
//
// For a fixed period T, operations are placed in dependency-chain order at
// virtual times z (z = t + h·T). Two observations keep the search small:
//   * an op's circle footprint [z mod T, z mod T + d) is independent of the
//     period it lands in, so for each free gap on its resource only the
//     earliest z ≥ ready matters — later wraps only add index shifts (and
//     memory) without changing packability;
//   * trying candidates in increasing z explores memory-cheapest placements
//     first.
// Partial placements are pruned with a safe lower bound on the
// always-resident activation floor (a stage in "group" g keeps at least
// g − 1 activations at all times, §4.2.1). The DFS places ops in chain
// order into free circle gaps, so structure, dependencies and resource
// exclusivity hold at every leaf by construction; only memory can reject
// one. A leaf therefore first passes LeafMemoryGate, the exact memory check
// of validate_pattern without its allocations, and only a leaf the gate
// admits is verified in full with validate_pattern. Every returned pattern
// has passed validate_pattern (DESIGN.md §16). Node and leaf state is kept
// incrementally (per resource, a stack of free-gap lists each derived from
// the one below it, cyclic/free_gaps.hpp; memory verdicts per processor)
// without changing the search tree.
#pragma once

#include <vector>

#include "core/plan.hpp"
#include "cyclic/stage_graph.hpp"

namespace madpipe {

struct BBOptions {
  /// DFS node budget; when exhausted the probe reports infeasible-at-T
  /// (conservative, like the paper's ILP time limit).
  std::size_t max_nodes = 60'000;
  /// Candidate placements explored per operation (sorted by z).
  int max_candidates_per_op = 10;
};

struct BBResult {
  bool feasible = false;
  PeriodicPattern pattern;  ///< valid pattern when feasible
  std::size_t nodes_visited = 0;
  bool node_budget_hit = false;
  /// Complete placements checked (the compact construction included), and
  /// those the memory gate admitted to the full validate_pattern.
  std::size_t leaves = 0;
  std::size_t leaves_validated = 0;
};

/// Try to build a valid pattern at exactly `period`.
BBResult bb_schedule(const CyclicProblem& problem, const Allocation& allocation,
                     const Chain& chain, const Platform& platform,
                     Seconds period, const BBOptions& options = {});

/// Exact activation-memory check of a complete placement at one period:
/// step 4 of validate_pattern (the per-processor event sweep, including its
/// negative in-flight rejection, with the same expressions, summation order
/// and default tolerance), over buffers sized once. A verdict is false
/// exactly when validate_pattern's memory check would reject the pattern.
///
/// Two ways in: admits(z) builds every op and sweeps every processor (the
/// reference path); place() + admits_placed() is the incremental path the
/// search takes. place() builds an F/B op as soon as its virtual time is
/// known and marks its processor stale; admits_placed() re-sweeps only stale
/// processors, reuses the others' verdicts, and builds the comm ops only
/// when the placement is admitted. A processor's verdict depends on nothing
/// but its own stages' F/B ops, so both paths reach the same verdict and
/// the same ops().
class LeafMemoryGate {
 public:
  LeafMemoryGate(const CyclicProblem& problem, const Allocation& allocation,
                 const Chain& chain, const Platform& platform,
                 Seconds period);
  LeafMemoryGate(const LeafMemoryGate&) = delete;  // stages_ points into ops_
  LeafMemoryGate& operator=(const LeafMemoryGate&) = delete;

  /// Build the pattern ops of virtual times `z` (one per problem op, in
  /// chain order) with PeriodicPattern::make_op and sweep their memory.
  bool admits(const std::vector<Seconds>& z);

  /// Set op `index` to virtual time `z`.
  void place(std::size_t index, Seconds z);

  /// The verdict on the ops set by place() (every op must have been set
  /// since construction or the last admits()).
  bool admits_placed();

  /// The ops the last admits() call built, or those of the placement
  /// admits_placed() last admitted, in problem op order.
  const std::vector<PatternOp>& ops() const noexcept { return ops_; }

 private:
  /// Sweep processor p's events; false when its memory is exceeded.
  bool sweep(std::size_t p) const;

  const CyclicProblem& problem_;
  Seconds period_;
  double tolerance_;
  Bytes limit_;  ///< M·(1 + tolerance), as validate_pattern computes it
  std::vector<PatternOp> ops_;
  std::vector<Seconds> z_;  ///< virtual times set by place()
  /// Processor of each F/B op, -1 for comm ops.
  std::vector<int> op_processor_;
  /// Stages grouped by processor in Allocation::stages_on order; processor
  /// p owns stages_[processor_begin_[p], processor_begin_[p + 1]).
  std::vector<SweepStage> stages_;
  std::vector<std::size_t> processor_begin_;
  std::vector<Bytes> static_memory_;
  /// Per processor: an F/B op changed since its verdict was computed, and
  /// that verdict.
  std::vector<char> stale_;
  std::vector<char> fits_;
};

}  // namespace madpipe
