// Algorithm 1 of the paper: the modified binary search over the target
// period T̂ driving MadPipe-DP.
//
// Two monotonicities make the search sound: MadPipe-DP(T̂) is non-increasing
// in T̂ (a larger target stores fewer activations, relaxing memory), and any
// schedule of the produced allocation needs a period ≥ max(DP result, T̂).
// Each iteration therefore tightens lb = max(lb, min(T, T̂)) and
// ub = min(ub, max(T, T̂)) and probes the midpoint.
//
// Once a probe has succeeded, a result at or above the incumbent (the best
// period so far) moves neither bound, so every later probe runs with the
// incumbent as MadPipe-DP's exclusive bound and skips the states that
// cannot beat it; periods and allocations are unchanged (DESIGN.md §7).
#pragma once

#include <optional>
#include <vector>

#include "core/partition.hpp"
#include "madpipe/dp.hpp"

namespace madpipe {

struct Phase1Options {
  int iterations = 10;  ///< K of Algorithm 1 (10 suffices per the paper)
  MadPipeDPOptions dp;
  /// Retain every iterate's allocation in the trace (used by the "schedule
  /// the best k iterates" extension; the paper keeps only the best). Such
  /// runs need every iterate's exact result, so their probes run without
  /// the incumbent bound.
  bool keep_iterate_allocations = false;
  /// Speculation width W of the bisection fast path: up to W DP probes run
  /// concurrently, the extras at the targets the search would request next
  /// under each possible outcome of the pending probe. Results are
  /// bit-identical to the sequential search for every W (mispredicted
  /// probes are discarded). 0 = auto (min(4, hardware threads)); 1 =
  /// sequential.
  int speculation = 0;
};

struct Phase1Iteration {
  Seconds target = 0.0;    ///< T̂_i
  /// max(MadPipe-DP(T̂_i), T̂_i); infinity if infeasible or, unless
  /// keep_iterate_allocations is set, if MadPipe-DP(T̂_i) is no better than
  /// the incumbent (the best period of the earlier iterations).
  Seconds achieved = 0.0;
  /// Present only with Phase1Options::keep_iterate_allocations.
  std::optional<Allocation> allocation;
};

struct Phase1Result {
  /// Best max(T_i, T̂_i) over all iterations; infinity when every target was
  /// infeasible (no allocation fits memory at all).
  Seconds period = 0.0;
  std::optional<Allocation> allocation;  ///< allocation of the best iterate
  bool uses_special = false;
  std::vector<Phase1Iteration> trace;
  /// Counters summed over every DP probe launched (speculative ones
  /// included); phase1_probes counts only the probes the search consumed.
  PlannerStats stats;

  bool feasible() const noexcept { return allocation.has_value(); }
};

/// Run the first phase of MadPipe (Algorithm 1).
Phase1Result madpipe_phase1(const Chain& chain, const Platform& platform,
                            const Phase1Options& options = {});

}  // namespace madpipe
