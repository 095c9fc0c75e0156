// Minimal-period search for the cyclic scheduler: binary search over the
// period with branch-and-bound feasibility probes, between the resource-load
// lower bound and the fully-serial upper bound (at which a schedule exists
// whenever the allocation is memory-schedulable at all: every stage then
// keeps a single in-flight batch, the activation floor).
#pragma once

#include <optional>

#include "core/plan.hpp"
#include "cyclic/bb_scheduler.hpp"

namespace madpipe {

struct PeriodSearchOptions {
  /// Stop when ub − lb ≤ relative_precision · ub.
  double relative_precision = 1e-3;
  int max_probes = 28;
  BBOptions bb;
  /// Speculation width W: up to W branch-and-bound probes run concurrently.
  /// Unlike phase 1, every probe outcome here is boolean, so the two-way
  /// outcome tree predicts future probe periods *exactly*; results are
  /// bit-identical to the sequential search for every W. 0 = auto
  /// (min(4, hardware threads)); 1 = sequential.
  int speculation = 0;
};

struct PeriodSearchResult {
  bool feasible = false;
  PeriodicPattern pattern;  ///< pattern at the best (smallest) feasible period
  Seconds period = 0.0;
  int probes = 0;  ///< probes the search consumed (as in a sequential run)
  /// Extra probes launched ahead of need, and consumed probes that were
  /// served by an earlier speculative batch.
  int speculative_probes = 0;
  int speculative_hits = 0;
  /// Consumed probes that reported infeasible because the B&B node budget
  /// ran out, not because the search space was exhausted.
  int budget_hits = 0;
  /// B&B nodes visited over every probe launched, speculative ones
  /// included (so, unlike the counts above, it grows with the width).
  long long bb_nodes = 0;
  double wall_seconds = 0.0;
};

/// Find (approximately) the smallest period at which `allocation` can be
/// scheduled within memory. `lower_hint` tightens the initial lower bound
/// (e.g. the phase-1 period, which is a valid lower bound by construction).
PeriodSearchResult find_min_period(const Allocation& allocation,
                                   const Chain& chain, const Platform& platform,
                                   Seconds lower_hint = 0.0,
                                   const PeriodSearchOptions& options = {});

}  // namespace madpipe
