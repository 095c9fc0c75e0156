// Perf counters threaded through the planner hot path — MadPipe-DP's memo
// and transition panels, Algorithm 1's bisection and the cyclic period
// search — so planner throughput is observable end to end: in unit tests, in
// perfbench's per-layer metrics and in `madpipe planner`.
#pragma once

#include "obs/metrics.hpp"

namespace madpipe::json {
class Writer;
}

// The counter table: X(kind, field, registry name, help), one row per
// counter, in JSON order. The help text is the field's documentation. Kinds
// (obs/metrics.hpp): Sum is a summed long long and a registry counter, Max a
// max-merged double and a registry gauge, Wall a summed wall time and one
// registry histogram observation per plan. The struct, absorb, write_json,
// the registry binding, publish and the `madpipe planner` rows are all
// expanded from this table.
#define MADPIPE_PLANNER_STATS(X)                                              \
  /* --- MadPipe-DP --- */                                                    \
  X(Sum, dp_probes, "madpipe_planner_dp_probes_total",                        \
    "MadPipe-DP invocations")                                                 \
  X(Sum, dp_states, "madpipe_planner_dp_states_total",                        \
    "DP states memoized across all probes")                                   \
  X(Sum, dp_state_visits, "madpipe_planner_dp_state_visits_total",            \
    "DP state evaluations started (frames run)")                              \
  /* A child lookup that misses inserts the child's placeholder in its own */ \
  /* probe, so memo_probes + memo_child_lookups is every memo hashing. */     \
  X(Sum, memo_probes, "madpipe_planner_memo_probes_total",                    \
    "Memo probes beyond the child lookups: each visited state's final "       \
    "value update, plus the root's placeholder insert")                       \
  X(Sum, memo_child_lookups, "madpipe_planner_memo_child_lookups_total",      \
    "Child-value lookups in the k-loop")                                      \
  X(Sum, memo_hits, "madpipe_planner_memo_hits_total",                        \
    "Memo lookups (either kind) that hit")                                    \
  X(Max, memo_max_load_factor, "madpipe_planner_memo_max_load_factor",        \
    "Worst flat-table occupancy seen (registry: of the most recent plan)")    \
  X(Sum, memo_rehashes, "madpipe_planner_memo_rehashes_total",                \
    "Entry-moving memo growth rehashes (churn a bad pre-reserve causes)")     \
  X(Sum, memo_rehashes_avoided, "madpipe_planner_memo_rehashes_avoided_total", \
    "Memo growth rehashes the up-front reserve skipped")                      \
  X(Sum, transition_lookups, "madpipe_planner_transition_lookups_total",      \
    "Transition-panel resolutions, one per visited state and one per "        \
    "reconstructed stage")                                                    \
  X(Sum, transition_hits, "madpipe_planner_transition_hits_total",            \
    "Transition-panel resolutions that found the (l, delay) panel already "   \
    "made")                                                                   \
  X(Sum, state_budget_hits, "madpipe_planner_state_budget_hits_total",        \
    "DP probes that tripped max_states")                                      \
  /* --- bisection searches --- */                                            \
  X(Sum, phase1_probes, "madpipe_planner_phase1_probes_total",                \
    "DP probes consumed by Algorithm 1")                                      \
  X(Sum, phase2_probes, "madpipe_planner_phase2_probes_total",                \
    "bb_schedule probes consumed by the cyclic period search")                \
  /* The phase-1 speculation pair keeps its original field names; the */      \
  /* registry labels it "phase1". */                                          \
  X(Sum, speculative_probes, "madpipe_planner_phase1_speculative_probes_total", \
    "Phase-1 DP probes launched ahead of need")                               \
  X(Sum, speculative_hits, "madpipe_planner_phase1_speculative_hits_total",   \
    "Demanded phase-1 probes served from a speculative batch")                \
  X(Sum, phase2_speculative_probes,                                           \
    "madpipe_planner_phase2_speculative_probes_total",                        \
    "Phase-2 B&B probes launched ahead of need")                              \
  X(Sum, phase2_speculative_hits,                                             \
    "madpipe_planner_phase2_speculative_hits_total",                          \
    "Demanded phase-2 probes served from a speculative batch")                \
  X(Sum, phase2_budget_hits, "madpipe_planner_phase2_budget_hits_total",      \
    "Consumed phase-2 probes whose infeasible verdict came from B&B "         \
    "node-budget exhaustion rather than a refutation")                        \
  X(Wall, phase1_wall_seconds, "madpipe_planner_phase1_seconds",              \
    "Phase-1 (Algorithm 1) wall time per plan")                               \
  X(Wall, phase2_wall_seconds, "madpipe_planner_phase2_seconds",              \
    "Phase-2 (period search) wall time per plan")

namespace madpipe {

/// Plain, non-atomic: the DP and the B&B bump it in their inner loops.
struct PlannerStats {
#define MADPIPE_PLANNER_FIELD(kind, field, metric, help) \
  obs::kind::type field = 0;
  MADPIPE_PLANNER_STATS(MADPIPE_PLANNER_FIELD)
#undef MADPIPE_PLANNER_FIELD

  /// Merge every field of `other` into this block by its kind (Max takes
  /// the max, the rest add). Callers that own a field (e.g. plan_madpipe
  /// owns the phase wall clocks) overwrite it after accumulating.
  void absorb(const PlannerStats& other) noexcept;

  /// Append this block as one JSON object value (the caller writes the key).
  void write_json(json::Writer& writer) const;

  /// Add this block into the process-wide obs::Registry (the cumulative
  /// madpipe_planner_* counters and the per-phase wall histograms). Called
  /// once per plan_madpipe run so registry totals aggregate per plan; the
  /// struct's own fields are unchanged (they remain the per-run view).
  /// Thread-safe (relaxed atomic adds).
  void publish() const;
};

}  // namespace madpipe
