// Perf counters threaded through the planner hot path — MadPipe-DP's memo
// and transition panels, Algorithm 1's bisection and the cyclic period
// search — so planner throughput is observable end to end: in unit tests, in
// perfbench's per-layer metrics and in `madpipe planner`.
#pragma once

namespace madpipe::json {
class Writer;
}

namespace madpipe {

struct PlannerStats {
  // --- MadPipe-DP ---
  long long dp_probes = 0;       ///< madpipe_dp invocations
  long long dp_states = 0;       ///< states memoized across all probes
  long long dp_state_visits = 0; ///< state evaluations started (frames run)
  /// Memo probes beyond the child lookups. Flat engine: each visited
  /// state's final value update, plus the root's placeholder insert; a
  /// child lookup that misses inserts the child's placeholder in its own
  /// probe, so memo_probes + memo_child_lookups is every memo hashing.
  long long memo_probes = 0;
  long long memo_child_lookups = 0;  ///< child-value lookups in the k-loop
  long long memo_hits = 0;           ///< lookups (either kind) that hit
  double memo_max_load_factor = 0.0; ///< worst flat-table occupancy seen
  /// Entry-moving growth rehashes the memo performed (growth churn a bad
  /// pre-reserve causes) and the ones the up-front reserve skipped.
  long long memo_rehashes = 0;
  long long memo_rehashes_avoided = 0;
  /// Flat engine: transition-panel resolutions, one per visited state and
  /// one per reconstructed stage; hits found the (l, delay) panel already
  /// made.
  long long transition_lookups = 0;
  long long transition_hits = 0;
  long long state_budget_hits = 0;   ///< DP probes that tripped max_states

  // --- bisection searches ---
  long long phase1_probes = 0;  ///< DP probes consumed by Algorithm 1
  long long phase2_probes = 0;  ///< bb_schedule probes consumed by the
                                ///< cyclic period search
  // Speculation counters, one pair per phase. The phase-1 pair keeps its
  // original field names; the registry and CLI label it "phase1".
  long long speculative_probes = 0;  ///< phase-1 DP probes launched ahead
                                     ///< of need
  long long speculative_hits = 0;    ///< demanded phase-1 probes served
                                     ///< from a speculative batch
  long long phase2_speculative_probes = 0;  ///< the same for the B&B probes
  long long phase2_speculative_hits = 0;    ///< of the cyclic period search
  /// Consumed phase-2 probes whose "infeasible" came from B&B node-budget
  /// exhaustion rather than a refutation.
  long long phase2_budget_hits = 0;
  double phase1_wall_seconds = 0.0;
  double phase2_wall_seconds = 0.0;

  /// Sum every counter of `other` into this block (load factor takes the
  /// max). Callers that own a field (e.g. plan_madpipe owns the phase wall
  /// clocks) overwrite it after accumulating.
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
