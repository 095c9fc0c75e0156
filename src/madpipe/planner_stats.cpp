#include "madpipe/planner_stats.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace madpipe {

void PlannerStats::absorb(const PlannerStats& other) noexcept {
  dp_probes += other.dp_probes;
  dp_states += other.dp_states;
  dp_state_visits += other.dp_state_visits;
  memo_probes += other.memo_probes;
  memo_child_lookups += other.memo_child_lookups;
  memo_hits += other.memo_hits;
  memo_max_load_factor =
      std::max(memo_max_load_factor, other.memo_max_load_factor);
  memo_rehashes += other.memo_rehashes;
  memo_rehashes_avoided += other.memo_rehashes_avoided;
  transition_lookups += other.transition_lookups;
  transition_hits += other.transition_hits;
  state_budget_hits += other.state_budget_hits;
  phase1_probes += other.phase1_probes;
  phase2_probes += other.phase2_probes;
  speculative_probes += other.speculative_probes;
  speculative_hits += other.speculative_hits;
  phase2_speculative_probes += other.phase2_speculative_probes;
  phase2_speculative_hits += other.phase2_speculative_hits;
  phase2_budget_hits += other.phase2_budget_hits;
  phase1_wall_seconds += other.phase1_wall_seconds;
  phase2_wall_seconds += other.phase2_wall_seconds;
}

void PlannerStats::write_json(json::Writer& writer) const {
  writer.begin_object();
  writer.key("dp_probes");
  writer.value(dp_probes);
  writer.key("dp_states");
  writer.value(dp_states);
  writer.key("dp_state_visits");
  writer.value(dp_state_visits);
  writer.key("memo_probes");
  writer.value(memo_probes);
  writer.key("memo_child_lookups");
  writer.value(memo_child_lookups);
  writer.key("memo_hits");
  writer.value(memo_hits);
  writer.key("memo_max_load_factor");
  writer.value(memo_max_load_factor);
  writer.key("memo_rehashes");
  writer.value(memo_rehashes);
  writer.key("memo_rehashes_avoided");
  writer.value(memo_rehashes_avoided);
  writer.key("transition_lookups");
  writer.value(transition_lookups);
  writer.key("transition_hits");
  writer.value(transition_hits);
  writer.key("state_budget_hits");
  writer.value(state_budget_hits);
  writer.key("phase1_probes");
  writer.value(phase1_probes);
  writer.key("phase2_probes");
  writer.value(phase2_probes);
  writer.key("speculative_probes");
  writer.value(speculative_probes);
  writer.key("speculative_hits");
  writer.value(speculative_hits);
  writer.key("phase2_speculative_probes");
  writer.value(phase2_speculative_probes);
  writer.key("phase2_speculative_hits");
  writer.value(phase2_speculative_hits);
  writer.key("phase2_budget_hits");
  writer.value(phase2_budget_hits);
  writer.key("phase1_wall_seconds");
  writer.value(phase1_wall_seconds);
  writer.key("phase2_wall_seconds");
  writer.value(phase2_wall_seconds);
  writer.end_object();
}

void PlannerStats::publish() const {
  // Registry references resolved once and cached (entities are
  // process-lifetime); publish() itself is only relaxed atomic adds.
  struct Metrics {
    obs::Counter& dp_probes;
    obs::Counter& dp_states;
    obs::Counter& dp_state_visits;
    obs::Counter& memo_probes;
    obs::Counter& memo_child_lookups;
    obs::Counter& memo_hits;
    obs::Gauge& memo_max_load_factor;
    obs::Counter& memo_rehashes;
    obs::Counter& memo_rehashes_avoided;
    obs::Counter& transition_lookups;
    obs::Counter& transition_hits;
    obs::Counter& state_budget_hits;
    obs::Counter& phase1_probes;
    obs::Counter& phase2_probes;
    obs::Counter& speculative_probes;
    obs::Counter& speculative_hits;
    obs::Counter& phase2_speculative_probes;
    obs::Counter& phase2_speculative_hits;
    obs::Counter& phase2_budget_hits;
    obs::Histogram& phase1_wall;
    obs::Histogram& phase2_wall;
  };
  static Metrics metrics = [] {
    obs::Registry& r = obs::Registry::global();
    return Metrics{
        r.counter("madpipe_planner_dp_probes_total",
                  "MadPipe-DP invocations"),
        r.counter("madpipe_planner_dp_states_total",
                  "DP states memoized across all probes"),
        r.counter("madpipe_planner_dp_state_visits_total",
                  "DP state evaluations started (frames run)"),
        r.counter("madpipe_planner_memo_probes_total",
                  "Per-state memo operations"),
        r.counter("madpipe_planner_memo_child_lookups_total",
                  "Child-value lookups in the k-loop"),
        r.counter("madpipe_planner_memo_hits_total",
                  "Memo lookups (either kind) that hit"),
        r.gauge("madpipe_planner_memo_max_load_factor",
                "Worst flat-table occupancy of the most recent plan"),
        r.counter("madpipe_planner_memo_rehashes_total",
                  "Entry-moving memo growth rehashes (pre-reserve misses)"),
        r.counter("madpipe_planner_memo_rehashes_avoided_total",
                  "Memo growth rehashes skipped by the up-front reserve"),
        r.counter("madpipe_planner_transition_lookups_total",
                  "(k, l, delay) transition-cache consultations"),
        r.counter("madpipe_planner_transition_hits_total",
                  "Transition-cache hits"),
        r.counter("madpipe_planner_state_budget_hits_total",
                  "DP probes that tripped max_states"),
        r.counter("madpipe_planner_phase1_probes_total",
                  "DP probes consumed by Algorithm 1"),
        r.counter("madpipe_planner_phase2_probes_total",
                  "bb_schedule probes consumed by the cyclic period search"),
        r.counter("madpipe_planner_phase1_speculative_probes_total",
                  "Phase-1 DP probes launched ahead of need"),
        r.counter("madpipe_planner_phase1_speculative_hits_total",
                  "Demanded phase-1 probes served from a speculative batch"),
        r.counter("madpipe_planner_phase2_speculative_probes_total",
                  "Phase-2 B&B probes launched ahead of need"),
        r.counter("madpipe_planner_phase2_speculative_hits_total",
                  "Demanded phase-2 probes served from a speculative batch"),
        r.counter("madpipe_planner_phase2_budget_hits_total",
                  "Consumed phase-2 probes cut short by the B&B node budget"),
        r.histogram("madpipe_planner_phase1_seconds",
                    obs::latency_bounds_seconds(),
                    "Phase-1 (Algorithm 1) wall time per plan"),
        r.histogram("madpipe_planner_phase2_seconds",
                    obs::latency_bounds_seconds(),
                    "Phase-2 (period search) wall time per plan"),
    };
  }();
  metrics.dp_probes.add(dp_probes);
  metrics.dp_states.add(dp_states);
  metrics.dp_state_visits.add(dp_state_visits);
  metrics.memo_probes.add(memo_probes);
  metrics.memo_child_lookups.add(memo_child_lookups);
  metrics.memo_hits.add(memo_hits);
  metrics.memo_max_load_factor.set(memo_max_load_factor);
  metrics.memo_rehashes.add(memo_rehashes);
  metrics.memo_rehashes_avoided.add(memo_rehashes_avoided);
  metrics.transition_lookups.add(transition_lookups);
  metrics.transition_hits.add(transition_hits);
  metrics.state_budget_hits.add(state_budget_hits);
  metrics.phase1_probes.add(phase1_probes);
  metrics.phase2_probes.add(phase2_probes);
  metrics.speculative_probes.add(speculative_probes);
  metrics.speculative_hits.add(speculative_hits);
  metrics.phase2_speculative_probes.add(phase2_speculative_probes);
  metrics.phase2_speculative_hits.add(phase2_speculative_hits);
  metrics.phase2_budget_hits.add(phase2_budget_hits);
  metrics.phase1_wall.observe(phase1_wall_seconds);
  metrics.phase2_wall.observe(phase2_wall_seconds);
}

}  // namespace madpipe
