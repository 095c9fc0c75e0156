// Two solvers evaluate the MadPipe-DP recurrence (see dp.hpp): madpipe_dp
// runs FlatDpSolver, detail::madpipe_dp_reference runs ReferenceDpSolver.
//
//  * FlatDpSolver — the fast path. An explicit work-stack replaces the deep
//    recursion (L can be 4095), and the memo is a flat open-addressing table
//    with 16-byte entries: a child lookup that misses reserves the child's
//    entry in the same probe, and a finished state writes its value with
//    one more. Everything a transition determines that depends only on
//    (k, l, delay_idx) — stage/link loads, the advanced delay, g(k,l,V) and
//    both memory footprints — lives in one transition panel per
//    (l, delay_idx): an array over k = l, l−1, …, down to the layer's
//    static-memory break, filled in scan order as scans first reach each k
//    and shared with reconstruction. A state looks its panel up once, when
//    its frame is pushed, and its candidate scan indexes the panel by l − k.
//    Dominated candidates (whose load/link floor already reaches the best
//    value, which the strict-improvement rule can never accept) are pruned
//    before recursing; this changes which states are memoized but provably
//    not the achieved period or allocation. Every state's running best
//    starts at the caller's incumbent bound instead of +∞, so each memoized
//    value is min(bound, exact value) and the same pruning also drops every
//    candidate that cannot beat the incumbent (DESIGN.md §7).
//
//  * ReferenceDpSolver — the original recursive, unordered_map-memoized
//    implementation, kept verbatim as the semantic reference for the
//    golden-equivalence tests.
#include "madpipe/dp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/memory_model.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/flat_hash.hpp"
#include "util/logging.hpp"

namespace madpipe {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Packed DP state: l at 12 bits, p at 7, grid indices at 10 each (49 bits
/// total). Budgets: l ≤ 4095, p ≤ 64, grid indices ≤ 1023 each — sized for
/// LLM-scale chains (thousands of linearized transformer layers, P up to 64).
/// p needs the full 7 bits: with the special stage disabled the root state
/// carries p = P itself, not P - 1.
std::uint64_t pack_state(int l, int p, int load_idx, int mem_idx,
                         int delay_idx) {
  return (static_cast<std::uint64_t>(l) << 37) |
         (static_cast<std::uint64_t>(p) << 30) |
         (static_cast<std::uint64_t>(load_idx) << 20) |
         (static_cast<std::uint64_t>(mem_idx) << 10) |
         static_cast<std::uint64_t>(delay_idx);
}

/// Lower bound of 𝓜(k,l,g) over every g ≥ 0 and both placement options: the
/// always-resident weights + scratch term (activation and comm-buffer terms
/// are non-negative, and the special option only adds m_P ≥ 0 on top). The
/// bound grows monotonically as k falls, so once it exceeds M no smaller k
/// can be feasible and the candidate scans break there. Every skipped
/// candidate fails both options' memory checks in every engine, so the break
/// changes no memoized state, value, or reconstruction choice — it only
/// keeps the scans O(stage window) instead of O(L) on multi-GiB chains.
bool stage_static_memory_exceeds(const Chain& chain, int k, int l,
                                 Bytes limit) {
  return weights_memory(chain, k, l) + chain.scratch_sum(k, l) > limit;
}

/// Per-solver atomic once-guards for the state-budget warning. Solvers run
/// concurrently (speculative bisection probes, serve workers), so a plain
/// per-instance bool would emit one warning per probe; the exchange below
/// elects exactly one emitter per solver. log::write assembles each
/// line before a single locked write, so the elected line cannot interleave.
std::atomic<bool> g_flat_budget_warned{false};
std::atomic<bool> g_reference_budget_warned{false};
std::atomic<long long> g_budget_warnings_emitted{0};

void warn_state_budget_once(std::atomic<bool>& guard) {
  if (guard.exchange(true, std::memory_order_relaxed)) return;
  g_budget_warnings_emitted.fetch_add(1, std::memory_order_relaxed);
  log::warn("MadPipe-DP state budget exhausted; treating unexplored states "
            "as infeasible");
}

Seconds delay_upper_bound(const Chain& chain, const Platform& platform) {
  Seconds total = chain.total_compute();
  for (int j = 1; j < chain.length(); ++j) {
    total += platform.boundary_comm_time(chain, j);
  }
  return total;
}

/// Everything a transition taking stage k..l out of a state with delay
/// index delay_idx determines, independent of (p, load_idx, mem_idx).
struct TransitionEntry {
  Seconds stage_load = 0.0;
  Seconds link_load = 0.0;        ///< C(k−1), lower bound on the front link
  Bytes normal_memory = 0.0;      ///< 𝓜(k,l,g): the normal-processor cost
  Bytes special_stage_memory = 0.0;  ///< 𝓜(k,l,g−1): §4.2.1's underestimate
  int next_delay_idx = 0;
  int active_batches = 0;  ///< g(k,l,V)
};

/// The transition math of the flat engine, shared by its forward pass and
/// reconstruction so both rest on literally the same float expressions.
TransitionEntry compute_transition(const Chain& chain, const Platform& platform,
                                   const Grid& delay_grid, Seconds target,
                                   const MadPipeDPOptions& options, int k,
                                   int l, int delay_idx) {
  TransitionEntry entry;
  entry.stage_load = chain.compute_load(k, l);
  entry.link_load = k > 1 ? platform.boundary_comm_time(chain, k - 1) : 0.0;
  const Seconds delay = delay_grid.value(delay_idx);
  Seconds comm_for_delay = 0.0;
  switch (options.delay_comm_variant) {
    case DelayCommVariant::BoundaryConsistent:
      comm_for_delay = entry.link_load;
      break;
    case DelayCommVariant::PaperLiteral:
      comm_for_delay = platform.boundary_comm_time(chain, k);
      break;
  }
  const Seconds next_delay = delay_advance(
      delay_advance(delay, entry.stage_load, target), comm_for_delay, target);
  entry.next_delay_idx = delay_grid.index(next_delay, options.grid.rounding);
  entry.active_batches = activation_count(chain, k, l, delay, target);
  entry.normal_memory = stage_memory(chain, k, l, entry.active_batches);
  entry.special_stage_memory =
      stage_memory(chain, k, l, entry.active_batches - 1);
  return entry;
}

// ---------------------------------------------------------------------------
// Fast path
// ---------------------------------------------------------------------------

class FlatDpSolver {
 public:
  FlatDpSolver(const Chain& chain, const Platform& platform, Seconds target,
               const MadPipeDPOptions& options, Seconds bound)
      : chain_(chain),
        platform_(platform),
        target_(target),
        bound_(bound),
        options_(options),
        load_grid_(chain.total_compute(), options.grid.load_points),
        memory_grid_(platform.memory_per_processor, options.grid.memory_points),
        delay_grid_(delay_upper_bound(chain, platform),
                    options.grid.delay_points),
        k_floor_(static_cast<std::size_t>(chain.length()) + 1, 0),
        panel_of_(static_cast<std::size_t>(chain.length() + 1) *
                      static_cast<std::size_t>(options.grid.delay_points),
                  -1),
        special_stages_(options.allow_special ? panel_of_.size() : 0) {
    // reserve() (not the sizing constructor) so the avoided growth rehashes
    // are counted into the stats below.
    memo_.reserve(memo_size_heuristic());
  }

  MadPipeDPResult run() {
    MadPipeDPResult result;
    const int root_p = root_processors();
    result.period = solve_root(chain_.length(), root_p);
    result.states_visited = memo_.size();
    result.state_budget_hit = budget_hit_;
    // A root value at the bound only says "no better than the incumbent";
    // madpipe_dp reports it as +∞.
    if (result.period < bound_) {
      reconstruct(result);
    }
    stats_.dp_probes = 1;
    stats_.dp_states = static_cast<long long>(memo_.size());
    stats_.memo_max_load_factor = memo_.load_factor();
    stats_.memo_rehashes = static_cast<long long>(memo_.rehashes());
    stats_.memo_rehashes_avoided =
        static_cast<long long>(memo_.rehashes_avoided());
    stats_.state_budget_hits = budget_hit_ ? 1 : 0;
    result.stats = stats_;
    return result;
  }

 private:
  /// One suspended evaluation of T(l, p, load, mem, delay); l and delay
  /// are those of its panel. `k`/`opt` are the resume position in the
  /// candidate scan (opt 0 = normal option of k still to do, 1 = special
  /// option of k still to do).
  struct Frame {
    std::uint64_t key = 0;
    int p = 0, load_idx = 0, mem_idx = 0;
    int k = 0;
    int panel = 0;  ///< index into panels_ of this state's (l, delay_idx)
    std::uint8_t opt = 0;
    bool waiting = false;     ///< a child was pushed; consume last_value_
    double pending_floor = 0.0;  ///< max(load, link) of the suspended option
    double best = kInfinity;
  };

  int root_processors() const {
    return options_.allow_special ? platform_.processors - 1
                                  : platform_.processors;
  }

  /// compute_transition for one (l, delay_idx), over k = l, l−1, …,
  /// k_floor: `entries[l − k]` exists once some scan out of a state with this
  /// (l, delay_idx) has reached k.
  struct Panel {
    std::vector<TransitionEntry> entries;
    int l = 0;
    int delay_idx = 0;
    int k_floor = 1;  ///< the layer's static-memory break (l + 1 if none)
  };

  /// The special processor's base case for one (l, delay_idx): stage 1..l.
  struct SpecialStage {
    Seconds load = 0.0;
    Bytes memory = 0.0;  ///< 𝓜(1,l,g−1)
    bool known = false;
  };

  std::size_t memo_size_heuristic() const {
    // Reachable states per layer scale with the delay grid and, when the
    // special processor may absorb stages, with a handful of distinct
    // (load, mem) pairs. A ×8 factor left the table at ~0.26 occupancy, so
    // this guess is deliberately lean, and the busiest probes outgrow it:
    // sequential phase 1 on resnet101 P8 M4 at the paper grid peaks at a
    // load factor of 0.87 after 4 growth rehashes, and resnet101 P4 M8 at
    // 0.87 with none. The memo_rehashes counter shows what a change to this
    // guess does.
    const std::size_t per_layer =
        static_cast<std::size_t>(options_.grid.delay_points) *
        (options_.allow_special ? 4 : 1);
    const std::size_t guess = static_cast<std::size_t>(chain_.length()) *
                              static_cast<std::size_t>(std::max(
                                  root_processors(), 1)) *
                              per_layer;
    return std::min({guess, options_.max_states,
                     static_cast<std::size_t>(1) << 20});
  }

  /// The static-memory break of layer l, found once per layer: the
  /// smallest k such that no stage k′..l with k ≤ k′ ≤ l fails
  /// stage_static_memory_exceeds — exactly where every scan of the layer
  /// stops.
  int static_memory_break(int l) {
    int& k_floor = k_floor_[static_cast<std::size_t>(l)];
    if (k_floor == 0) {
      const Bytes limit = platform_.memory_per_processor;
      int k = l;
      while (k >= 1 && !stage_static_memory_exceeds(chain_, k, l, limit)) --k;
      k_floor = k + 1;
    }
    return k_floor;
  }

  /// Position of (l, delay_idx) in panel_of_ and special_stages_.
  std::size_t pair_index(int l, int delay_idx) const {
    return static_cast<std::size_t>(l) *
               static_cast<std::size_t>(options_.grid.delay_points) +
           static_cast<std::size_t>(delay_idx);
  }

  /// Index of the (l, delay_idx) panel, created empty on first use.
  int resolve_panel(int l, int delay_idx) {
    ++stats_.transition_lookups;
    int& index = panel_of_[pair_index(l, delay_idx)];
    if (index >= 0) {
      ++stats_.transition_hits;
      return index;
    }
    index = static_cast<int>(panels_.size());
    Panel panel;
    panel.l = l;
    panel.delay_idx = delay_idx;
    panel.k_floor = static_memory_break(l);
    panels_.push_back(std::move(panel));
    return index;
  }

  /// Entry l − k of a panel, computed when a scan first reaches k. Every
  /// scan walks k = l, l−1, … in order, so the entry is either stored or
  /// the next one to append. Returned by value: a child push may resolve a
  /// new panel and grow panels_.
  TransitionEntry transition(int panel_index, int k) {
    Panel& panel = panels_[static_cast<std::size_t>(panel_index)];
    const std::size_t i = static_cast<std::size_t>(panel.l - k);
    if (i == panel.entries.size()) {
      panel.entries.push_back(compute_transition(chain_, platform_,
                                                 delay_grid_, target_,
                                                 options_, k, panel.l,
                                                 panel.delay_idx));
    }
    return panel.entries[i];
  }

  double base_l0(int load_idx) const { return load_grid_.value(load_idx); }

  /// p == 0: all remaining layers become one stage on the special processor.
  /// Its load and 𝓜(1,l,g−1) depend on (l, delay_idx) alone and are
  /// computed once per pair.
  double special_base(int l, int load_idx, int mem_idx, int delay_idx) {
    if (!options_.allow_special) return kInfinity;
    SpecialStage& stage = special_stages_[pair_index(l, delay_idx)];
    if (!stage.known) {
      const Seconds delay = delay_grid_.value(delay_idx);
      const int g = activation_count(chain_, 1, l, delay, target_);
      stage.memory = stage_memory(chain_, 1, l, g - 1);
      stage.load = chain_.compute_load(1, l);
      stage.known = true;
    }
    const Bytes memory = memory_grid_.value(mem_idx) + stage.memory;
    if (memory > platform_.memory_per_processor) return kInfinity;
    return stage.load + load_grid_.value(load_idx);
  }

  void note_budget() {
    if (budget_hit_) return;
    budget_hit_ = true;
    warn_state_budget_once(g_flat_budget_warned);
  }

  /// Push a frame for a state whose memo placeholder the caller has just
  /// inserted. The placeholder keeps max_states accounting aligned with the
  /// recursive reference, which counted in-progress states; it is never
  /// read — a lookup can only reach a state with strictly smaller l than
  /// every in-progress one.
  void push_frame(std::uint64_t key, int l, int p, int load_idx, int mem_idx,
                  int delay_idx) {
    Frame frame;
    frame.key = key;
    frame.p = p;
    frame.load_idx = load_idx;
    frame.mem_idx = mem_idx;
    frame.k = l;
    frame.panel = resolve_panel(l, delay_idx);
    frame.best = bound_;
    stack_.push_back(frame);
    ++stats_.dp_state_visits;
  }

  /// Value of (l, p, load, mem, delay) if immediately available; otherwise
  /// pushes a frame for it and returns nullopt — the value arrives in
  /// last_value_ once that frame finalizes.
  std::optional<double> child_value(int l, int p, int load_idx, int mem_idx,
                                    int delay_idx) {
    if (l == 0) return base_l0(load_idx);
    if (p == 0) return special_base(l, load_idx, mem_idx, delay_idx);
    ++stats_.memo_child_lookups;
    const std::uint64_t key = pack_state(l, p, load_idx, mem_idx, delay_idx);
    if (memo_.size() >= options_.max_states) {
      // Full: a hit still answers, a miss is cut by the budget.
      if (const double* value = memo_.find(key)) {
        ++stats_.memo_hits;
        return *value;
      }
      note_budget();
      return kInfinity;
    }
    // One probe finds the value or reserves the child's placeholder.
    const auto [slot, inserted] = memo_.emplace(key, kInfinity);
    if (!inserted) {
      ++stats_.memo_hits;
      return *slot;
    }
    push_frame(key, l, p, load_idx, mem_idx, delay_idx);
    return std::nullopt;
  }

  double solve_root(int l, int p) {
    if (l == 0) return base_l0(0);
    if (p == 0) return special_base(l, 0, 0, 0);
    if (memo_.size() >= options_.max_states) {
      note_budget();
      return kInfinity;
    }
    const std::uint64_t key = pack_state(l, p, 0, 0, 0);
    memo_.emplace(key, kInfinity);
    ++stats_.memo_probes;
    push_frame(key, l, p, 0, 0, 0);
    while (!stack_.empty()) step();
    return last_value_;
  }

  /// Run the top frame until it suspends on a child or finalizes.
  void step() {
    // Index, not reference: child_value can push a frame and reallocate the
    // stack, so suspension writes must re-acquire through `fi`.
    const std::size_t fi = stack_.size() - 1;
    Frame& f = stack_[fi];
    if (f.waiting) {
      f.waiting = false;
      const double value = std::max(f.pending_floor, last_value_);
      if (value < f.best) f.best = value;
    }
    const Bytes limit = platform_.memory_per_processor;
    const int k_floor = panels_[static_cast<std::size_t>(f.panel)].k_floor;
    const Bytes mem_value = memory_grid_.value(f.mem_idx);
    const Seconds load_value = load_grid_.value(f.load_idx);
    while (f.k >= k_floor) {
      const TransitionEntry e = transition(f.panel, f.k);

      if (f.opt == 0) {
        // Option 1: stage k..l on a fresh normal processor.
        f.opt = 1;
        if (e.normal_memory <= limit) {
          const double floor = std::max(e.stage_load, e.link_load);
          if (floor < f.best) {  // dominated candidates can never win
            const auto sub = child_value(f.k - 1, f.p - 1, f.load_idx,
                                         f.mem_idx, e.next_delay_idx);
            if (!sub.has_value()) {
              stack_[fi].pending_floor = floor;
              stack_[fi].waiting = true;
              return;
            }
            const double value = std::max(floor, *sub);
            if (value < f.best) f.best = value;
          }
        }
      }

      // Option 2: stage k..l joins the special processor (memory counted
      // with g−1, the deliberate underestimate of §4.2.1).
      const int k = f.k;
      f.opt = 0;
      --f.k;
      if (!options_.allow_special) {
        // Only normal stages exist and U(k,l) grows as k falls: once it
        // reaches the incumbent nothing below can win.
        if (e.stage_load >= f.best) break;
        continue;
      }
      const Bytes special_memory = mem_value + e.special_stage_memory;
      if (special_memory > limit) continue;
      const Seconds special_load =
          load_grid_.snap(load_value + e.stage_load, options_.grid.rounding);
      const double floor = std::max(special_load, e.link_load);
      if (floor >= f.best) continue;
      const int next_load_idx =
          load_grid_.index(special_load, options_.grid.rounding);
      const int next_mem_idx = memory_grid_.index(
          std::min(special_memory, limit), options_.grid.rounding);
      const auto sub = child_value(k - 1, f.p, next_load_idx, next_mem_idx,
                                   e.next_delay_idx);
      if (!sub.has_value()) {
        stack_[fi].pending_floor = floor;
        stack_[fi].waiting = true;
        return;
      }
      const double value = std::max(floor, *sub);
      if (value < f.best) f.best = value;
    }

    // Candidate scan finished: overwrite the placeholder and pop.
    *memo_.find(f.key) = f.best;
    ++stats_.memo_probes;
    last_value_ = f.best;
    stack_.pop_back();
  }

  /// Memoized value during reconstruction; a miss means the state budget
  /// dropped the state, which the forward pass also saw as infeasible.
  double lookup_value(int l, int p, int load_idx, int mem_idx,
                      int delay_idx) {
    if (l == 0) return base_l0(load_idx);
    if (p == 0) return special_base(l, load_idx, mem_idx, delay_idx);
    ++stats_.memo_child_lookups;
    if (const double* value =
            memo_.find(pack_state(l, p, load_idx, mem_idx, delay_idx))) {
      ++stats_.memo_hits;
      return *value;
    }
    return kInfinity;
  }

  void reconstruct(MadPipeDPResult& result) {
    // Walk the winning choices from the root. The memo only stores values,
    // so each step re-derives the argmin with the same candidate order,
    // pruning, starting bound and strict-improvement rule as the forward
    // pass — every lookup it needs is either memoized or a base case, and
    // the transition panels are shared, so this costs one candidate scan
    // per stage.
    std::vector<Stage> stages_reversed;
    std::vector<bool> special_reversed;

    int l = chain_.length();
    int p = root_processors();
    int load_idx = 0;
    int mem_idx = 0;
    int delay_idx = 0;
    const Bytes limit = platform_.memory_per_processor;

    while (l > 0) {
      if (p == 0) {
        stages_reversed.push_back(Stage{1, l});
        special_reversed.push_back(true);
        break;
      }
      double best = bound_;
      int best_k = -1;
      bool best_special = false;
      int best_next_load = load_idx;
      int best_next_mem = mem_idx;
      int best_next_delay = delay_idx;
      const int panel = resolve_panel(l, delay_idx);
      const int k_floor = panels_[static_cast<std::size_t>(panel)].k_floor;
      for (int k = l; k >= k_floor; --k) {
        const TransitionEntry e = transition(panel, k);
        if (e.normal_memory <= limit) {
          const double floor = std::max(e.stage_load, e.link_load);
          if (floor < best) {
            const double sub =
                lookup_value(k - 1, p - 1, load_idx, mem_idx,
                             e.next_delay_idx);
            const double value = std::max(floor, sub);
            if (value < best) {
              best = value;
              best_k = k;
              best_special = false;
              best_next_delay = e.next_delay_idx;
            }
          }
        }
        if (!options_.allow_special) {
          if (e.stage_load >= best) break;
          continue;
        }
        const Bytes special_memory =
            memory_grid_.value(mem_idx) + e.special_stage_memory;
        if (special_memory > limit) continue;
        const Seconds special_load =
            load_grid_.snap(load_grid_.value(load_idx) + e.stage_load,
                            options_.grid.rounding);
        const double floor = std::max(special_load, e.link_load);
        if (floor >= best) continue;
        const int next_load_idx =
            load_grid_.index(special_load, options_.grid.rounding);
        const int next_mem_idx = memory_grid_.index(
            std::min(special_memory, limit), options_.grid.rounding);
        const double sub = lookup_value(k - 1, p, next_load_idx,
                                        next_mem_idx, e.next_delay_idx);
        const double value = std::max(floor, sub);
        if (value < best) {
          best = value;
          best_k = k;
          best_special = true;
          best_next_load = next_load_idx;
          best_next_mem = next_mem_idx;
          best_next_delay = e.next_delay_idx;
        }
      }
      MP_ENSURE(best_k >= 1, "reconstruction fell off the memoized path");

      stages_reversed.push_back(Stage{best_k, l});
      special_reversed.push_back(best_special);
      if (best_special) {
        load_idx = best_next_load;
        mem_idx = best_next_mem;
      } else {
        --p;
      }
      delay_idx = best_next_delay;
      l = best_k - 1;
    }

    std::vector<Stage> stages(stages_reversed.rbegin(), stages_reversed.rend());
    std::vector<bool> special(special_reversed.rbegin(),
                              special_reversed.rend());

    // Normal stages take processors 0,1,... in chain order; the special
    // processor is P−1 (it exists even if unused).
    const int normal_count = root_processors();
    std::vector<int> procs(stages.size());
    int next_normal = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      if (special[s]) {
        procs[s] = platform_.processors - 1;
        result.uses_special = true;
      } else {
        MP_ENSURE(next_normal < normal_count,
                  "more normal stages than normal processors");
        procs[s] = next_normal++;
      }
    }
    result.allocation.emplace(Partitioning(chain_, std::move(stages)),
                              std::move(procs), platform_.processors);
  }

  const Chain& chain_;
  const Platform& platform_;
  Seconds target_;
  Seconds bound_;  ///< exclusive incumbent bound; +∞ when unbounded
  MadPipeDPOptions options_;
  Grid load_grid_;
  Grid memory_grid_;
  Grid delay_grid_;
  util::FlatHash64<double> memo_;
  std::vector<int> k_floor_;   ///< per layer; 0 until the layer's first panel
  std::vector<int> panel_of_;  ///< l · delay_points + delay_idx → panel, or −1
  std::vector<Panel> panels_;
  std::vector<SpecialStage> special_stages_;  ///< indexed like panel_of_
  std::vector<Frame> stack_;
  double last_value_ = kInfinity;
  bool budget_hit_ = false;
  PlannerStats stats_;
};

// ---------------------------------------------------------------------------
// Reference engine (the original recursive implementation)
// ---------------------------------------------------------------------------

struct MemoEntry {
  double period = kInfinity;
  std::int16_t stage_start = -1;  ///< k of the winning transition
  std::int8_t to_special = 0;     ///< 1 when the winning stage goes special
};

class ReferenceDpSolver {
 public:
  ReferenceDpSolver(const Chain& chain, const Platform& platform,
                    Seconds target, const MadPipeDPOptions& options)
      : chain_(chain),
        platform_(platform),
        target_(target),
        options_(options),
        load_grid_(chain.total_compute(), options.grid.load_points),
        memory_grid_(platform.memory_per_processor, options.grid.memory_points),
        delay_grid_(delay_upper_bound(chain, platform),
                    options.grid.delay_points) {}

  MadPipeDPResult run() {
    MadPipeDPResult result;
    const int root_p = options_.allow_special ? platform_.processors - 1
                                              : platform_.processors;
    result.period = solve(chain_.length(), root_p, 0, 0, 0);
    result.states_visited = memo_.size();
    result.state_budget_hit = budget_hit_;
    if (std::isfinite(result.period)) {
      reconstruct(result);
    }
    stats_.dp_probes = 1;
    stats_.dp_states = static_cast<long long>(memo_.size());
    stats_.dp_state_visits = static_cast<long long>(memo_.size());
    stats_.state_budget_hits = budget_hit_ ? 1 : 0;
    result.stats = stats_;
    return result;
  }

 private:
  /// Everything a transition taking stage k..l out of state (l,·,·,·,iV)
  /// determines: next delay index, feasibility and memory of both targets.
  struct TransitionInfo {
    Seconds stage_load = 0.0;
    Seconds link_load = 0.0;  ///< C(k−1), the lower bound on the front link
    int next_delay_idx = 0;
    int active_batches = 0;  ///< g(k,l,V)
  };

  TransitionInfo transition(int k, int l, int delay_idx) const {
    TransitionInfo info;
    info.stage_load = chain_.compute_load(k, l);
    info.link_load =
        k > 1 ? platform_.boundary_comm_time(chain_, k - 1) : 0.0;
    const Seconds delay = delay_grid_.value(delay_idx);
    Seconds comm_for_delay = 0.0;
    switch (options_.delay_comm_variant) {
      case DelayCommVariant::BoundaryConsistent:
        comm_for_delay = info.link_load;
        break;
      case DelayCommVariant::PaperLiteral:
        comm_for_delay = platform_.boundary_comm_time(chain_, k);
        break;
    }
    const Seconds next_delay = delay_advance(
        delay_advance(delay, info.stage_load, target_), comm_for_delay,
        target_);
    info.next_delay_idx = delay_grid_.index(next_delay, options_.grid.rounding);
    info.active_batches = activation_count(chain_, k, l, delay, target_);
    return info;
  }

  double solve(int l, int p, int load_idx, int mem_idx, int delay_idx) {
    if (l == 0) return load_grid_.value(load_idx);

    if (p == 0) {
      if (!options_.allow_special) return kInfinity;
      // All remaining layers become one stage on the special processor.
      const Seconds delay = delay_grid_.value(delay_idx);
      const int g = activation_count(chain_, 1, l, delay, target_);
      const Bytes memory = memory_grid_.value(mem_idx) +
                           stage_memory(chain_, 1, l, g - 1);
      if (memory > platform_.memory_per_processor) return kInfinity;
      return chain_.compute_load(1, l) + load_grid_.value(load_idx);
    }

    const std::uint64_t key = pack_state(l, p, load_idx, mem_idx, delay_idx);
    ++stats_.memo_probes;
    if (const auto it = memo_.find(key); it != memo_.end()) {
      ++stats_.memo_hits;
      return it->second.period;
    }
    if (memo_.size() >= options_.max_states) {
      if (!budget_hit_) {
        budget_hit_ = true;
        warn_state_budget_once(g_reference_budget_warned);
      }
      return kInfinity;
    }
    // Reserve the slot first: cycles are impossible (l strictly decreases),
    // but this keeps the map stable across the recursive calls below.
    memo_.emplace(key, MemoEntry{});
    ++stats_.memo_probes;

    MemoEntry best;
    const Bytes limit = platform_.memory_per_processor;
    for (int k = l; k >= 1; --k) {
      if (stage_static_memory_exceeds(chain_, k, l, limit)) break;
      const TransitionInfo info = transition(k, l, delay_idx);

      // Option 1: stage k..l on a fresh normal processor.
      const Stage stage{k, l};
      if (stage_memory(chain_, stage.first, stage.last, info.active_batches) <=
          limit) {
        const double sub =
            solve(k - 1, p - 1, load_idx, mem_idx, info.next_delay_idx);
        const double value =
            std::max({info.stage_load, info.link_load, sub});
        if (value < best.period) {
          best = {value, static_cast<std::int16_t>(k), 0};
        }
      }

      if (!options_.allow_special) continue;
      // Option 2: stage k..l joins the special processor (memory counted
      // with g−1, the deliberate underestimate of §4.2.1).
      const Bytes special_memory =
          memory_grid_.value(mem_idx) +
          stage_memory(chain_, stage.first, stage.last,
                       info.active_batches - 1);
      if (special_memory <= limit) {
        const Seconds special_load =
            load_grid_.snap(load_grid_.value(load_idx) + info.stage_load,
                            options_.grid.rounding);
        const int next_load_idx =
            load_grid_.index(special_load, options_.grid.rounding);
        const int next_mem_idx =
            memory_grid_.index(std::min(special_memory, limit),
                               options_.grid.rounding);
        const double sub =
            solve(k - 1, p, next_load_idx, next_mem_idx, info.next_delay_idx);
        const double value = std::max({special_load, info.link_load, sub});
        if (value < best.period) {
          best = {value, static_cast<std::int16_t>(k), 1};
        }
      }
    }

    memo_[key] = best;
    ++stats_.memo_probes;
    return best.period;
  }

  void reconstruct(MadPipeDPResult& result) {
    // Walk the winning choices from the root, re-deriving the follow-up
    // state exactly as solve() did.
    std::vector<Stage> stages_reversed;
    std::vector<bool> special_reversed;

    int l = chain_.length();
    int p = options_.allow_special ? platform_.processors - 1
                                   : platform_.processors;
    int load_idx = 0;
    int mem_idx = 0;
    int delay_idx = 0;

    while (l > 0) {
      if (p == 0) {
        stages_reversed.push_back(Stage{1, l});
        special_reversed.push_back(true);
        break;
      }
      const auto it =
          memo_.find(pack_state(l, p, load_idx, mem_idx, delay_idx));
      MP_ENSURE(it != memo_.end() && it->second.stage_start >= 1,
                "reconstruction fell off the memoized path");
      const MemoEntry& entry = it->second;
      const int k = entry.stage_start;
      const TransitionInfo info = transition(k, l, delay_idx);

      stages_reversed.push_back(Stage{k, l});
      special_reversed.push_back(entry.to_special != 0);
      if (entry.to_special != 0) {
        const Seconds special_load =
            load_grid_.snap(load_grid_.value(load_idx) + info.stage_load,
                            options_.grid.rounding);
        const Bytes special_memory =
            memory_grid_.value(mem_idx) +
            stage_memory(chain_, k, l, info.active_batches - 1);
        load_idx = load_grid_.index(special_load, options_.grid.rounding);
        mem_idx = memory_grid_.index(
            std::min(special_memory, platform_.memory_per_processor),
            options_.grid.rounding);
      } else {
        --p;
      }
      delay_idx = info.next_delay_idx;
      l = k - 1;
    }

    std::vector<Stage> stages(stages_reversed.rbegin(), stages_reversed.rend());
    std::vector<bool> special(special_reversed.rbegin(),
                              special_reversed.rend());

    // Normal stages take processors 0,1,... in chain order; the special
    // processor is P−1 (it exists even if unused).
    const int normal_count = options_.allow_special
                                 ? platform_.processors - 1
                                 : platform_.processors;
    std::vector<int> procs(stages.size());
    int next_normal = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      if (special[s]) {
        procs[s] = platform_.processors - 1;
        result.uses_special = true;
      } else {
        MP_ENSURE(next_normal < normal_count,
                  "more normal stages than normal processors");
        procs[s] = next_normal++;
      }
    }
    result.allocation.emplace(Partitioning(chain_, std::move(stages)),
                              std::move(procs), platform_.processors);
  }

  const Chain& chain_;
  const Platform& platform_;
  Seconds target_;
  MadPipeDPOptions options_;
  Grid load_grid_;
  Grid memory_grid_;
  Grid delay_grid_;
  std::unordered_map<std::uint64_t, MemoEntry> memo_;
  bool budget_hit_ = false;
  PlannerStats stats_;
};

void expect_valid_probe(const Chain& chain, const Platform& platform,
                        Seconds target_period, const MadPipeDPOptions& options,
                        Seconds incumbent) {
  platform.validate();
  MP_EXPECT(target_period > 0.0, "target period must be positive");
  MP_EXPECT(incumbent > 0.0, "incumbent bound must be positive");
  MP_EXPECT(chain.length() <= 4095, "chain too long for the packed DP state");
  MP_EXPECT(platform.processors <= 64,
            "packed DP state supports at most 64 processors");
  MP_EXPECT(options.grid.load_points <= 1024 &&
                options.grid.memory_points <= 1024 &&
                options.grid.delay_points <= 1024,
            "grids must fit the packed state (≤ 1024 points each)");
}

/// Report a root value at or above the bound as "+∞, no allocation".
void cut_at_bound(MadPipeDPResult& result, Seconds incumbent) {
  if (!(result.period < incumbent)) {
    result.period = kInfinity;
    result.allocation.reset();
    result.uses_special = false;
  }
}

}  // namespace

MadPipeDPResult madpipe_dp(const Chain& chain, const Platform& platform,
                           Seconds target_period,
                           const MadPipeDPOptions& options,
                           Seconds incumbent) {
  expect_valid_probe(chain, platform, target_period, options, incumbent);
  obs::Span span("dp_probe", obs::kCatPlanner);
  FlatDpSolver solver(chain, platform, target_period, options, incumbent);
  MadPipeDPResult result = solver.run();
  cut_at_bound(result, incumbent);
  span.arg("states", static_cast<long long>(result.states_visited));
  span.arg("budget_hit", result.state_budget_hit ? 1 : 0);
  return result;
}

namespace detail {

MadPipeDPResult madpipe_dp_reference(const Chain& chain,
                                     const Platform& platform,
                                     Seconds target_period,
                                     const MadPipeDPOptions& options,
                                     Seconds incumbent) {
  expect_valid_probe(chain, platform, target_period, options, incumbent);
  ReferenceDpSolver solver(chain, platform, target_period, options);
  MadPipeDPResult result = solver.run();
  // The reference solves unbounded and applies the bound to the root value.
  cut_at_bound(result, incumbent);
  return result;
}

void reset_state_budget_warnings() noexcept {
  g_flat_budget_warned.store(false, std::memory_order_relaxed);
  g_reference_budget_warned.store(false, std::memory_order_relaxed);
  g_budget_warnings_emitted.store(0, std::memory_order_relaxed);
}

long long state_budget_warning_count() noexcept {
  return g_budget_warnings_emitted.load(std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace madpipe
