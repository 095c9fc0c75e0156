#include "cyclic/bb_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "cyclic/free_gaps.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace madpipe {

namespace {

class Search {
 public:
  Search(const CyclicProblem& problem, const Allocation& allocation,
         const Chain& chain, const Platform& platform, Seconds period,
         const BBOptions& options)
      : problem_(problem),
        allocation_(allocation),
        chain_(chain),
        platform_(platform),
        period_(period),
        options_(options),
        eps_(1e-9 * period),
        gate_(problem, allocation, chain, platform, period) {
    // Dense resource index of every op, resolved once.
    std::map<ResourceId, int> resource_index;
    op_resource_.reserve(problem.ops.size());
    for (const CyclicOp& op : problem.ops) {
      op_resource_.push_back(
          resource_index
              .emplace(op.resource, static_cast<int>(resource_index.size()))
              .first->second);
    }
    std::vector<std::size_t> ops_on(resource_index.size(), 0);
    for (const int r : op_resource_) ++ops_on[r];
    occupied_.reserve(resource_index.size());
    for (const std::size_t count : ops_on) {
      occupied_.emplace_back(period, eps_);
      occupied_.back().reserve(count);
    }
    candidate_buffers_.resize(problem.ops.size());

    const int num_stages = allocation.partitioning().num_stages();
    forward_shift_.assign(num_stages, 0);
    stage_bytes_.resize(num_stages);
    for (int s = 0; s < num_stages; ++s) {
      stage_bytes_[s] =
          allocation.partitioning().stage_stored_activations(chain, s);
    }
    const int procs = allocation.num_processors();
    static_memory_.resize(procs);
    resident_floor_.assign(procs, 0.0);
    for (int p = 0; p < procs; ++p) {
      static_memory_[p] = allocation.static_memory(chain, p);
    }
  }

  BBResult run() {
    BBResult result;
    if (try_compact_construction(result) || dfs(0, 0.0, result)) {
      result.feasible = true;
    }
    result.nodes_visited = nodes_;
    result.node_budget_hit = budget_hit_;
    result.leaves = leaves_;
    result.leaves_validated = leaves_validated_;
    return result;
  }

 private:
  long long shift_of(Seconds z) const {
    return static_cast<long long>(std::floor(z / period_ + 1e-9));
  }

  /// Earliest z ≥ ready whose circle position lies in [w0, w0+width]
  /// (width ≥ 0; the window may wrap past T), where r0 = ready mod T and
  /// base = ready − r0.
  Seconds earliest_in_window(Seconds ready, Seconds r0, Seconds base,
                             Seconds w0, Seconds width) const {
    const Seconds w1 = w0 + width;
    if (w1 < period_ + eps_) {
      if (r0 <= w1 + eps_) return base + std::max(r0, w0);
      return base + period_ + w0;
    }
    // Wrapped window: [w0, T) ∪ [0, w1 − T].
    if (r0 >= w0 - eps_ || r0 <= (w1 - period_) + eps_) return ready;
    return base + w0;
  }

  /// Candidate virtual times of op `index`, written into that depth's
  /// buffer (deeper levels of the DFS use their own).
  const std::vector<Seconds>& candidates(std::size_t index, Seconds ready) {
    const CyclicOp& op = problem_.ops[index];
    std::vector<Seconds>& zs = candidate_buffers_[index];
    zs.clear();
    if (op.duration <= eps_) {
      zs.push_back(ready);
      return zs;
    }
    const Seconds r0 = circle_mod(ready, period_);
    const Seconds base = ready - r0;
    for (const FreeGapStack::Gap& gap : occupied_[op_resource_[index]].gaps()) {
      if (gap.duration + eps_ < op.duration) continue;
      const Seconds slack = gap.duration - op.duration;
      // Earliest fit in the gap (memory-cheapest), plus the left- and
      // right-aligned placements: packing an op against a gap edge keeps
      // the remaining free space contiguous for later ops, which
      // earliest-fit alone can fragment.
      zs.push_back(earliest_in_window(ready, r0, base, gap.position, slack));
      if (slack > eps_) {
        zs.push_back(earliest_in_window(ready, r0, base, gap.position, 0.0));
        const Seconds right = circle_mod(gap.position + slack, period_);
        zs.push_back(earliest_in_window(ready, r0, base, right, 0.0));
      }
    }
    std::sort(zs.begin(), zs.end());
    zs.erase(std::unique(zs.begin(), zs.end(),
                         [this](Seconds a, Seconds b) {
                           return std::abs(a - b) <= eps_;
                         }),
             zs.end());
    if (static_cast<int>(zs.size()) > options_.max_candidates_per_op) {
      zs.resize(static_cast<std::size_t>(options_.max_candidates_per_op));
    }
    return zs;
  }

  void place(std::size_t index, Seconds z) {
    const Seconds duration = problem_.ops[index].duration;
    if (duration <= eps_) return;
    occupied_[op_resource_[index]].place(circle_mod(z, period_), duration);
  }

  void unplace(std::size_t index) {
    if (problem_.ops[index].duration <= eps_) return;
    occupied_[op_resource_[index]].unplace();
  }

  bool dfs(std::size_t index, Seconds ready, BBResult& result) {
    if (index == problem_.ops.size()) {
      return try_leaf(gate_.admits_placed(), result);
    }
    if (nodes_ >= options_.max_nodes) {
      budget_hit_ = true;
      return false;
    }
    ++nodes_;

    const CyclicOp& op = problem_.ops[index];
    for (const Seconds z : candidates(index, ready)) {
      place(index, z);

      // Memory floor pruning once a stage's backward lands: in steady state
      // a stage whose shifts differ by δ = h_B − h_F keeps at least δ − 1
      // activations resident at all times (often δ).
      bool pruned = false;
      int touched_proc = -1;
      Bytes floor_delta = 0.0;
      if (op.kind == OpKind::Forward) {
        forward_shift_[op.stage] = shift_of(z);
      } else if (op.kind == OpKind::Backward) {
        const long long delta = shift_of(z) - forward_shift_[op.stage];
        if (delta < 0) {
          pruned = true;  // backward cannot trail forward by a negative lag
        } else {
          touched_proc = allocation_.processor_of(op.stage);
          floor_delta = static_cast<double>(std::max<long long>(0, delta - 1)) *
                        stage_bytes_[op.stage];
          resident_floor_[touched_proc] += floor_delta;
          if (static_memory_[touched_proc] + resident_floor_[touched_proc] >
              platform_.memory_per_processor * (1.0 + 1e-9)) {
            pruned = true;
          }
        }
      }

      if (!pruned) {
        gate_.place(index, z);
        if (dfs(index + 1, z + op.duration, result)) return true;
      }
      if (touched_proc >= 0) resident_floor_[touched_proc] -= floor_delta;
      unplace(index);
      if (budget_hit_) return false;
    }
    return false;
  }

  /// O(K) constructive attempt run before the search: pack every resource's
  /// ops back-to-back (in chain order) on the circle, then pick the minimal
  /// index shift satisfying each chain dependency. Resource exclusivity
  /// holds by construction whenever Σd ≤ T, and with unbounded shifts the
  /// chain is always satisfiable — so this certifies feasibility at the
  /// max-load period immediately whenever its (pipelining-deep) memory
  /// profile fits. When memory is tight it usually fails and the DFS takes
  /// over with its shift-minimizing placements.
  bool try_compact_construction(BBResult& result) {
    std::vector<Seconds> cursor(occupied_.size(), 0.0);
    std::vector<Seconds> zs(problem_.ops.size());
    Seconds ready = 0.0;
    for (std::size_t i = 0; i < problem_.ops.size(); ++i) {
      const CyclicOp& op = problem_.ops[i];
      Seconds& phi = cursor[op_resource_[i]];
      if (phi + op.duration > period_ * (1.0 + 1e-9)) return false;
      // Smallest z ≥ ready with z mod T == phi.
      const Seconds base = std::floor(ready / period_) * period_;
      Seconds z = base + phi;
      if (z < ready - eps_) z += period_;
      zs[i] = z;
      phi += op.duration;
      ready = z + op.duration;
    }
    return try_leaf(gate_.admits(zs), result);
  }

  /// The gate rejects exactly the leaves validate_pattern would reject for
  /// memory; the rest (normally the one accepted leaf) are verified in full.
  bool try_leaf(bool admitted, BBResult& result) {
    ++leaves_;
    if (!admitted) return false;
    ++leaves_validated_;
    PeriodicPattern pattern{period_, gate_.ops()};
    const ValidationResult check =
        validate_pattern(pattern, allocation_, chain_, platform_);
    if (!check.valid) return false;
    result.pattern = std::move(pattern);
    return true;
  }

  const CyclicProblem& problem_;
  const Allocation& allocation_;
  const Chain& chain_;
  const Platform& platform_;
  Seconds period_;
  BBOptions options_;
  double eps_;

  LeafMemoryGate gate_;

  std::vector<int> op_resource_;  ///< dense resource index per op
  std::vector<FreeGapStack> occupied_;  ///< per resource
  std::vector<std::vector<Seconds>> candidate_buffers_;  ///< one per depth
  std::vector<long long> forward_shift_;
  std::vector<Bytes> stage_bytes_;
  std::vector<Bytes> static_memory_;
  std::vector<Bytes> resident_floor_;

  std::size_t nodes_ = 0;
  std::size_t leaves_ = 0;
  std::size_t leaves_validated_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

LeafMemoryGate::LeafMemoryGate(const CyclicProblem& problem,
                               const Allocation& allocation,
                               const Chain& chain, const Platform& platform,
                               Seconds period)
    : problem_(problem),
      period_(period),
      tolerance_(ValidationOptions{}.tolerance),
      limit_(platform.memory_per_processor * (1.0 + tolerance_)),
      ops_(problem.ops.size()),
      z_(problem.ops.size(), 0.0),
      op_processor_(problem.ops.size(), -1) {
  const Partitioning& parts = allocation.partitioning();
  const int num_stages = parts.num_stages();
  std::vector<const PatternOp*> fwd(num_stages, nullptr);
  std::vector<const PatternOp*> bwd(num_stages, nullptr);
  for (std::size_t i = 0; i < problem.ops.size(); ++i) {
    const CyclicOp& op = problem.ops[i];
    if (op.kind == OpKind::Forward) fwd[op.stage] = &ops_[i];
    if (op.kind == OpKind::Backward) bwd[op.stage] = &ops_[i];
    if (op.kind == OpKind::Forward || op.kind == OpKind::Backward) {
      op_processor_[i] = allocation.processor_of(op.stage);
    }
  }
  const int procs = allocation.num_processors();
  processor_begin_.push_back(0);
  for (int p = 0; p < procs; ++p) {
    for (const int s : allocation.stages_on(p)) {
      MP_ENSURE(fwd[s] != nullptr && bwd[s] != nullptr,
                "cyclic problem misses a stage's F or B op");
      stages_.push_back(
          {fwd[s], bwd[s], parts.stage_stored_activations(chain, s)});
    }
    processor_begin_.push_back(stages_.size());
    static_memory_.push_back(allocation.static_memory(chain, p));
  }
  stale_.assign(procs, 1);
  fits_.assign(procs, 0);
}

bool LeafMemoryGate::sweep(std::size_t p) const {
  // validate_pattern fails when a processor's static memory plus its peak
  // in-flight bytes exceeds the limit. Addition is monotone, so that holds
  // exactly when some event's bytes already exceed it; the events are the
  // sweep's, 0 and every F/B completion instant (mod T).
  const SweepStage* stages = stages_.data() + processor_begin_[p];
  const std::size_t count = processor_begin_[p + 1] - processor_begin_[p];
  for (std::size_t e = 0; e <= 2 * count; ++e) {
    Seconds tau = 0.0;
    if (e > 0) {
      const PatternOp& op = (e % 2 == 1) ? *stages[(e - 1) / 2].forward
                                         : *stages[(e - 1) / 2].backward;
      tau = std::fmod(op.start + op.duration, period_);
    }
    const InflightAt at =
        inflight_at_event(stages, count, tau, period_, tolerance_);
    if (at.negative >= 0 || static_memory_[p] + at.bytes > limit_) {
      return false;
    }
  }
  return true;
}

bool LeafMemoryGate::admits(const std::vector<Seconds>& z) {
  MP_EXPECT(z.size() == ops_.size(), "one virtual time per problem op");
  z_ = z;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const CyclicOp& op = problem_.ops[i];
    ops_[i] = PeriodicPattern::make_op(op.kind, op.stage, op.resource, z[i],
                                       op.duration, period_);
  }
  // Every op may have changed, so no cached verdict survives this call.
  std::fill(stale_.begin(), stale_.end(), 1);
  for (std::size_t p = 0; p < static_memory_.size(); ++p) {
    if (!sweep(p)) return false;
  }
  return true;
}

void LeafMemoryGate::place(std::size_t index, Seconds z) {
  z_[index] = z;
  const int p = op_processor_[index];
  if (p < 0) return;  // comm ops are built once a placement is admitted
  const CyclicOp& op = problem_.ops[index];
  ops_[index] = PeriodicPattern::make_op(op.kind, op.stage, op.resource, z,
                                         op.duration, period_);
  stale_[p] = 1;
}

bool LeafMemoryGate::admits_placed() {
  for (std::size_t p = 0; p < stale_.size(); ++p) {
    if (stale_[p]) {
      fits_[p] = sweep(p) ? 1 : 0;
      stale_[p] = 0;
    }
    if (!fits_[p]) return false;
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (op_processor_[i] >= 0) continue;
    const CyclicOp& op = problem_.ops[i];
    ops_[i] = PeriodicPattern::make_op(op.kind, op.stage, op.resource, z_[i],
                                       op.duration, period_);
  }
  return true;
}

BBResult bb_schedule(const CyclicProblem& problem, const Allocation& allocation,
                     const Chain& chain, const Platform& platform,
                     Seconds period, const BBOptions& options) {
  MP_EXPECT(period > 0.0, "period must be positive");
  // Categorized "solver": this branch-and-bound is the phase-2 scheduling
  // solver (the paper's ILP stand-in).
  obs::Span span("bb_probe", obs::kCatSolver);
  Search search(problem, allocation, chain, platform, period, options);
  BBResult result = search.run();
  span.arg("nodes", static_cast<long long>(result.nodes_visited));
  span.arg("feasible", result.feasible ? 1 : 0);
  return result;
}

}  // namespace madpipe
