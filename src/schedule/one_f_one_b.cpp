#include "schedule/one_f_one_b.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/memory_model.hpp"
#include "util/expect.hpp"

namespace madpipe {

namespace {
double tolerance_for(Seconds period) { return kTimeEps * std::max(period, 1.0); }
}  // namespace

std::vector<int> build_groups(const std::vector<PseudoStage>& pseudo,
                              Seconds period) {
  MP_EXPECT(!pseudo.empty(), "no pseudo-stages to group");
  MP_EXPECT(period > 0.0, "period must be positive");
  const double tol = tolerance_for(period);

  std::vector<int> group(pseudo.size(), 0);
  int current_group = 1;
  Seconds accumulated = 0.0;
  for (std::size_t idx = pseudo.size(); idx-- > 0;) {
    const Seconds load = pseudo[idx].total();
    if (accumulated + load <= period + tol) {
      accumulated += load;
    } else {
      ++current_group;
      accumulated = load;
    }
    group[idx] = current_group;
  }
  return group;
}

OneFOneBSchedule build_one_f_one_b(const Allocation& allocation,
                                   const Chain& chain,
                                   const Platform& platform, Seconds period) {
  MP_EXPECT(period > 0.0, "period must be positive");
  const std::vector<PseudoStage> pseudo =
      comm_transform(allocation, chain, platform);
  const double tol = tolerance_for(period);
  for (const PseudoStage& ps : pseudo) {
    MP_EXPECT(ps.total() <= period + tol,
              "period below a pseudo-stage load: no valid pattern exists");
  }

  const std::vector<int> group = build_groups(pseudo, period);
  const std::size_t count = pseudo.size();

  // Forward ops are back-to-back in virtual time across the whole chain.
  std::vector<Seconds> z_forward(count, 0.0);
  Seconds cursor = 0.0;
  for (std::size_t q = 0; q < count; ++q) {
    z_forward[q] = cursor;
    cursor += pseudo[q].forward_duration;
  }

  // Backward ops: within each group, B of the group's last pseudo-stage
  // starts right after its F, then the remaining B's run in sequence; all
  // carry an extra (g − 1) periods of index shift.
  std::vector<Seconds> z_backward(count, 0.0);
  std::size_t range_begin = 0;
  while (range_begin < count) {
    std::size_t range_end = range_begin;  // inclusive end of this group
    while (range_end + 1 < count && group[range_end + 1] == group[range_begin]) {
      ++range_end;
    }
    const int g = group[range_begin];
    Seconds c = z_forward[range_end] + pseudo[range_end].forward_duration;
    for (std::size_t q = range_end + 1; q-- > range_begin;) {
      z_backward[q] = c + static_cast<double>(g - 1) * period;
      c += pseudo[q].backward_duration;
    }
    range_begin = range_end + 1;
  }

  OneFOneBSchedule result;
  result.pattern.period = period;
  result.group_of_pseudo_stage = group;
  for (std::size_t q = 0; q < count; ++q) {
    const PseudoStage& ps = pseudo[q];
    if (ps.kind == PseudoStage::Kind::Compute) {
      const ResourceId proc =
          ResourceId::processor(allocation.processor_of(ps.stage));
      result.pattern.ops.push_back(PeriodicPattern::make_op(
          OpKind::Forward, ps.stage, proc, z_forward[q], ps.forward_duration,
          period));
      result.pattern.ops.push_back(PeriodicPattern::make_op(
          OpKind::Backward, ps.stage, proc, z_backward[q], ps.backward_duration,
          period));
    } else {
      const ResourceId link =
          ResourceId::link(allocation.processor_of(ps.stage),
                           allocation.processor_of(ps.stage + 1));
      result.pattern.ops.push_back(PeriodicPattern::make_op(
          OpKind::CommForward, ps.stage, link, z_forward[q],
          ps.forward_duration, period));
      result.pattern.ops.push_back(PeriodicPattern::make_op(
          OpKind::CommBackward, ps.stage, link, z_backward[q],
          ps.backward_duration, period));
    }
  }
  return result;
}

bool memory_feasible(const Allocation& allocation, const Chain& chain,
                     const Platform& platform, Seconds period) {
  const std::vector<PseudoStage> pseudo =
      comm_transform(allocation, chain, platform);
  const std::vector<int> group = build_groups(pseudo, period);
  const Partitioning& parts = allocation.partitioning();
  for (std::size_t q = 0; q < pseudo.size(); ++q) {
    if (pseudo[q].kind != PseudoStage::Kind::Compute) continue;
    const Stage& st = parts.stage(pseudo[q].stage);
    const Bytes needed = stage_memory(chain, st.first, st.last, group[q]);
    if (needed > platform.memory_per_processor * (1.0 + kTimeEps)) return false;
  }
  return true;
}

std::optional<Plan> plan_one_f_one_b(const Allocation& allocation,
                                     const Chain& chain,
                                     const Platform& platform) {
  const auto start_time = std::chrono::steady_clock::now();
  const std::vector<PseudoStage> pseudo =
      comm_transform(allocation, chain, platform);

  Seconds min_period = 0.0;
  for (const PseudoStage& ps : pseudo) {
    min_period = std::max(min_period, ps.total());
  }
  MP_ENSURE(min_period > 0.0, "degenerate allocation with zero load");

  // Group structure changes only where the period crosses a sum of
  // consecutive pseudo-stage loads: enumerate those breakpoints.
  std::vector<Seconds> candidates{min_period};
  for (std::size_t i = 0; i < pseudo.size(); ++i) {
    Seconds sum = 0.0;
    for (std::size_t j = i; j < pseudo.size(); ++j) {
      sum += pseudo[j].total();
      if (sum > min_period) candidates.push_back(sum);
    }
  }
  std::sort(candidates.begin(), candidates.end());

  for (const Seconds period : candidates) {
    if (!memory_feasible(allocation, chain, platform, period)) continue;
    OneFOneBSchedule schedule =
        build_one_f_one_b(allocation, chain, platform, period);
    Plan plan{"1f1b*", allocation, std::move(schedule.pattern),
              allocation.period_lower_bound(chain, platform), 0.0,
              PlannerStats{}};
    plan.planning_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time)
            .count();
    return plan;
  }
  return std::nullopt;  // even one in-flight batch per stage does not fit
}

}  // namespace madpipe
