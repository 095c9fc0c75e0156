// End-to-end MadPipe planner: phase 1 (Algorithm 1 over MadPipe-DP)
// produces an allocation, phase 2 schedules it — with the provably-optimal
// 1F1B* when the allocation happens to be contiguous, and with the cyclic
// branch-and-bound scheduler (our stand-in for the ILP of the paper's
// reference [1]) otherwise.
//
// Observability: plan_madpipe wraps itself and its phases in obs::Span
// scopes (`plan_madpipe`, `phase1_bisection`, `phase2_period_search`,
// `dp_probe`; category "planner") and publishes the run's PlannerStats
// into the obs::Registry on exit — both are no-ops costing a few ns when
// no sink is armed. See DESIGN.md §9.
#pragma once

#include <optional>

#include "core/plan.hpp"
#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"

namespace madpipe {

struct MadPipeOptions {
  Phase1Options phase1;
  PeriodSearchOptions phase2;
};

/// Plan `chain` on `platform` with MadPipe. Returns nullopt when no
/// allocation fits in memory at all.
std::optional<Plan> plan_madpipe(const Chain& chain, const Platform& platform,
                                 const MadPipeOptions& options = {});

}  // namespace madpipe
