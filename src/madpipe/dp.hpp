// MadPipe-DP (§4.2.2): for a fixed target period T̂, the memoized dynamic
// program over states (l, p, t_P, m_P, V) that builds the best
// non-contiguous allocation in which P−1 "normal" processors hold one stage
// each and one "special" processor may hold any number of stages.
//
//   T(l, p, t_P, m_P, V) = smallest achievable period allocating the first l
//   layers with p normal processors still free, given the special processor
//   already carries load t_P and memory m_P, and the delay between F_l and
//   B_l is at least V.
//
// Transitions pick the last stage k..l and send it to a normal processor
// (feasible if 𝓜(k,l,g) ≤ M) or to the special one (feasible if
// m_P + 𝓜(k,l,g−1) ≤ M — the deliberate underestimate of §4.2.1 that the
// phase-2 scheduler later corrects). Delays advance with the ⊕ operator.
//
// Continuous quantities are discretized on the grids of `Discretization`;
// the recursion is memoized on packed state keys, so only reachable states
// are ever evaluated. madpipe_dp is the one production engine (an iterative
// flat-memo solver); detail::madpipe_dp_reference keeps the original
// recursive solver as the reference it must match bit for bit.
#pragma once

#include <limits>
#include <optional>

#include "core/chain.hpp"
#include "core/partition.hpp"
#include "core/platform.hpp"
#include "madpipe/discretization.hpp"
#include "madpipe/planner_stats.hpp"

namespace madpipe {

/// Which communication term advances the delay in V′ = (V ⊕ U(k,l)) ⊕ C(·).
enum class DelayCommVariant {
  /// C(k−1) = 2·a_{k−1}/β — the communication actually crossing the
  /// boundary in front of the stage, consistent with the link-load terms of
  /// T_N/T_S in the paper. Default.
  BoundaryConsistent,
  /// C(k) = 2·a_k/β — the paper's literal formula in §4.2.2 (which we read
  /// as a typo; kept for comparison).
  PaperLiteral,
};

struct MadPipeDPOptions {
  Discretization grid;
  DelayCommVariant delay_comm_variant = DelayCommVariant::BoundaryConsistent;
  /// When false, the special processor is removed and all P processors are
  /// normal — MadPipe degrades to a memory-aware *contiguous* partitioner
  /// (the ablation of DESIGN.md).
  bool allow_special = true;
  /// Abort (treat as infeasible) past this many memoized states; a safety
  /// valve for extreme grids, never hit with the presets.
  std::size_t max_states = 80'000'000;
};

struct MadPipeDPResult {
  /// The achieved period T(L, P−1, 0, 0, 0); infinity when infeasible.
  Seconds period = 0.0;
  /// Reconstructed allocation (normal stages on processors 0..P−2 in chain
  /// order of first use; the special processor is P−1). Present iff feasible.
  std::optional<Allocation> allocation;
  /// True when at least one stage sits on the special processor.
  bool uses_special = false;
  std::size_t states_visited = 0;
  /// True when the max_states safety valve fired: unexplored states were
  /// treated as infeasible, so an infinite `period` means "truncated", not
  /// necessarily "infeasible".
  bool state_budget_hit = false;
  PlannerStats stats;
};

/// Run MadPipe-DP with target period `target_period` (T̂ > 0).
///
/// `incumbent` is an exclusive upper bound on the answers the caller can
/// use: Algorithm 1 passes the best period found so far, since a probe
/// landing at or above it changes neither the search interval nor the
/// incumbent. The result is exact whenever the true value lies below
/// `incumbent`; otherwise it is "period +∞, no allocation". Under a finite
/// bound, +∞ therefore means "infeasible or no better than the incumbent".
/// Every state's running best starts at the bound, so the dominated-candidate
/// pruning also drops the candidates that cannot beat it (fewer states, same
/// period and allocation below the bound).
MadPipeDPResult madpipe_dp(
    const Chain& chain, const Platform& platform, Seconds target_period,
    const MadPipeDPOptions& options = {},
    Seconds incumbent = std::numeric_limits<double>::infinity());

namespace detail {

/// The original recursive, unordered_map-memoized MadPipe-DP: the semantic
/// reference the equivalence tests hold madpipe_dp to. Same contract as
/// madpipe_dp (it solves unbounded and cuts the root value at `incumbent`),
/// bit-identical periods and allocations, far slower.
MadPipeDPResult madpipe_dp_reference(
    const Chain& chain, const Platform& platform, Seconds target_period,
    const MadPipeDPOptions& options = {},
    Seconds incumbent = std::numeric_limits<double>::infinity());

/// Test hooks for the state-budget "warn once" valve. The warning is
/// emitted at most once per process *per solver* (madpipe_dp and the
/// reference) through an atomic guard, so concurrent speculative probes
/// (and serve workers) produce exactly one log line; every probe still
/// reports `state_budget_hit` in its own result.
void reset_state_budget_warnings() noexcept;
long long state_budget_warning_count() noexcept;

}  // namespace detail

}  // namespace madpipe
