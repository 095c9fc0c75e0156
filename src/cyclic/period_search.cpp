#include "cyclic/period_search.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/speculative_bisection.hpp"

namespace madpipe {

namespace {

/// A node of the period search's outcome tree
/// (util/speculative_bisection.hpp). The search's control flow depends on
/// each probe only through its boolean feasibility, so the tree predicts
/// every period the search may probe next exactly.
struct PeriodNode {
  Seconds at;  ///< the period to probe
  /// 0 = the initial ub probe, 1 = the lb probe, 2 = a midpoint probe of
  /// the main loop.
  int phase;
  Seconds lb, ub;
  int probes;  ///< consumed count *after* this probe
};

/// Append the loop's next probe from state (lb, ub, probes) — exactly the
/// sequential loop's guard and midpoint expression.
void loop_child(Seconds lb, Seconds ub, int probes,
                const PeriodSearchOptions& options,
                std::vector<PeriodNode>& out) {
  if (probes >= options.max_probes ||
      ub - lb <= options.relative_precision * ub) {
    return;
  }
  const Seconds mid = 0.5 * (lb + ub);
  out.push_back({mid, 2, lb, ub, probes + 1});
}

void period_children(const PeriodNode& node,
                     const PeriodSearchOptions& options,
                     std::vector<PeriodNode>& out) {
  switch (node.phase) {
    case 0:
      // Feasible → probe lb next; infeasible → the search returns.
      out.push_back({node.lb, 1, node.lb, node.ub, node.probes + 1});
      return;
    case 1:
      // Feasible → optimal, return; infeasible → enter the loop.
      loop_child(node.lb, node.ub, node.probes, options, out);
      return;
    default:
      // mid feasible → (lb, mid); infeasible → (mid, ub).
      loop_child(node.lb, node.at, node.probes, options, out);
      loop_child(node.at, node.ub, node.probes, options, out);
      return;
  }
}

}  // namespace

PeriodSearchResult find_min_period(const Allocation& allocation,
                                   const Chain& chain, const Platform& platform,
                                   Seconds lower_hint,
                                   const PeriodSearchOptions& options) {
  obs::Span span("phase2_period_search", obs::kCatPlanner);
  const auto t0 = std::chrono::steady_clock::now();
  const CyclicProblem problem =
      build_cyclic_problem(allocation, chain, platform);

  PeriodSearchResult result;
  Seconds lb = std::max(problem.min_period, lower_hint);
  Seconds ub = std::max(problem.serial_period, lb);

  par::SpeculativeBisection<PeriodNode, BBResult> runner(options.speculation);
  const auto children = [&](const PeriodNode& node,
                            std::vector<PeriodNode>& out) {
    period_children(node, options, out);
  };
  const auto run_bb = [&](const PeriodNode& node) {
    return bb_schedule(problem, allocation, chain, platform, node.at,
                       options.bb);
  };

  const auto probe = [&](const PeriodNode& node) -> bool {
    ++result.probes;
    const BBResult& bb = runner.demand(node, children, run_bb);
    if (!bb.feasible && bb.node_budget_hit) {
      ++result.budget_hits;
      log::debug("cyclic probe at T=", node.at, " hit the node budget");
    }
    if (bb.feasible) {
      result.feasible = true;
      result.pattern = bb.pattern;
      result.period = node.at;
    }
    return bb.feasible;
  };
  const auto finish = [&] {
    span.arg("probes", result.probes);
    span.arg("budget_hits", result.budget_hits);
    span.arg("feasible", result.feasible ? 1 : 0);
    result.speculative_probes = static_cast<int>(runner.speculative_probes());
    result.speculative_hits = static_cast<int>(runner.speculative_hits());
    for (const BBResult& bb : runner.results()) {
      result.bb_nodes += static_cast<long long>(bb.nodes_visited);
    }
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  // The serial period is schedulable whenever anything is: if it fails, the
  // allocation's activation floor alone exceeds memory.
  if (!probe({ub, 0, lb, ub, 1})) {
    finish();
    return result;
  }

  if (probe({lb, 1, lb, ub, 2})) {  // lower bound already feasible: optimal
    finish();
    return result;
  }

  // Invariant: lb infeasible, ub feasible (with its pattern retained).
  while (result.probes < options.max_probes &&
         ub - lb > options.relative_precision * ub) {
    const Seconds mid = 0.5 * (lb + ub);
    if (probe({mid, 2, lb, ub, result.probes + 1})) {
      ub = mid;
    } else {
      lb = mid;
    }
  }
  finish();
  return result;
}

}  // namespace madpipe
