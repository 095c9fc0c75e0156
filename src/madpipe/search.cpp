#include "madpipe/search.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/speculative_bisection.hpp"

namespace madpipe {

namespace {

/// A node of Algorithm 1's outcome tree (util/speculative_bisection.hpp):
/// the target to probe and the search state it would be probed from.
struct Phase1Node {
  Seconds at;      ///< the target T̂
  Seconds lb, ub;  ///< search state before the probe
  int consumed;    ///< probes the search consumed before this one
};

/// The targets the search may demand after `node`. Two outcomes lead to
/// targets predictable without knowing dp.period exactly:
///
///   * infeasible (dp.period = ∞):  lb′ = max(lb, target), ub′ = ub
///   * feasible with dp.period ≤ lb: lb′ = lb, ub′ = min(ub, target)
///
/// (The remaining outcomes put dp.period itself into a bound, which no
/// speculation can guess.) Every probe of a batch runs under the incumbent
/// as it stood at launch. The incumbent only shrinks until the batch's
/// probes are consumed, so the launch-time bound is ≥ the consumption-time
/// bound: each result is exact below the latter, and the search loop
/// canonicalizes anything at or above it to +∞. A dominated probe leaves
/// (lb, ub) where an infeasible one would, so the two predictable outcomes
/// above stay the only ones needed.
void phase1_children(const Phase1Node& node, int iterations,
                     std::vector<Phase1Node>& out) {
  if (node.consumed + 1 >= iterations) return;  // no iteration left for it
  // The loop's own stop rule and midpoint expression, so a predicted target
  // is bit-identical to the one the loop would demand.
  const auto push = [&](Seconds lb, Seconds ub) {
    if (ub <= lb * (1.0 + 1e-9)) return;  // the search would stop here
    out.push_back({0.5 * (lb + ub), lb, ub, node.consumed + 1});
  };
  // Outcome A: infeasible probe. lb ← max(lb, min(∞, T̂)) = max(lb, T̂).
  push(std::max(node.lb, node.at), node.ub);
  // Outcome B: feasible with dp.period ≤ lb. lb unchanged,
  // ub ← min(ub, max(dp.period, T̂)) = min(ub, T̂).
  push(node.lb, std::min(node.ub, node.at));
}

}  // namespace

Phase1Result madpipe_phase1(const Chain& chain, const Platform& platform,
                            const Phase1Options& options) {
  platform.validate();
  MP_EXPECT(options.iterations >= 1, "need at least one search iteration");
  obs::Span span("phase1_bisection", obs::kCatPlanner);
  const auto t0 = std::chrono::steady_clock::now();

  Seconds lb = chain.total_compute() / platform.processors;
  Seconds ub = chain.total_compute();
  for (int j = 1; j < chain.length(); ++j) {
    ub += platform.boundary_comm_time(chain, j);
  }

  Phase1Result result;
  result.period = std::numeric_limits<double>::infinity();

  par::SpeculativeBisection<Phase1Node, MadPipeDPResult> runner(
      options.speculation);
  const auto children = [&](const Phase1Node& node,
                            std::vector<Phase1Node>& out) {
    phase1_children(node, options.iterations, out);
  };

  Seconds target = lb;
  for (int i = 0; i < options.iterations; ++i) {
    // Keeping every iterate's allocation needs every probe exact.
    const Seconds incumbent = options.keep_iterate_allocations
                                  ? std::numeric_limits<double>::infinity()
                                  : result.period;
    // A miss runs the whole batch under today's incumbent; a cached result
    // may thus carry an older, larger bound.
    const MadPipeDPResult& dp = runner.demand(
        {target, lb, ub, i}, children, [&](const Phase1Node& node) {
          return madpipe_dp(chain, platform, node.at, options.dp, incumbent);
        });
    // The probe may have run under an older, larger incumbent: a value at
    // or above today's counts as +∞, so the trace does not depend on the
    // speculation width.
    const Seconds period = dp.period < incumbent
                               ? dp.period
                               : std::numeric_limits<double>::infinity();
    const Seconds achieved = std::max(period, target);
    result.trace.push_back(
        {target, achieved,
         options.keep_iterate_allocations ? dp.allocation : std::nullopt});
    log::debug("phase1 iteration ", i, ": target=", target,
               " achieved=", achieved);

    if (achieved < result.period) {
      result.period = achieved;
      result.allocation = dp.allocation;
      result.uses_special = dp.uses_special;
    }

    lb = std::max(lb, std::min(period, target));
    ub = std::min(ub, achieved);
    if (ub <= lb * (1.0 + 1e-9)) break;  // search interval collapsed
    target = 0.5 * (lb + ub);
  }
  span.arg("probes", static_cast<long long>(result.trace.size()));
  for (const MadPipeDPResult& dp : runner.results()) {
    result.stats.absorb(dp.stats);
  }
  result.stats.speculative_probes = runner.speculative_probes();
  result.stats.speculative_hits = runner.speculative_hits();
  result.stats.phase1_probes = static_cast<long long>(result.trace.size());
  result.stats.phase1_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace madpipe
