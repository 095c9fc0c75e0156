#include "cyclic/period_search.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/threading.hpp"

namespace madpipe {

namespace {

std::uint64_t period_key(Seconds period) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(period));
  std::memcpy(&bits, &period, sizeof(bits));
  return bits;
}

int auto_speculation(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min<unsigned>(4, std::max<unsigned>(hw, 1)));
}

/// Speculative branch-and-bound probe runner.
///
/// The bisection's control flow depends on each probe only through its
/// boolean feasibility, so the set of periods the search *may* probe next
/// forms an exact two-way outcome tree: from loop state (lb, ub, probes),
/// the next period is 0.5·(lb+ub), after which the state is (lb, mid) or
/// (mid, ub). On a cache miss we expand that tree breadth-first — with the
/// search's own floating-point expressions and stopping rules, so every
/// predicted period is bit-identical to a period the search could demand —
/// and run the batch of probes concurrently. Consumed results (and thus the
/// final pattern/period/probe count) match a sequential run for every W.
class ProbeRunner {
 public:
  ProbeRunner(const CyclicProblem& problem, const Allocation& allocation,
              const Chain& chain, const Platform& platform,
              const PeriodSearchOptions& options)
      : problem_(problem),
        allocation_(allocation),
        chain_(chain),
        platform_(platform),
        options_(options),
        width_(auto_speculation(options.speculation)) {}

  /// A node of the outcome tree: the period to probe plus enough state to
  /// predict both children. `phase` 0 = the initial ub probe, 1 = the lb
  /// probe, 2 = a midpoint probe of the main loop.
  struct Node {
    Seconds period;
    int phase;
    Seconds lb, ub;
    int probes;  ///< consumed count *after* this probe
  };

  const BBResult& demand(const Node& node, int* speculative_hits) {
    const std::uint64_t key = period_key(node.period);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++*speculative_hits;
      return it->second;
    }
    launch_batch(node);
    const auto it = cache_.find(key);
    MP_ENSURE(it != cache_.end(), "demanded probe missing from its batch");
    return it->second;
  }

  int speculative_probes() const noexcept { return speculative_probes_; }

 private:
  void children(const Node& node, std::vector<Node>& out) const {
    switch (node.phase) {
      case 0:
        // Feasible → probe lb next; infeasible → the search returns.
        out.push_back({node.lb, 1, node.lb, node.ub, node.probes + 1});
        return;
      case 1:
        // Feasible → optimal, return; infeasible → enter the loop.
        loop_child(node.lb, node.ub, node.probes, out);
        return;
      default:
        // mid feasible → (lb, mid); infeasible → (mid, ub).
        loop_child(node.lb, node.period, node.probes, out);
        loop_child(node.period, node.ub, node.probes, out);
        return;
    }
  }

  /// Append the loop's next probe from state (lb, ub, probes) — exactly the
  /// sequential loop's guard and midpoint expression.
  void loop_child(Seconds lb, Seconds ub, int probes,
                  std::vector<Node>& out) const {
    if (probes >= options_.max_probes ||
        ub - lb <= options_.relative_precision * ub) {
      return;
    }
    const Seconds mid = 0.5 * (lb + ub);
    out.push_back({mid, 2, lb, ub, probes + 1});
  }

  void launch_batch(const Node& root) {
    std::vector<Node> batch;
    batch.push_back(root);
    std::vector<Node> next;
    for (std::size_t i = 0;
         i < batch.size() && batch.size() < static_cast<std::size_t>(width_);
         ++i) {
      next.clear();
      children(batch[i], next);
      for (const Node& child : next) {
        if (batch.size() >= static_cast<std::size_t>(width_)) break;
        const std::uint64_t key = period_key(child.period);
        if (cache_.count(key)) continue;
        bool queued = false;
        for (const Node& pending : batch) {
          if (period_key(pending.period) == key) {
            queued = true;
            break;
          }
        }
        if (!queued) batch.push_back(child);
      }
    }

    std::vector<BBResult> results(batch.size());
    const std::size_t workers =
        options_.workers != 0
            ? std::min<std::size_t>(options_.workers, batch.size())
            : batch.size();
    par::parallel_for(
        0, batch.size(),
        [&](std::size_t i) {
          results[i] = bb_schedule(problem_, allocation_, chain_, platform_,
                                   batch[i].period, options_.bb);
        },
        workers);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      cache_.emplace(period_key(batch[i].period), std::move(results[i]));
    }
    speculative_probes_ += static_cast<int>(batch.size()) - 1;
  }

  const CyclicProblem& problem_;
  const Allocation& allocation_;
  const Chain& chain_;
  const Platform& platform_;
  const PeriodSearchOptions& options_;
  const int width_;
  std::unordered_map<std::uint64_t, BBResult> cache_;
  int speculative_probes_ = 0;
};

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

  ProbeRunner runner(problem, allocation, chain, platform, options);

  const auto probe = [&](const ProbeRunner::Node& node) -> bool {
    ++result.probes;
    const BBResult& bb = runner.demand(node, &result.speculative_hits);
    if (!bb.feasible && bb.node_budget_hit) {
      ++result.budget_hits;
      log::debug("cyclic probe at T=", node.period, " hit the node budget");
    }
    if (bb.feasible) {
      result.feasible = true;
      result.pattern = bb.pattern;
      result.period = node.period;
    }
    return bb.feasible;
  };
  const auto finish = [&] {
    span.arg("probes", result.probes);
    span.arg("budget_hits", result.budget_hits);
    span.arg("feasible", result.feasible ? 1 : 0);
    result.speculative_probes = runner.speculative_probes();
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
