#include "madpipe/search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/threading.hpp"

namespace madpipe {

namespace {

/// Exact-value cache key: probe results may only be reused for a target that
/// is bit-identical to the one the sequential search would request.
std::uint64_t target_key(Seconds target) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(target));
  std::memcpy(&bits, &target, sizeof(bits));
  return bits;
}

int auto_speculation(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min<unsigned>(4, std::max<unsigned>(hw, 1)));
}

/// Speculative DP-probe runner for Algorithm 1.
///
/// The bisection consumes probe results strictly in sequence, but each
/// iteration's *next* target is a deterministic function of the current
/// (lb, ub, target) and the probe outcome. Two outcomes lead to targets we
/// can predict without knowing dp.period exactly:
///
///   * infeasible (dp.period = ∞):  lb′ = max(lb, target), ub′ = ub
///   * feasible with dp.period ≤ lb: lb′ = lb, ub′ = min(ub, target)
///
/// (The remaining outcomes put dp.period itself into a bound, which no
/// speculation can guess.) When the search demands a target that is not yet
/// cached, we expand this two-outcome tree breadth-first into a batch of up
/// to W targets — using the very same floating-point expressions as the
/// real loop, so a predicted target is bit-identical to the demanded one —
/// and run the whole batch concurrently. Mispredicted probes are simply
/// never consumed; consumed results are identical to a sequential run for
/// every W.
///
/// Every probe of a batch runs under the incumbent as it stood at launch.
/// The incumbent only shrinks until the batch's probes are consumed, so the
/// launch-time bound is ≥ the consumption-time bound: each result is exact
/// below the latter, and the search loop canonicalizes anything at or above
/// it to +∞. A dominated probe leaves (lb, ub) where an infeasible one
/// would, so the two predictable outcomes above stay the only ones needed.
class ProbeRunner {
 public:
  ProbeRunner(const Chain& chain, const Platform& platform,
              const Phase1Options& options, int iterations_left_at_start)
      : chain_(chain),
        platform_(platform),
        options_(options),
        width_(auto_speculation(options.speculation)),
        budget_(iterations_left_at_start) {}

  /// Result for `target`, launching a speculative batch on a cache miss.
  /// (lb, ub) is the search state *before* this probe; `consumed` is the
  /// number of probes the search has consumed so far. A miss runs the whole
  /// batch under `incumbent`, the bound as it stands now: a cached result
  /// may thus carry an older, larger bound, and the caller must cut it
  /// against its current incumbent.
  const MadPipeDPResult& demand(Seconds target, Seconds lb, Seconds ub,
                                int consumed, Seconds incumbent) {
    const std::uint64_t key = target_key(target);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++stats_.speculative_hits;
      return it->second;
    }
    launch_batch(target, lb, ub, budget_ - consumed, incumbent);
    const auto it = cache_.find(key);
    MP_ENSURE(it != cache_.end(), "demanded probe missing from its batch");
    return it->second;
  }

  const PlannerStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    Seconds target;
    Seconds lb, ub;  ///< search state the probe would be issued from
    int depth;       ///< probes consumed before this one could be demanded
  };

  void launch_batch(Seconds target, Seconds lb, Seconds ub,
                    int iterations_left, Seconds incumbent) {
    // Breadth-first over the two predictable outcomes, bounded by the
    // speculation width and the iterations the search can still consume.
    std::vector<Pending> batch;
    batch.push_back({target, lb, ub, 0});
    for (std::size_t i = 0;
         i < batch.size() && batch.size() < static_cast<std::size_t>(width_);
         ++i) {
      const Pending cur = batch[i];
      if (cur.depth + 1 >= iterations_left) continue;
      // Outcome A: infeasible probe. lb ← max(lb, min(∞, T̂)) = max(lb, T̂).
      {
        const Seconds nlb = std::max(cur.lb, cur.target);
        const Seconds nub = cur.ub;
        maybe_push(batch, nlb, nub, cur.depth + 1);
      }
      if (batch.size() >= static_cast<std::size_t>(width_)) break;
      // Outcome B: feasible with dp.period ≤ lb. lb unchanged,
      // ub ← min(ub, max(dp.period, T̂)) = min(ub, T̂).
      {
        const Seconds nlb = cur.lb;
        const Seconds nub = std::min(cur.ub, cur.target);
        maybe_push(batch, nlb, nub, cur.depth + 1);
      }
    }

    std::vector<MadPipeDPResult> results(batch.size());
    const std::size_t workers =
        options_.workers != 0
            ? std::min<std::size_t>(options_.workers, batch.size())
            : batch.size();
    par::parallel_for(
        0, batch.size(),
        [&](std::size_t i) {
          results[i] = madpipe_dp(chain_, platform_, batch[i].target,
                                  options_.dp, incumbent);
        },
        workers);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      stats_.absorb(results[i].stats);
      cache_.emplace(target_key(batch[i].target), std::move(results[i]));
    }
    stats_.speculative_probes += static_cast<long long>(batch.size()) - 1;
  }

  void maybe_push(std::vector<Pending>& batch, Seconds lb, Seconds ub,
                  int depth) {
    if (ub <= lb * (1.0 + 1e-9)) return;  // the search would stop here
    const Seconds next = 0.5 * (lb + ub);  // the loop's exact expression
    const std::uint64_t key = target_key(next);
    if (cache_.count(key)) return;
    for (const Pending& p : batch) {
      if (target_key(p.target) == key) return;
    }
    batch.push_back({next, lb, ub, depth});
  }

  const Chain& chain_;
  const Platform& platform_;
  const Phase1Options& options_;
  const int width_;
  const int budget_;
  std::unordered_map<std::uint64_t, MadPipeDPResult> cache_;
  PlannerStats stats_;
};

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

  ProbeRunner runner(chain, platform, options, options.iterations);

  Seconds target = lb;
  for (int i = 0; i < options.iterations; ++i) {
    // Keeping every iterate's allocation needs every probe exact.
    const Seconds incumbent = options.keep_iterate_allocations
                                  ? std::numeric_limits<double>::infinity()
                                  : result.period;
    const MadPipeDPResult& dp = runner.demand(target, lb, ub, i, incumbent);
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
  result.stats = runner.stats();
  result.stats.phase1_probes = static_cast<long long>(result.trace.size());
  result.stats.phase1_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace madpipe
