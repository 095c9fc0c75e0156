// Randomized cross-checks against brute force: on small random instances,
// the dynamic programs must match exhaustive enumeration, and the phase-2
// branch-and-bound must schedule wherever an exhaustive placement search
// does. Seeds are fixed — failures are reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "core/memory_model.hpp"
#include "cyclic/bb_scheduler.hpp"
#include "cyclic/period_search.hpp"
#include "pipedream/pipedream.hpp"
#include "schedule/gpipe.hpp"
#include "schedule/one_f_one_b.hpp"
#include "sim/event_sim.hpp"

namespace madpipe {
namespace {

Chain random_chain(unsigned seed, int length) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dur(1.0, 12.0);
  std::uniform_real_distribution<double> size(5.0, 120.0);
  std::vector<Layer> layers;
  for (int i = 0; i < length; ++i) {
    layers.push_back(Layer{"f" + std::to_string(i), ms(dur(rng)),
                           ms(dur(rng)), size(rng) * MB, size(rng) * MB});
  }
  return Chain("fuzz" + std::to_string(seed), size(rng) * MB,
               std::move(layers));
}

/// All contiguous partitionings of `chain` into at most `max_stages` stages.
std::vector<std::vector<Stage>> all_partitionings(const Chain& chain,
                                                  int max_stages) {
  const int L = chain.length();
  std::vector<std::vector<Stage>> result;
  for (int mask = 0; mask < (1 << (L - 1)); ++mask) {
    std::vector<Stage> stages;
    int first = 1;
    for (int l = 1; l <= L; ++l) {
      if (l == L || (mask & (1 << (l - 1)))) {
        stages.push_back({first, l});
        first = l + 1;
      }
    }
    if (static_cast<int>(stages.size()) <= max_stages) {
      result.push_back(std::move(stages));
    }
  }
  return result;
}

class PipeDreamFuzz : public ::testing::TestWithParam<unsigned> {};

// The PipeDream DP must equal brute force over every contiguous
// partitioning under the same load and memory rules.
TEST_P(PipeDreamFuzz, MatchesBruteForce) {
  const unsigned seed = GetParam();
  const Chain c = random_chain(seed, 6 + seed % 3);
  const Platform p{3, (0.8 + (seed % 5) * 0.4) * GB, 12 * GB};

  double best = std::numeric_limits<double>::infinity();
  for (const auto& stages : all_partitionings(c, p.processors)) {
    const int n = static_cast<int>(stages.size());
    bool feasible = true;
    double value = 0.0;
    for (int s = 0; s < n && feasible; ++s) {
      if (stage_memory(c, stages[s].first, stages[s].last, n - s) >
          p.memory_per_processor) {
        feasible = false;
        break;
      }
      value = std::max(value, c.compute_load(stages[s].first, stages[s].last));
      if (s + 1 < n) {
        value = std::max(value, p.boundary_comm_time(c, stages[s].last));
      }
    }
    if (feasible) best = std::min(best, value);
  }

  const auto result = pipedream_partition(c, p);
  if (!std::isfinite(best)) {
    EXPECT_FALSE(result.has_value());
  } else {
    ASSERT_TRUE(result.has_value());
    EXPECT_NEAR(result->dp_period, best, best * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipeDreamFuzz, ::testing::Range(100u, 130u));

/// Exhaustive placement oracle for the cyclic problems of tiny chains. It
/// searches the variable space of the periodic-scheduling ILP of the paper's
/// reference [1] (§4.3), which phase 2 replaces with branch-and-bound:
///   * every op starts inside one period, t ∈ [0, T − d];
///   * index shifts are nondecreasing along the chain, h_0 = 0, h ≤ 12;
///   * every same-resource pair picks one circular order bit.
/// Ops are placed in chain order. The constraints t_v − t_u ≥ w are kept as
/// a matrix of longest paths over the ops plus a time origin; a new edge
/// that closes a positive cycle cuts the branch. A branch is also cut when
/// a processor's activation floor, its memory at τ = 0, exceeds M. A stage
/// whose F and B both end inside the period holds exactly h_B − h_F batches
/// there, so the floor is static + Σ ā_s·(h_B − h_F). A leaf starts every op
/// as early as its constraints allow and is accepted only if validate_pattern
/// passes, so memory is checked exactly rather than by the ILP's worst case.
///
/// A shift step above 1 between chain neighbours never helps: the chain
/// edge it relaxes is already implied by t ∈ [0, T − d], and it only raises
/// in-flight counts. The search therefore tries steps of 0 and 1 only.
class PlacementOracle {
 public:
  static constexpr int kMaxShift = 12;

  PlacementOracle(const CyclicProblem& problem, const Allocation& allocation,
                  const Chain& chain, const Platform& platform, Seconds period)
      : problem_(problem),
        allocation_(allocation),
        chain_(chain),
        platform_(platform),
        period_(period),
        ops_(problem.ops.size()),
        nodes_(ops_ + 1),
        shift_(ops_, 0),
        forward_(allocation.partitioning().num_stages(), -1),
        backward_(forward_.size(), -1) {
    for (std::size_t i = 0; i < ops_; ++i) {
      const CyclicOp& op = problem.ops[i];
      const int index = static_cast<int>(i);
      if (op.kind == OpKind::Forward) forward_[op.stage] = index;
      if (op.kind == OpKind::Backward) backward_[op.stage] = index;
    }
    // One decision list in chain order: op i's shift step, then one order
    // bit per earlier op on its resource.
    for (std::size_t i = 0; i < ops_; ++i) {
      decisions_.push_back({i, kShiftStep});
      for (std::size_t j = 0; j < i; ++j) {
        const CyclicOp& a = problem.ops[j];
        const CyclicOp& b = problem.ops[i];
        if (a.resource == b.resource &&
            (a.duration > 0.0 || b.duration > 0.0)) {
          decisions_.push_back({i, j});
        }
      }
    }
    const double tolerance = ValidationOptions{}.tolerance;
    memory_limit_ = platform.memory_per_processor * (1.0 + tolerance);
    cycle_eps_ = kTimeEps * period;
  }

  /// A pattern that passes validate_pattern, or nullopt when none exists in
  /// the space searched.
  std::optional<PeriodicPattern> search() {
    levels_.assign((decisions_.size() + 1) * nodes_ * nodes_, kNone);
    double* root = levels_.data();
    for (std::size_t v = 0; v < nodes_; ++v) root[v * nodes_ + v] = 0.0;
    for (std::size_t i = 0; i < ops_; ++i) {  // 0 ≤ t_i ≤ T − d_i
      if (!add_edge(root, kOrigin, node(i), 0.0) ||
          !add_edge(root, node(i), kOrigin,
                    problem_.ops[i].duration - period_)) {
        return std::nullopt;
      }
    }
    if (!descend(0)) return std::nullopt;
    return std::move(found_);
  }

 private:
  static constexpr std::size_t kShiftStep = static_cast<std::size_t>(-1);
  static constexpr std::size_t kOrigin = 0;
  static constexpr double kNone = -std::numeric_limits<double>::infinity();

  struct Decision {
    std::size_t op;
    std::size_t partner;  ///< earlier same-resource op, or kShiftStep
  };

  std::size_t node(std::size_t op) const { return op + 1; }
  double* level(std::size_t depth) {
    return levels_.data() + depth * nodes_ * nodes_;
  }

  /// Add t_v − t_u ≥ w to the longest-path matrix `d`; false when it closes
  /// a positive cycle (the constraints have no solution).
  bool add_edge(double* d, std::size_t u, std::size_t v, double w) const {
    if (d[v * nodes_ + u] + w > cycle_eps_) return false;
    for (std::size_t a = 0; a < nodes_; ++a) {
      const double to_u = d[a * nodes_ + u];
      if (to_u == kNone) continue;
      for (std::size_t b = 0; b < nodes_; ++b) {
        double& ab = d[a * nodes_ + b];
        ab = std::max(ab, to_u + w + d[v * nodes_ + b]);
      }
    }
    return true;
  }

  /// Activation floor of the ops placed so far, up to and including op
  /// `last`: an open stage (F placed, B not) counts at least h_last − h_F.
  bool floor_fits(std::size_t last) const {
    const Partitioning& parts = allocation_.partitioning();
    for (int p = 0; p < allocation_.num_processors(); ++p) {
      Bytes bytes = allocation_.static_memory(chain_, p);
      for (const int s : allocation_.stages_on(p)) {
        const auto f = static_cast<std::size_t>(forward_[s]);
        const auto b = static_cast<std::size_t>(backward_[s]);
        if (f > last) continue;
        const int h_b = b <= last ? shift_[b] : shift_[last];
        bytes += parts.stage_stored_activations(chain_, s) * (h_b - shift_[f]);
      }
      if (bytes > memory_limit_) return false;
    }
    return true;
  }

  bool descend(std::size_t depth) {
    if (depth == decisions_.size()) return accept(level(depth));
    const Decision& decision = decisions_[depth];
    const std::size_t i = decision.op;
    for (int choice = 0; choice < 2; ++choice) {
      double* d = level(depth + 1);
      std::copy_n(level(depth), nodes_ * nodes_, d);
      bool feasible = true;
      if (decision.partner == kShiftStep) {
        if (i == 0 && choice == 1) break;  // h_0 = 0
        if (i > 0) {
          shift_[i] = shift_[i - 1] + choice;
          if (shift_[i] > kMaxShift) break;
          // Chain: z_i ≥ z_{i−1} + d_{i−1}.
          feasible = add_edge(d, node(i - 1), node(i),
                              problem_.ops[i - 1].duration - choice * period_);
        }
        feasible = feasible && floor_fits(i);
      } else {
        // choice 0: the partner j precedes i on the circle, 1: i precedes j.
        const std::size_t j = decision.partner;
        const std::size_t first = choice == 0 ? j : i;
        const std::size_t second = choice == 0 ? i : j;
        feasible =
            add_edge(d, node(first), node(second),
                     problem_.ops[first].duration) &&
            add_edge(d, node(second), node(first),
                     problem_.ops[second].duration - period_);
      }
      if (feasible && descend(depth + 1)) return true;
    }
    return false;
  }

  /// Start every op at its earliest time and verify the pattern exactly.
  bool accept(const double* d) {
    PeriodicPattern pattern;
    pattern.period = period_;
    for (std::size_t i = 0; i < ops_; ++i) {
      const CyclicOp& op = problem_.ops[i];
      const Seconds z = d[kOrigin * nodes_ + node(i)] + shift_[i] * period_;
      pattern.ops.push_back(PeriodicPattern::make_op(
          op.kind, op.stage, op.resource, z, op.duration, period_));
    }
    if (!validate_pattern(pattern, allocation_, chain_, platform_).valid) {
      return false;
    }
    found_ = std::move(pattern);
    return true;
  }

  const CyclicProblem& problem_;
  const Allocation& allocation_;
  const Chain& chain_;
  const Platform& platform_;
  Seconds period_;
  std::size_t ops_;
  std::size_t nodes_;  ///< ops plus the time origin (node 0)
  std::vector<int> shift_;
  std::vector<int> forward_;   ///< op index of each stage's F
  std::vector<int> backward_;  ///< op index of each stage's B
  std::vector<Decision> decisions_;
  /// One longest-path matrix per search depth.
  std::vector<double> levels_;
  Bytes memory_limit_ = 0.0;
  double cycle_eps_ = 0.0;
  std::optional<PeriodicPattern> found_;
};

/// Run the oracle and bb_schedule at `period`. Whenever the oracle finds a
/// pattern, the B&B must find one too; every pattern either returns must
/// pass the exact verifier, and its ASAP simulation can only be faster.
/// Returns whether the oracle found a pattern.
bool expect_oracle_implies_bb(const CyclicProblem& problem,
                              const Allocation& allocation, const Chain& c,
                              const Platform& p, Seconds period,
                              const std::string& label) {
  const std::optional<PeriodicPattern> oracle =
      PlacementOracle(problem, allocation, c, p, period).search();
  const BBResult bb = bb_schedule(problem, allocation, c, p, period);
  if (oracle) {
    EXPECT_TRUE(bb.feasible) << label;
  }
  for (const PeriodicPattern* pattern :
       {oracle ? &*oracle : nullptr, bb.feasible ? &bb.pattern : nullptr}) {
    if (pattern == nullptr) continue;
    const auto check = validate_pattern(*pattern, allocation, c, p);
    EXPECT_TRUE(check.valid) << label;
    const auto sim = simulate_pattern(*pattern, allocation, c, p, {24});
    EXPECT_LE(sim.steady_period, period * (1.0 + 1e-6)) << label;
  }
  return oracle.has_value();
}

class SchedulerAgreementFuzz : public ::testing::TestWithParam<unsigned> {};

// On random non-contiguous allocations: whenever the exhaustive oracle
// schedules at some period, the B&B must too, and both patterns validate.
// At M = 1 GB (seed % 4 == 0) no cell has a pattern; every other cell does.
TEST_P(SchedulerAgreementFuzz, OracleImpliesBBAndBothValidate) {
  const unsigned seed = GetParam();
  const Chain c = random_chain(seed, 6);
  const Platform p{2, (1.0 + (seed % 4) * 0.8) * GB, 12 * GB};
  // Allocation shape: [1,a] on 0, [a+1,b] on 1, [b+1,6] on 0.
  const int a = 1 + static_cast<int>(seed % 3);
  const int b = a + 1 + static_cast<int>((seed / 3) % (5 - a));
  Allocation allocation(Partitioning(c, {{1, a}, {a + 1, b}, {b + 1, 6}}),
                        {0, 1, 0}, 2);
  const CyclicProblem problem = build_cyclic_problem(allocation, c, p);

  for (const double factor : {1.05, 1.3, 1.8}) {
    const std::string label =
        "seed " + std::to_string(seed) + " factor " + std::to_string(factor);
    const bool found = expect_oracle_implies_bb(
        problem, allocation, c, p, problem.min_period * factor, label);
    EXPECT_EQ(found, seed % 4 != 0) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerAgreementFuzz,
                         ::testing::Range(200u, 220u));

Chain small_chain() {
  std::vector<Layer> layers{
      {"l1", ms(4), ms(8), 2 * MB, 30 * MB},
      {"l2", ms(6), ms(12), 4 * MB, 20 * MB},
      {"l3", ms(5), ms(10), 2 * MB, 25 * MB},
      {"l4", ms(3), ms(6), 1 * MB, 10 * MB},
  };
  return Chain("small", 40 * MB, std::move(layers));
}

// A contiguous two-stage pipeline from its resource bound upward.
TEST(PlacementOracle, ContiguousPipelineFromResourceBound) {
  const Chain c = small_chain();
  const Platform p{2, 10 * GB, 12 * GB};
  const Allocation a = make_contiguous_allocation(c, {{1, 2}, {3, 4}}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  for (const double factor : {1.0, 1.15, 1.4, 2.0}) {
    expect_oracle_implies_bb(problem, a, c, p, problem.min_period * factor,
                             "factor " + std::to_string(factor));
  }
}

// A special processor holding the first and last stage schedules at the
// serial period.
TEST(PlacementOracle, NonContiguousSpecialProcessorAtSerialPeriod) {
  const Chain c = small_chain();
  const Platform p{2, 10 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 1}, {2, 3}, {4, 4}}), {1, 0, 1}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  EXPECT_TRUE(
      expect_oracle_implies_bb(problem, a, c, p, problem.serial_period, ""));
}

// Static memory plus the activation floor exceed M: no pattern exists.
TEST(PlacementOracle, MemoryBudgetBlocksSchedules) {
  const Chain c = make_uniform_chain(4, ms(5), ms(5), MB, 600 * MB, 600 * MB);
  const Platform p{2, 2 * GB, 12 * GB};
  Allocation a(Partitioning(c, {{1, 1}, {2, 3}, {4, 4}}), {0, 1, 0}, 2);
  const CyclicProblem problem = build_cyclic_problem(a, c, p);
  EXPECT_FALSE(PlacementOracle(problem, a, c, p, problem.serial_period)
                   .search()
                   .has_value());
  EXPECT_FALSE(bb_schedule(problem, a, c, p, problem.serial_period).feasible);
}

class GPipeFuzz : public ::testing::TestWithParam<unsigned> {};

// plan_gpipe balances under its memory model; brute force over contiguous
// partitionings with the same period formula must not beat it.
TEST_P(GPipeFuzz, NearBruteForce) {
  const unsigned seed = GetParam();
  const Chain c = random_chain(seed, 6 + seed % 3);
  const Platform p{3, (0.8 + (seed % 4) * 0.5) * GB, 12 * GB};
  const int m = 4;

  double best = std::numeric_limits<double>::infinity();
  for (const auto& stages : all_partitionings(c, p.processors)) {
    bool feasible = true;
    for (const Stage& st : stages) {
      if (gpipe_stage_memory(c, st.first, st.last, m) >
          p.memory_per_processor) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    const Allocation allocation =
        make_contiguous_allocation(c, stages, p.processors);
    best = std::min(best, gpipe_period(allocation, c, p, m));
  }

  const auto plan = plan_gpipe(c, p, {m});
  if (!std::isfinite(best)) {
    EXPECT_FALSE(plan.has_value());
    return;
  }
  ASSERT_TRUE(plan.has_value());
  // The planner balances the bottleneck rather than the exact makespan, so
  // allow a modest optimality gap — but never infeasibility or nonsense.
  EXPECT_LE(plan->period, best * 1.25) << "seed " << seed;
  EXPECT_GE(plan->period, best * (1.0 - 1e-9)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GPipeFuzz, ::testing::Range(300u, 320u));

class OneFOneBFuzzMin : public ::testing::TestWithParam<unsigned> {};

// plan_one_f_one_b claims minimality via breakpoint enumeration; verify by
// dense scanning: no period strictly below the returned one may be
// memory-feasible.
TEST_P(OneFOneBFuzzMin, BreakpointScanIsMinimal) {
  const unsigned seed = GetParam();
  const Chain c = random_chain(seed, 8);
  const Platform p{4, (1.0 + (seed % 4) * 0.6) * GB, 12 * GB};
  std::vector<Stage> stages{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  const Allocation allocation = make_contiguous_allocation(c, stages, 4);
  const auto plan = plan_one_f_one_b(allocation, c, p);
  if (!plan) GTEST_SKIP();
  const Seconds optimum = plan->period();
  // Below the max pseudo-stage load no pattern exists regardless of memory,
  // so only probe the range where memory is the binding constraint.
  Seconds max_load = 0.0;
  for (const PseudoStage& ps : comm_transform(allocation, c, p)) {
    max_load = std::max(max_load, ps.total());
  }
  if (optimum <= max_load * 1.001) GTEST_SKIP() << "load-bound instance";
  for (double f = 0.90; f < 0.999; f += 0.01) {
    if (optimum * f <= max_load) continue;
    EXPECT_FALSE(memory_feasible(allocation, c, p, optimum * f))
        << "seed " << seed << " factor " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneFOneBFuzzMin, ::testing::Range(400u, 425u));

}  // namespace
}  // namespace madpipe
