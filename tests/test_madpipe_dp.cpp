#include "madpipe/dp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "core/memory_model.hpp"
#include "util/expect.hpp"

namespace madpipe {
namespace {

MadPipeDPOptions fine_grid() {
  MadPipeDPOptions options;
  options.grid = Discretization{201, 41, 101, RoundingMode::Nearest};
  return options;
}

TEST(MadPipeDP, UniformChainUnlimitedMemory) {
  const Chain c = make_uniform_chain(8, ms(5), ms(10), MB, MB, MB);
  const Platform p{4, 1e6 * GB, 1e6 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 4, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  // Perfect balance: 2 layers per processor, 30 ms.
  EXPECT_NEAR(result.period, ms(30), ms(0.5));
}

TEST(MadPipeDP, AllocationCoversChainExactly) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), MB, 10 * MB, MB);
  const Platform p{3, 10 * GB, 12 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 3, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  const Partitioning& parts = result.allocation->partitioning();
  EXPECT_EQ(parts.stage(0).first, 1);
  EXPECT_EQ(parts.stage(parts.num_stages() - 1).last, 10);
}

TEST(MadPipeDP, NormalProcessorsHoldOneStage) {
  const Chain c = make_uniform_chain(12, ms(2), ms(4), MB, 20 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 4, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  for (int proc = 0; proc + 1 < p.processors; ++proc) {
    EXPECT_LE(result.allocation->stages_on(proc).size(), 1u) << proc;
  }
}

TEST(MadPipeDP, InfeasibleWhenWeightsDoNotFit) {
  const Chain c = make_uniform_chain(4, ms(5), ms(5), GB, MB, MB);
  const Platform p{2, GB, 12 * GB};
  const auto result = madpipe_dp(c, p, ms(20), fine_grid());
  EXPECT_FALSE(result.allocation.has_value());
  EXPECT_TRUE(std::isinf(result.period));
}

TEST(MadPipeDP, PeriodNonIncreasingInTargetPeriod) {
  // §4.2.3: MadPipe-DP(T̂) is non-increasing in T̂.
  const Chain c = make_uniform_chain(10, ms(2), ms(4), 10 * MB, 150 * MB, MB);
  const Platform p{4, 1.8 * GB, 12 * GB};
  double previous = std::numeric_limits<double>::infinity();
  for (double factor = 0.25; factor <= 3.0; factor *= 1.3) {
    const auto result =
        madpipe_dp(c, p, factor * c.total_compute() / 4, fine_grid());
    EXPECT_LE(result.period, previous * (1.0 + 1e-6)) << factor;
    previous = result.period;
  }
}

TEST(MadPipeDP, PeriodAtLeastLoadLowerBound) {
  const Chain c = make_uniform_chain(9, ms(3), ms(6), MB, 30 * MB, MB);
  const Platform p{3, 4 * GB, 12 * GB};
  const auto result = madpipe_dp(c, p, c.total_compute() / 3, fine_grid());
  ASSERT_TRUE(result.allocation.has_value());
  EXPECT_GE(result.period, c.total_compute() / 3 - 1e-9);
}

TEST(MadPipeDP, MatchesBruteForceOnTinyInstance) {
  // Exhaustive check of the recurrence on a 4-layer, 2-processor instance:
  // enumerate every partitioning and normal/special assignment, evaluate it
  // with the same (undiscretized) cost rules, and compare.
  const Chain c = make_uniform_chain(4, ms(4), ms(8), 5 * MB, 25 * MB, MB);
  const Platform p{2, 0.6 * GB, 12 * GB};
  const Seconds target = 0.6 * c.total_compute();

  // Brute force: stages are contiguous; assignment maps each stage to the
  // one normal processor (at most one stage) or the special one.
  double best = std::numeric_limits<double>::infinity();
  const int L = c.length();
  for (int mask = 0; mask < (1 << (L - 1)); ++mask) {
    std::vector<Stage> stages;
    int first = 1;
    for (int l = 1; l <= L; ++l) {
      if (l == L || (mask & (1 << (l - 1)))) {
        stages.push_back({first, l});
        first = l + 1;
      }
    }
    const int n = static_cast<int>(stages.size());
    for (int assign = 0; assign < (1 << n); ++assign) {
      int normals = 0;
      for (int s = 0; s < n; ++s) {
        if (!(assign & (1 << s))) ++normals;
      }
      if (normals > 1) continue;  // P−1 = 1 normal processor

      // Evaluate with exact delays, walking from the end of the chain.
      Seconds delay = 0.0;
      Seconds special_load = 0.0;
      Bytes special_memory = 0.0;
      double period = 0.0;
      bool feasible = true;
      for (int s = n - 1; s >= 0 && feasible; --s) {
        const Stage& st = stages[static_cast<std::size_t>(s)];
        const int g = activation_count(c, st.first, st.last, delay, target);
        const Seconds link =
            st.first > 1 ? p.boundary_comm_time(c, st.first - 1) : 0.0;
        if (assign & (1 << s)) {  // special
          special_load += c.compute_load(st.first, st.last);
          special_memory += stage_memory(c, st.first, st.last, g - 1);
          if (special_memory > p.memory_per_processor) feasible = false;
          period = std::max({period, special_load, link});
        } else {  // normal
          if (stage_memory(c, st.first, st.last, g) > p.memory_per_processor) {
            feasible = false;
          }
          period = std::max(
              {period, c.compute_load(st.first, st.last), link});
        }
        delay = delay_advance(
            delay_advance(delay, c.compute_load(st.first, st.last), target),
            link, target);
      }
      period = std::max(period, special_load);
      if (feasible) best = std::min(best, period);
    }
  }

  MadPipeDPOptions options;
  options.grid = Discretization{801, 401, 801, RoundingMode::Nearest};
  const auto result = madpipe_dp(c, p, target, options);
  ASSERT_TRUE(std::isfinite(best));
  EXPECT_NEAR(result.period, best, best * 0.02);
}

TEST(MadPipeDP, SpecialDisabledGivesContiguous) {
  const Chain c = make_uniform_chain(10, ms(2), ms(4), MB, 50 * MB, MB);
  const Platform p{3, 2 * GB, 12 * GB};
  MadPipeDPOptions options = fine_grid();
  options.allow_special = false;
  const auto result = madpipe_dp(c, p, c.total_compute() / 3, options);
  ASSERT_TRUE(result.allocation.has_value());
  EXPECT_TRUE(result.allocation->contiguous());
  EXPECT_FALSE(result.uses_special);
}

TEST(MadPipeDP, ValidatesInputs) {
  const Chain c = make_uniform_chain(4, ms(1), ms(1), MB, MB, MB);
  const Platform p{2, GB, 12 * GB};
  EXPECT_THROW(madpipe_dp(c, p, 0.0), ContractViolation);
  MadPipeDPOptions options;
  options.grid.load_points = 5000;
  EXPECT_THROW(madpipe_dp(c, p, ms(1), options), ContractViolation);
}

TEST(MadPipeDP, DelayVariantsBothProduceValidAllocations) {
  const Chain c = make_uniform_chain(8, ms(3), ms(6), MB, 80 * MB, MB);
  const Platform p{3, 1.5 * GB, 12 * GB};
  for (const auto variant : {DelayCommVariant::BoundaryConsistent,
                             DelayCommVariant::PaperLiteral}) {
    MadPipeDPOptions options = fine_grid();
    options.delay_comm_variant = variant;
    const auto result = madpipe_dp(c, p, c.total_compute() / 3, options);
    EXPECT_TRUE(result.allocation.has_value());
  }
}

TEST(MadPipeDpBudget, ExhaustedBudgetWarnsOncePerEngineAcrossThreads) {
  // Regression: the state-budget warning used to be a plain per-call bool,
  // so concurrent probes (speculative bisection, serve workers) spammed one
  // log line each. It is now a per-engine atomic once-guard: every result
  // still reports state_budget_hit, but the process logs exactly once per
  // engine no matter how many threads trip the valve at the same time.
  const Chain c = make_uniform_chain(12, ms(2), ms(4), MB, 20 * MB, MB);
  const Platform p{4, 2 * GB, 12 * GB};

  using Solver = MadPipeDPResult (*)(const Chain&, const Platform&, Seconds,
                                     const MadPipeDPOptions&, Seconds);
  const std::pair<const char*, Solver> solvers[] = {
      {"madpipe_dp", &madpipe_dp},
      {"reference", &detail::madpipe_dp_reference}};
  for (const auto& [name, solve] : solvers) {
    detail::reset_state_budget_warnings();
    constexpr int kThreads = 8;
    std::atomic<int> budget_hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        MadPipeDPOptions options = fine_grid();
        options.max_states = 1;  // guaranteed to trip immediately
        const auto result = solve(c, p, c.total_compute() / 4, options,
                                  std::numeric_limits<double>::infinity());
        if (result.state_budget_hit) {
          budget_hits.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    // Every probe saw (and reported) the truncation...
    EXPECT_EQ(budget_hits.load(), kThreads) << name;
    // ...but only one warning was emitted for the whole stampede.
    EXPECT_EQ(detail::state_budget_warning_count(), 1) << name;
  }

  // The guard latches: a later hit on the same solver stays silent. (The
  // reference is the one whose guard is still armed — the loop above reset
  // both guards before its reference round.)
  MadPipeDPOptions options = fine_grid();
  options.max_states = 1;
  const auto again =
      detail::madpipe_dp_reference(c, p, c.total_compute() / 4, options);
  EXPECT_TRUE(again.state_budget_hit);
  EXPECT_EQ(detail::state_budget_warning_count(), 1);
  detail::reset_state_budget_warnings();
}

}  // namespace
}  // namespace madpipe
