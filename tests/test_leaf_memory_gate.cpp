// The branch-and-bound leaf gate must agree with validate_pattern's memory
// check on every placement: random virtual times on small random chains, and
// real B&B leaves perturbed by whole periods and by tolerance-sized jitter.
// Agreement is what keeps the search's verdicts and patterns unchanged when
// only the gate's admitted leaves reach the full verifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

#include "cyclic/bb_scheduler.hpp"
#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"

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
  return Chain("gate" + std::to_string(seed), size(rng) * MB,
               std::move(layers));
}

/// The allocation shape of the scheduler fuzz tests: [1,a] and [b+1,6] on
/// processor 0, [a+1,b] on processor 1.
Allocation fuzz_allocation(const Chain& chain, unsigned seed) {
  const int a = 1 + static_cast<int>(seed % 3);
  const int b = a + 1 + static_cast<int>((seed / 3) % (5 - a));
  return Allocation(Partitioning(chain, {{1, a}, {a + 1, b}, {b + 1, 6}}),
                    {0, 1, 0}, 2);
}

/// validate_pattern's memory verdict: step 4 rejected the pattern, for a
/// negative in-flight count or a peak above M·(1 + tolerance).
bool verifier_rejects_memory(const ValidationResult& check) {
  for (const std::string& error : check.errors) {
    if (error.starts_with("memory exceeded") ||
        error.starts_with("negative in-flight")) {
      return true;
    }
  }
  return false;
}

struct Tally {
  int admitted = 0;
  int rejected = 0;
};

/// Check one placement: the gate and the verifier, on a pattern built here
/// from the same virtual times, must reach the same memory verdict.
void expect_agreement(const CyclicProblem& problem,
                      const Allocation& allocation, const Chain& chain,
                      const Platform& platform, Seconds period,
                      const std::vector<Seconds>& z, const std::string& label,
                      Tally& tally) {
  PeriodicPattern pattern;
  pattern.period = period;
  for (std::size_t i = 0; i < problem.ops.size(); ++i) {
    const CyclicOp& op = problem.ops[i];
    pattern.ops.push_back(PeriodicPattern::make_op(
        op.kind, op.stage, op.resource, z[i], op.duration, period));
  }
  const bool rejects = verifier_rejects_memory(
      validate_pattern(pattern, allocation, chain, platform));

  LeafMemoryGate gate(problem, allocation, chain, platform, period);
  const bool admits = gate.admits(z);
  EXPECT_EQ(admits, !rejects) << label;
  ASSERT_EQ(gate.ops().size(), pattern.ops.size()) << label;
  for (std::size_t i = 0; i < pattern.ops.size(); ++i) {
    EXPECT_EQ(gate.ops()[i].start, pattern.ops[i].start) << label;
    EXPECT_EQ(gate.ops()[i].shift, pattern.ops[i].shift) << label;
  }
  ++(admits ? tally.admitted : tally.rejected);
}

TEST(LeafMemoryGate, AgreesWithVerifierOnRandomPlacements) {
  Tally tally;
  for (unsigned seed = 200; seed < 220; ++seed) {
    const Chain chain = random_chain(seed, 6);
    const Platform platform{2, (1.0 + (seed % 4) * 0.8) * GB, 12 * GB};
    const Allocation allocation = fuzz_allocation(chain, seed);
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);
    std::mt19937 rng(seed);
    for (const double factor : {1.05, 1.3, 1.8}) {
      const Seconds period = problem.min_period * factor;
      std::uniform_real_distribution<double> anywhere(0.0, 4.0 * period);
      std::uniform_real_distribution<double> lag(0.0, 0.5 * period);
      for (int sample = 0; sample < 40; ++sample) {
        // Even samples: independent times (backwards often run ahead of
        // their forwards). Odd samples: chain order with random lags.
        std::vector<Seconds> z(problem.ops.size());
        Seconds ready = 0.0;
        for (std::size_t i = 0; i < z.size(); ++i) {
          z[i] = sample % 2 == 0 ? anywhere(rng) : ready + lag(rng);
          ready = z[i] + problem.ops[i].duration;
        }
        expect_agreement(problem, allocation, chain, platform, period, z,
                         "seed " + std::to_string(seed) + " factor " +
                             std::to_string(factor) + " sample " +
                             std::to_string(sample),
                         tally);
      }
    }
  }
  EXPECT_GT(tally.admitted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(LeafMemoryGate, AgreesWithVerifierAtTheMemoryLimit) {
  // Place the memory limit M·(1 + tolerance) exactly at, and a few ulps to
  // a few ppm around, a placement's verified peak: the gate must flip
  // exactly where the verifier does.
  Tally tally;
  const double tolerance = ValidationOptions{}.tolerance;
  for (unsigned seed = 200; seed < 210; ++seed) {
    const Chain chain = random_chain(seed, 6);
    const Platform roomy{2, 1e6 * GB, 12 * GB};
    const Allocation allocation = fuzz_allocation(chain, seed);
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, roomy);
    const Seconds period = problem.min_period * 1.3;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> lag(0.0, 0.5 * period);
    for (int sample = 0; sample < 5; ++sample) {
      std::vector<Seconds> z(problem.ops.size());
      Seconds ready = 0.0;
      for (std::size_t i = 0; i < z.size(); ++i) {
        z[i] = ready + lag(rng);
        ready = z[i] + problem.ops[i].duration;
      }
      PeriodicPattern pattern;
      pattern.period = period;
      for (std::size_t i = 0; i < problem.ops.size(); ++i) {
        const CyclicOp& op = problem.ops[i];
        pattern.ops.push_back(PeriodicPattern::make_op(
            op.kind, op.stage, op.resource, z[i], op.duration, period));
      }
      const ValidationResult roomy_check =
          validate_pattern(pattern, allocation, chain, roomy);
      ASSERT_FALSE(verifier_rejects_memory(roomy_check));
      Bytes peak = 0.0;
      for (const Bytes p : roomy_check.processor_memory_peak) {
        peak = std::max(peak, p);
      }
      const Bytes at_limit = peak / (1.0 + tolerance);
      for (const double scale : {1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-9,
                                 1.0 - 1e-9, 1.0 + 1e-6, 1.0 - 1e-6}) {
        for (const Bytes memory :
             {at_limit * scale, std::nextafter(at_limit, 0.0) * scale}) {
          const Platform platform{2, memory, 12 * GB};
          expect_agreement(problem, allocation, chain, platform, period, z,
                           "seed " + std::to_string(seed) + " sample " +
                               std::to_string(sample) + " scale " +
                               std::to_string(scale),
                           tally);
        }
      }
    }
  }
  EXPECT_GT(tally.admitted, 0);
  EXPECT_GT(tally.rejected, 0);
}

/// Perturb the virtual times of a real B&B leaf in three ways: move ops by
/// whole periods (same circle position, other shift); jitter them by
/// 1e-10·T to 1e-5·T (log-uniform); or put one compute op's completion
/// instant at that distance from another's on the same processor, so the
/// sweep's event instants land on and around the verifier's snapping edges.
void check_perturbed_leaves(const CyclicProblem& problem,
                            const Allocation& allocation, const Chain& chain,
                            const Platform& platform, Seconds period,
                            const PeriodicPattern& leaf, unsigned seed,
                            const std::string& label, Tally& tally) {
  std::vector<Seconds> base;
  for (const PatternOp& op : leaf.ops) base.push_back(op.virtual_time(period));
  expect_agreement(problem, allocation, chain, platform, period, base,
                   label + " leaf", tally);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, base.size() - 1);
  std::uniform_int_distribution<int> periods(-2, 2);
  std::uniform_real_distribution<double> exponent(-10.0, -5.0);
  std::uniform_int_distribution<int> sign(0, 1);
  const auto offset = [&] {
    return (sign(rng) == 0 ? 1.0 : -1.0) * std::pow(10.0, exponent(rng));
  };
  const auto is_compute = [&](std::size_t i) {
    return problem.ops[i].kind == OpKind::Forward ||
           problem.ops[i].kind == OpKind::Backward;
  };
  for (int sample = 0; sample < 90; ++sample) {
    std::vector<Seconds> z = base;
    for (int moves = 1 + sample % 2; moves > 0; --moves) {
      const std::size_t i = pick(rng);
      const std::size_t j = pick(rng);
      if (sample % 3 == 0) {
        z[i] += periods(rng) * period;
      } else if (sample % 3 == 1) {
        z[i] += offset() * period;
      } else if (i != j && is_compute(i) && is_compute(j) &&
                 problem.ops[i].resource == problem.ops[j].resource) {
        // Completion of i at completion of j plus the offset, in the
        // period nearest i's current one.
        const Seconds aligned = z[j] + problem.ops[j].duration -
                                problem.ops[i].duration + offset() * period;
        z[i] = aligned + std::round((z[i] - aligned) / period) * period;
      }
      if (z[i] < 0.0) z[i] = base[i];
    }
    expect_agreement(problem, allocation, chain, platform, period, z,
                     label + " sample " + std::to_string(sample), tally);
  }
}

TEST(LeafMemoryGate, AgreesWithVerifierOnPerturbedSearchLeaves) {
  Tally tally;
  int leaves = 0;
  for (unsigned seed = 200; seed < 220; ++seed) {
    const Chain chain = random_chain(seed, 6);
    const Platform platform{2, (1.0 + (seed % 4) * 0.8) * GB, 12 * GB};
    const Allocation allocation = fuzz_allocation(chain, seed);
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);
    for (const double factor : {1.05, 1.3, 1.8}) {
      const Seconds period = problem.min_period * factor;
      const BBResult bb =
          bb_schedule(problem, allocation, chain, platform, period);
      if (!bb.feasible) continue;
      ++leaves;
      check_perturbed_leaves(problem, allocation, chain, platform, period,
                             bb.pattern, seed,
                             "seed " + std::to_string(seed) + " factor " +
                                 std::to_string(factor),
                             tally);
    }
  }
  // A paper cell: resnet50 on 4 GPUs with 8 GB, at its phase-2 period.
  const Chain chain = models::paper_network("resnet50");
  const Platform platform{4, 8 * GB, 12 * GB};
  const Phase1Result phase1 = madpipe_phase1(chain, platform);
  ASSERT_TRUE(phase1.feasible());
  const PeriodSearchResult search =
      find_min_period(*phase1.allocation, chain, platform, phase1.period);
  ASSERT_TRUE(search.feasible);
  const CyclicProblem problem =
      build_cyclic_problem(*phase1.allocation, chain, platform);
  ++leaves;
  check_perturbed_leaves(problem, *phase1.allocation, chain, platform,
                         search.period, search.pattern, 7, "resnet50 P=4",
                         tally);

  EXPECT_GT(leaves, 10);
  EXPECT_GT(tally.admitted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(LeafMemoryGate, SearchCountsLeavesAndValidatesOnlyAdmittedOnes) {
  // densenet121 on 2 GPUs with 8 GB: memory rejects thousands of complete
  // placements both at the phase-1 period (refuted) and 5% above it
  // (feasible); only admitted leaves reach the full verifier.
  const Chain chain = models::paper_network("densenet121");
  const Platform platform{2, 8 * GB, 12 * GB};
  const Phase1Result phase1 = madpipe_phase1(chain, platform);
  ASSERT_TRUE(phase1.feasible());
  const CyclicProblem problem =
      build_cyclic_problem(*phase1.allocation, chain, platform);
  const BBResult refuted = bb_schedule(problem, *phase1.allocation, chain,
                                       platform, phase1.period);
  EXPECT_FALSE(refuted.feasible);
  EXPECT_FALSE(refuted.node_budget_hit);
  EXPECT_GT(refuted.leaves, 1000u);
  EXPECT_LE(refuted.leaves_validated, refuted.leaves);
  const BBResult found = bb_schedule(problem, *phase1.allocation, chain,
                                     platform, 1.05 * phase1.period);
  ASSERT_TRUE(found.feasible);
  EXPECT_GT(found.leaves, 1000u);
  EXPECT_GE(found.leaves_validated, 1u);
  EXPECT_LT(found.leaves_validated, found.leaves);
}

TEST(LeafMemoryGate, IncrementalPathAgreesWithAdmitsOnRandomReplacements) {
  // The search's path: place() every op, then re-place suffixes (DFS
  // backtracking), single ops, or whole-period moves, and ask
  // admits_placed() at each leaf; now and then the whole placement goes
  // through admits() on the same gate, as the compact construction does
  // before the DFS. At every leaf the verdict must match a separate gate's
  // admits(z), and an admitted leaf's ops must match bit for bit.
  Tally tally;
  for (unsigned seed = 200; seed < 220; ++seed) {
    const Chain chain = random_chain(seed, 6);
    const Platform platform{2, (1.0 + (seed % 4) * 0.8) * GB, 12 * GB};
    const Allocation allocation = fuzz_allocation(chain, seed);
    const CyclicProblem problem =
        build_cyclic_problem(allocation, chain, platform);
    const std::size_t count = problem.ops.size();
    std::mt19937 rng(seed);
    for (const double factor : {1.05, 1.3, 1.8}) {
      const Seconds period = problem.min_period * factor;
      LeafMemoryGate incremental(problem, allocation, chain, platform,
                                 period);
      LeafMemoryGate reference(problem, allocation, chain, platform, period);
      std::uniform_real_distribution<double> lag(0.0, 0.5 * period);
      std::uniform_int_distribution<std::size_t> pick(0, count - 1);
      std::uniform_int_distribution<int> periods(-1, 2);
      std::vector<Seconds> z(count);
      const auto place_from = [&](std::size_t first) {
        Seconds ready = first == 0 ? 0.0
                                   : z[first - 1] +
                                         problem.ops[first - 1].duration;
        for (std::size_t i = first; i < count; ++i) {
          z[i] = ready + lag(rng);
          ready = z[i] + problem.ops[i].duration;
          incremental.place(i, z[i]);
        }
      };
      place_from(0);
      for (int step = 0; step < 60; ++step) {
        const std::string label = "seed " + std::to_string(seed) +
                                  " factor " + std::to_string(factor) +
                                  " step " + std::to_string(step);
        bool admitted = false;
        if (step % 10 == 9) {
          admitted = incremental.admits(z);
        } else {
          admitted = incremental.admits_placed();
        }
        const bool expected = reference.admits(z);
        EXPECT_EQ(admitted, expected) << label;
        if (admitted && expected) {
          for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(incremental.ops()[i].start, reference.ops()[i].start)
                << label << " op " << i;
            EXPECT_EQ(incremental.ops()[i].shift, reference.ops()[i].shift)
                << label << " op " << i;
          }
        }
        ++(admitted ? tally.admitted : tally.rejected);

        switch (step % 3) {
          case 0:  // backtrack: a new suffix, as the DFS re-expands
            place_from(pick(rng));
            break;
          case 1:  // the last op alone, the commonest leaf-to-leaf change
            z[count - 1] += lag(rng);
            incremental.place(count - 1, z[count - 1]);
            break;
          default: {  // one op moved by whole periods (its shift only)
            const std::size_t i = pick(rng);
            const Seconds moved = z[i] + periods(rng) * period;
            if (moved >= 0.0) z[i] = moved;
            incremental.place(i, z[i]);
            break;
          }
        }
      }
    }
  }
  EXPECT_GT(tally.admitted, 0);
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace madpipe
