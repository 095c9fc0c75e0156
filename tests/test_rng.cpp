// util::Rng tests: the portability contract. Benchmark workloads and
// property-test cases are reproduced from a seed across hosts, so the
// generator is pinned to golden splitmix64 output (not just
// self-consistency) and every derived draw is checked for its documented
// range.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace madpipe::util {
namespace {

TEST(Rng, MatchesSplitmix64ReferenceOutput) {
  // First four outputs of reference splitmix64 seeded with 42 (computed
  // from the Steele/Lea/Flood constants independently of this code). If
  // these ever change, every committed seeded artifact changes with them.
  Rng rng(42);
  EXPECT_EQ(rng.next_u64(), 0xBDD732262FEB6E95ull);
  EXPECT_EQ(rng.next_u64(), 0x28EFE333B266F103ull);
  EXPECT_EQ(rng.next_u64(), 0x47526757130F9F52ull);
  EXPECT_EQ(rng.next_u64(), 0x581CE1FF0E4AE394ull);
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBoundAndHitsAllResidues) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Lemire reduction is unbiased; at n=1000 per bucket every residue must
  // appear (a missing one would mean the high-multiply is broken).
  for (int c : counts) EXPECT_GT(c, 0);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeIsInclusiveOnBothEnds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const long long v = rng.range(2, 4);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 4);
    saw_lo |= (v == 2);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.range(9, 9), 9);
  EXPECT_EQ(rng.range(9, 3), 9);  // degenerate bounds collapse to lo
}

}  // namespace
}  // namespace madpipe::util
