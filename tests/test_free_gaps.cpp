// FreeGapStack, the branch-and-bound's per-resource free-gap levels, against
// a rebuild of the gap list from the sorted intervals (the list the search
// computed at every new level before levels were derived from their
// parents). Random last-in first-out place/unplace sequences place each
// interval in a listed gap the way the search's candidates do: anywhere in
// the gap, flush with an edge, up to eps past an edge, or filling the gap
// exactly. After every step the derived list must equal the rebuild bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cyclic/free_gaps.hpp"
#include "util/rng.hpp"

namespace madpipe {
namespace {

/// The rebuild: walk the intervals sorted by position with the running max
/// of their ends as the cursor, listing every gap longer than eps, then the
/// wrap-around gap back to the first start (+T).
std::vector<CircleInterval> rebuilt_gaps(
    const std::vector<CircleInterval>& placed, Seconds period, Seconds eps) {
  std::vector<CircleInterval> gaps;
  if (placed.empty()) {
    gaps.push_back(CircleInterval{0.0, period});
    return gaps;
  }
  Seconds cursor = placed.front().position + placed.front().duration;
  for (std::size_t i = 1; i < placed.size(); ++i) {
    const Seconds gap = placed[i].position - cursor;
    if (gap > eps) gaps.push_back(CircleInterval{cursor, gap});
    cursor = std::max(cursor, placed[i].position + placed[i].duration);
  }
  const Seconds wrap_gap = placed.front().position + period - cursor;
  if (wrap_gap > eps) {
    gaps.push_back(CircleInterval{circle_mod(cursor, period), wrap_gap});
  }
  return gaps;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_gaps(const std::vector<FreeGapStack::Gap>& derived,
                      const std::vector<CircleInterval>& rebuilt,
                      const std::string& where) {
  ASSERT_EQ(derived.size(), rebuilt.size()) << where;
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(bits(derived[i].position), bits(rebuilt[i].position))
        << where << " gap " << i;
    EXPECT_EQ(bits(derived[i].duration), bits(rebuilt[i].duration))
        << where << " gap " << i;
  }
}

/// How often each placement shape the derivation distinguishes occurred.
struct Coverage {
  int on_empty = 0;
  int new_first = 0;
  int new_last = 0;
  int interior = 0;
  int wraps_past_period = 0;
  int past_left_edge = 0;
  int past_right_edge = 0;
  int fills_gap = 0;
};

/// One random LIFO sequence on a circle of period `period`.
void run_sequence(std::uint64_t seed, Seconds period, Coverage& coverage) {
  util::Rng rng(seed);
  const Seconds eps = 1e-9 * period;
  FreeGapStack stack(period, eps);
  std::vector<CircleInterval> placed;  // sorted by position
  std::vector<CircleInterval> order;   // in placement order, for unplace

  for (int step = 0; step < 400; ++step) {
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step);
    const std::vector<CircleInterval> gaps = rebuilt_gaps(placed, period, eps);
    // Gaps an interval longer than 2·eps fits into.
    std::vector<CircleInterval> usable;
    for (const CircleInterval& gap : gaps) {
      if (gap.duration > 4 * eps) usable.push_back(gap);
    }
    const bool place =
        !usable.empty() && (order.empty() || rng.uniform() < 0.6);
    if (!place) {
      const CircleInterval last = order.back();
      order.pop_back();
      placed.erase(std::find_if(placed.begin(), placed.end(),
                                [&](const CircleInterval& iv) {
                                  return bits(iv.position) ==
                                             bits(last.position) &&
                                         bits(iv.duration) ==
                                             bits(last.duration);
                                }));
      stack.unplace();
    } else {
      const CircleInterval gap = usable[rng.below(usable.size())];
      // Durations from 2·eps to the whole gap, most of them short so that
      // many intervals fit; an exact fill now and then.
      const int shape = static_cast<int>(rng.below(5));
      Seconds duration = gap.duration;
      Seconds offset = 0.0;  // start relative to the gap's start
      if (shape != 4) {
        const double fraction =
            rng.uniform() < 0.8 ? 0.3 * rng.uniform() : rng.uniform();
        duration = std::max(2.0 * eps + eps * rng.uniform(),
                            fraction * (gap.duration - eps));
        const Seconds slack = gap.duration - duration;
        const Seconds past = eps * rng.uniform();  // at most eps
        switch (shape) {
          case 0: offset = rng.uniform() * slack; break;  // anywhere
          case 1: offset = 0.0; break;                    // left edge
          case 2: offset = -past; break;                  // past left edge
          case 3: offset = slack + past; break;           // past right edge
        }
        if (shape == 2 && past > 0.0) ++coverage.past_left_edge;
        if (shape == 3 && past > 0.0) ++coverage.past_right_edge;
      } else {
        ++coverage.fills_gap;
      }
      Seconds phi = gap.position + offset;
      if (phi < 0.0) phi += period;
      phi = circle_mod(phi, period);
      if (phi + duration > period) ++coverage.wraps_past_period;

      const CircleInterval iv{phi, duration};
      const auto it = std::lower_bound(
          placed.begin(), placed.end(), phi,
          [](const CircleInterval& a, Seconds p) { return a.position < p; });
      if (placed.empty()) {
        ++coverage.on_empty;
      } else if (it == placed.begin()) {
        ++coverage.new_first;
      } else if (it == placed.end()) {
        ++coverage.new_last;
      } else {
        ++coverage.interior;
      }
      placed.insert(it, iv);
      order.push_back(iv);
      stack.place(phi, duration);
    }
    expect_same_gaps(stack.gaps(), rebuilt_gaps(placed, period, eps), where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FreeGapStack, EmptyResourceIsOneWholeCircleGap) {
  FreeGapStack stack(2.5, 2.5e-9);
  ASSERT_EQ(stack.gaps().size(), 1u);
  EXPECT_EQ(stack.gaps()[0].position, 0.0);
  EXPECT_EQ(stack.gaps()[0].duration, 2.5);
}

TEST(FreeGapStack, DerivedLevelsMatchTheRebuildOnRandomLifoSequences) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    // Periods on both sides of 1 and with inexact binary expansions.
    const Seconds period = (seed % 3 == 0)   ? 0.1 * static_cast<double>(seed)
                           : (seed % 3 == 1) ? 11.9021
                                             : 1.0 / 3.0;
    run_sequence(seed, period, coverage);
    if (HasFailure()) return;
  }
  EXPECT_GT(coverage.on_empty, 0);
  EXPECT_GT(coverage.new_first, 0);
  EXPECT_GT(coverage.new_last, 0);
  EXPECT_GT(coverage.interior, 0);
  EXPECT_GT(coverage.wraps_past_period, 0);
  EXPECT_GT(coverage.past_left_edge, 0);
  EXPECT_GT(coverage.past_right_edge, 0);
  EXPECT_GT(coverage.fills_gap, 0);
}

TEST(FreeGapStack, UnplaceReturnsToTheParentLevel) {
  const Seconds period = 1.0;
  FreeGapStack stack(period, 1e-9);
  stack.place(0.25, 0.25);
  const std::vector<CircleInterval> one =
      rebuilt_gaps({{0.25, 0.25}}, period, 1e-9);
  stack.place(0.6, 0.5);  // wraps past T
  stack.place(0.5, 0.1);  // fills [0.5, 0.6) exactly
  expect_same_gaps(stack.gaps(),
                   rebuilt_gaps({{0.25, 0.25}, {0.5, 0.1}, {0.6, 0.5}},
                                period, 1e-9),
                   "three placed");
  stack.unplace();
  stack.unplace();
  expect_same_gaps(stack.gaps(), one, "back to one");
  stack.unplace();
  expect_same_gaps(stack.gaps(), {{0.0, period}}, "empty again");
}

}  // namespace
}  // namespace madpipe
