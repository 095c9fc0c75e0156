// Free gaps of one resource circle [0, T) for the branch-and-bound cyclic
// scheduler (cyclic/bb_scheduler.cpp). The search places intervals in chain
// order and removes them last-in first-out, so the intervals on a resource
// form a stack, and so do their gap lists: level n is the list while n
// intervals are placed. Level n + 1 is derived from level n by replacing
// only the gap the new interval splits, with the expressions of a rebuild
// from the sorted intervals, so a node costs O(gaps), not O(intervals).
// DESIGN.md §16 argues why the derived list equals the rebuild bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "util/expect.hpp"

namespace madpipe {

struct CircleInterval {
  Seconds position;  ///< start on the circle, in [0, T)
  Seconds duration;
};

/// std::fmod(x, T), bit for bit: on [0, 2T) fmod's exact result is x or
/// x − T, and x − T is exact there (Sterbenz's lemma).
inline Seconds circle_mod(Seconds x, Seconds period) {
  if (x >= 0.0 && x < 2.0 * period) return x < period ? x : x - period;
  return std::fmod(x, period);
}

/// The free gaps, as (start, length) with start ∈ [0, T), of the intervals
/// placed on one resource circle: the list a rebuild makes by walking the
/// intervals sorted by position with the running max of their ends as the
/// cursor, listing each gap [cursor, next start) longer than `eps`, then the
/// wrap-around gap [cursor, first start + T) with its start reduced mod T.
///
/// Every interval must be longer than eps and lie in a listed gap of the
/// state it is placed in, overlapping the gap's edges by at most eps. That
/// is how the search's candidates place them.
class FreeGapStack {
 public:
  FreeGapStack(Seconds period, Seconds eps) : period_(period), eps_(eps) {
    levels_.emplace_back();
    levels_[0].gaps.push_back(Gap{0.0, period, period});
    levels_[0].valid = true;
  }

  /// Make room for `intervals` placed at once without reallocating.
  void reserve(std::size_t intervals) {
    placed_.reserve(intervals);
    levels_.reserve(intervals + 1);
  }

  struct Gap {
    Seconds position;  ///< start on the circle, in [0, T)
    Seconds duration;
    /// Position of the interval the gap ends at (the first interval's for
    /// the wrap-around gap, T on an empty circle).
    Seconds next;
  };

  /// The free gaps of the placed intervals. The reference stays valid until
  /// the next place() or unplace().
  const std::vector<Gap>& gaps() {
    Level& level = levels_[placed_.size()];
    if (!level.valid) derive(level);
    return level.gaps;
  }

  /// Place [phi, phi + duration), phi ∈ [0, T).
  void place(Seconds phi, Seconds duration) {
    gaps();  // the next level is derived from this one
    placed_.push_back(CircleInterval{phi, duration});
    if (levels_.size() == placed_.size()) levels_.emplace_back();
    levels_[placed_.size()].valid = false;
  }

  /// Remove the interval placed last; the level below is still valid.
  void unplace() {
    MP_ENSURE(!placed_.empty(), "unplace on an empty resource");
    placed_.pop_back();
  }

 private:
  struct Level {
    std::vector<Gap> gaps;
    /// The rebuild's cursor after the last interval: the running max of the
    /// interval ends, where the wrap-around gap starts (before reduction).
    Seconds wrap_cursor = 0.0;
    Seconds first = 0.0;  ///< the first interval's position
    bool wrap_listed = false;  ///< gaps.back() is the wrap-around gap
    bool valid = false;
  };

  /// Append gap [cursor, next) when it is longer than eps.
  void push_gap(std::vector<Gap>& out, Seconds cursor, Seconds next) const {
    const Seconds gap = next - cursor;
    if (gap > eps_) out.push_back(Gap{cursor, gap, next});
  }

  /// Close `level` with the wrap-around gap from `cursor`.
  void push_wrap(Level& level, Seconds cursor) const {
    level.wrap_cursor = cursor;
    const Seconds wrap_gap = level.first + period_ - cursor;
    level.wrap_listed = wrap_gap > eps_;
    if (level.wrap_listed) {
      level.gaps.push_back(
          Gap{circle_mod(cursor, period_), wrap_gap, level.first});
    }
  }

  /// Level n from the valid level n − 1 and the interval placed last, x.
  /// x goes where the rebuild's sort puts it: first, last, or before the
  /// interval an interior gap ends at. Only the walk's steps at x and at its
  /// successor change. Since x ends before its successor ends, the cursor
  /// after the successor, max(cursor, x end, successor end), is the
  /// parent's max(cursor, successor end), so every later gap and the wrap
  /// cursor are the parent's.
  void derive(Level& level) const {
    const Level& parent = levels_[placed_.size() - 1];
    const CircleInterval& x = placed_.back();
    const Seconds x_end = x.position + x.duration;
    std::vector<Gap>& out = level.gaps;
    out.clear();
    level.valid = true;
    if (placed_.size() == 1) {
      level.first = x.position;
      push_wrap(level, x_end);
      return;
    }
    const auto interior_end =
        parent.gaps.end() - (parent.wrap_listed ? 1 : 0);
    if (x.position <= parent.first) {
      // x is the new first interval: the walk starts at x's end and steps
      // to x's successor, the old first interval, whose end the parent's
      // walk started from.
      MP_ENSURE(parent.wrap_listed, "interval placed outside a free gap");
      level.first = x.position;
      push_gap(out, x_end, parent.first);
      out.insert(out.end(), parent.gaps.begin(), interior_end);
      push_wrap(level, parent.wrap_cursor);
      return;
    }
    level.first = parent.first;
    // The interior gap x splits ends at the first interval at or after x.
    const auto split = std::partition_point(
        parent.gaps.begin(), interior_end,
        [&x](const Gap& gap) { return gap.next < x.position; });
    out.insert(out.end(), parent.gaps.begin(), split);
    if (split == interior_end) {
      // x is the new last interval: it splits the wrap gap.
      MP_ENSURE(parent.wrap_listed, "interval placed outside a free gap");
      push_gap(out, parent.wrap_cursor, x.position);
      push_wrap(level, std::max(parent.wrap_cursor, x_end));
      return;
    }
    const Seconds cursor = split->position;
    push_gap(out, cursor, x.position);
    push_gap(out, std::max(cursor, x_end), split->next);
    out.insert(out.end(), split + 1, parent.gaps.end());
    level.wrap_cursor = parent.wrap_cursor;
    level.wrap_listed = parent.wrap_listed;
  }

  Seconds period_;
  Seconds eps_;
  std::vector<CircleInterval> placed_;  ///< in placement order
  std::vector<Level> levels_;           ///< gap list per placed count
};

}  // namespace madpipe
