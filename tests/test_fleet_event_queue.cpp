// EventQueue contract tests: the fleet's event engine must pop in exactly
// the order a linear scan for the minimum (time, seq) of the pending
// events would — on randomized streams with same-timestamp ties,
// far-future events and inserts during dispatch — and the whole dispatch
// sequence must be a pure function of the seed.
#include "fleet/event_queue.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace madpipe::fleet {
namespace {

/// The reference: a flat list of pending (time, seq) pairs, popped by a
/// linear scan for the minimum. It shares no code or data structure with
/// the heap, and models the contract directly: seq is the push number and
/// a push before the last popped time is clamped to it.
class MinOfPending {
 public:
  void push(double time) {
    pending_.push_back({time < now_ ? now_ : time, next_seq_++});
  }
  bool empty() const { return pending_.empty(); }
  std::pair<double, std::uint64_t> pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      if (pending_[i] < pending_[best]) best = i;
    }
    const auto top = pending_[best];
    pending_[best] = pending_.back();
    pending_.pop_back();
    now_ = top.first;
    return top;
  }

 private:
  std::vector<std::pair<double, std::uint64_t>> pending_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

Event at(double time) {
  Event event;
  event.time = time;
  return event;
}

/// Drain both queues together and require identical (time, seq) at every
/// step. Assumes both already hold the same events.
void expect_identical_drain(EventQueue& queue, MinOfPending& oracle) {
  while (!oracle.empty()) {
    ASSERT_FALSE(queue.empty());
    const Event event = queue.pop();
    const auto [time, seq] = oracle.pop();
    ASSERT_EQ(event.time, time);
    ASSERT_EQ(event.seq, seq);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(FleetEventQueue, GoldenEquivalenceOnRandomizedStreams) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    EventQueue queue;
    MinOfPending oracle;
    // Mixed spread: mostly near, some minutes to an hour out, a tail far
    // in the future, plus exact duplicates for the tie path.
    double last_time = 0.0;
    for (int i = 0; i < 4000; ++i) {
      double time;
      const double pick = rng.uniform();
      if (pick < 0.70) {
        time = rng.uniform(0.0, 8.0);
      } else if (pick < 0.90) {
        time = rng.uniform(8.0, 4000.0);
      } else if (pick < 0.97) {
        time = rng.uniform(5000.0, 100'000.0);
      } else {
        time = last_time;  // exact tie
      }
      last_time = time;
      queue.push(at(time));
      oracle.push(time);
    }
    expect_identical_drain(queue, oracle);
  }
}

TEST(FleetEventQueue, SameTimestampTiesPopInInsertionOrder) {
  EventQueue queue;
  for (int i = 0; i < 100; ++i) queue.push(at(1.5));
  for (std::uint64_t expected = 0; expected < 100; ++expected) {
    const Event event = queue.pop();
    EXPECT_EQ(event.time, 1.5);
    EXPECT_EQ(event.seq, expected);
  }
}

TEST(FleetEventQueue, InsertDuringDispatchInterleavesCorrectly) {
  // The simulator's shape: pop an event, schedule new ones (completions,
  // re-placements) relative to `now`, keep popping. The oracle sees the
  // same interleaved pushes.
  util::Rng rng(4242);
  EventQueue queue;
  MinOfPending oracle;
  for (int i = 0; i < 64; ++i) {
    const double time = rng.uniform(0.0, 4.0);
    queue.push(at(time));
    oracle.push(time);
  }
  int dispatched = 0;
  while (!oracle.empty()) {
    ASSERT_FALSE(queue.empty());
    const Event event = queue.pop();
    const auto [time, gold_seq] = oracle.pop();
    ASSERT_EQ(event.time, time);
    ASSERT_EQ(event.seq, gold_seq);
    ++dispatched;
    if (dispatched < 2000 && rng.chance(0.6)) {
      // Sometimes at the current instant exactly (must pop before the
      // engine moves on), sometimes near-future, sometimes far.
      const double pick = rng.uniform();
      const double next_time = pick < 0.2   ? event.time
                               : pick < 0.9 ? event.time + rng.exponential(2.0)
                                            : event.time + 10'000.0;
      queue.push(at(next_time));
      oracle.push(next_time);
    }
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_GT(dispatched, 64);
}

TEST(FleetEventQueue, PastInsertsAreClampedToNowNotLost) {
  EventQueue queue;
  queue.push(at(5.0));
  queue.push(at(10.0));
  EXPECT_EQ(queue.pop().time, 5.0);
  // 2.0 is in the past now; the engine never travels backwards, so it is
  // clamped to now()=5.0 and dispatched before the 10.0 event.
  queue.push(at(2.0));
  const Event clamped = queue.pop();
  EXPECT_EQ(clamped.time, 5.0);
  EXPECT_EQ(queue.pop().time, 10.0);
  EXPECT_TRUE(queue.empty());
}

TEST(FleetEventQueue, FarFutureOnlyStreamStillOrders) {
  util::Rng rng(77);
  EventQueue queue;
  MinOfPending oracle;
  for (int i = 0; i < 500; ++i) {
    const double time = rng.uniform(50'000.0, 1'000'000.0);
    queue.push(at(time));
    oracle.push(time);
  }
  expect_identical_drain(queue, oracle);
}

TEST(FleetEventQueue, DispatchSequenceIsAPureFunctionOfTheSeed) {
  // Determinism property at the engine level: same seed -> bit-identical
  // (time, seq) dispatch sequence, including interleaved inserts.
  auto run = [](std::uint64_t seed) {
    util::Rng rng(seed);
    EventQueue queue;
    std::vector<std::pair<double, std::uint64_t>> dispatched;
    for (int i = 0; i < 256; ++i) queue.push(at(rng.exponential(3.0)));
    while (!queue.empty()) {
      const Event event = queue.pop();
      dispatched.push_back({event.time, event.seq});
      if (dispatched.size() < 2048 && rng.chance(0.5)) {
        queue.push(at(event.time + rng.exponential(5.0)));
      }
    }
    return dispatched;
  };
  const auto a = run(2024), b = run(2024), c = run(2025);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FleetEventQueue, SizeAndNowTrackTraffic) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.now(), 0.0);
  for (int i = 0; i < 10; ++i) queue.push(at(0.5 * i));
  EXPECT_EQ(queue.size(), 10u);
  queue.pop();
  EXPECT_EQ(queue.size(), 9u);
  while (!queue.empty()) queue.pop();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.now(), 4.5);
}

}  // namespace
}  // namespace madpipe::fleet
