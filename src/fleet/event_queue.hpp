// EventQueue: the fleet simulator's event engine, a binary heap over
// (time, seq).
//
// Ordering contract (what the tests pin): events pop in strictly
// increasing (time, seq) order, where `seq` is the global insertion number
// — ties in time resolve FIFO, and an insert during dispatch at the
// current time is popped before the engine moves past it. Events inserted
// in the past (time < the last popped time) are clamped to "now" and
// dispatched next: the simulator never travels backwards.
//
// The queue is deliberately single-threaded: determinism of the fleet
// event log is the acceptance criterion, and one event loop feeding the
// (thread-safe) PlanService is the proven serve-front-end shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "util/expect.hpp"

namespace madpipe::fleet {

/// What a scheduled event does when it fires. The engine itself only
/// orders events; the simulator interprets the kind.
enum class EventKind : std::uint8_t {
  JobArrival,    ///< a job enters the wait queue (payload: job index)
  JobCompletion, ///< a placed job finished its batches (payload: job, epoch)
  PoolResize,    ///< the elastic pool capacity changes (payload: new size)
};

/// One scheduled event. `seq` is assigned by the queue at insert time and
/// makes the pop order a total order.
struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::JobArrival;
  std::int32_t job = -1;    ///< job index; -1 for pool events
  std::int64_t arg = 0;     ///< kind-specific: epoch / new capacity
};

class EventQueue {
 public:
  /// Schedule `event` at event.time (seq is overwritten). Times before the
  /// last popped time are clamped to it.
  void push(Event event) {
    event.seq = next_seq_++;
    if (event.time < now_) event.time = now_;
    heap_.push(event);
  }

  /// True iff no events remain.
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Remove and return the earliest event by (time, seq). Precondition:
  /// !empty().
  Event pop() {
    MP_EXPECT(!heap_.empty(), "pop() on an empty event queue");
    const Event event = heap_.top();
    heap_.pop();
    now_ = event.time;
    return event;
  }

  /// Time of the last popped event (0 before the first pop).
  double now() const noexcept { return now_; }

 private:
  /// "a after b" in (time, seq) order: the comparison that makes
  /// std::priority_queue a min-heap.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace madpipe::fleet
