// Global time-ordered event queue of the simulator core.
//
// A thin, deterministic wrapper over a binary heap: events pop in
// (time, seq) order, where seq is the schedule order — so two events
// scheduled for the same instant always fire in the order the protocol
// machine created them, independent of heap internals.  The simulator
// (src/sim/simulator.cpp) drains one EventQueue, jumping its clock to each
// popped event's time.
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event.hpp"

namespace dpcp {

class EventQueue {
 public:
  /// Enqueues an event at time `t`, assigning the next sequence number.
  /// Scheduling order is the tie-break at equal times.
  void schedule(Time t, SimEventKind kind, int subject,
                std::uint64_t token = 0) {
    heap_.push(SimEvent{t, next_seq_++, kind, subject, token});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Earliest pending event (by the (time, seq) order).
  const SimEvent& peek() const {
    assert(!heap_.empty());
    return heap_.top();
  }
  Time next_time() const { return peek().time; }

  SimEvent pop() {
    assert(!heap_.empty());
    const SimEvent e = heap_.top();
    heap_.pop();
    return e;
  }

  /// Total events ever scheduled (monotone; equals the last assigned
  /// sequence number).
  std::int64_t scheduled() const { return next_seq_; }

 private:
  std::priority_queue<SimEvent, std::vector<SimEvent>, SimEventAfter> heap_;
  std::int64_t next_seq_ = 0;
};

}  // namespace dpcp
