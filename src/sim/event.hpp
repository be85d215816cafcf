// Event taxonomy of the discrete-event simulator core.
//
// Only *time-advancing* occurrences live on the global EventQueue: job
// releases and segment completions (the two points where the simulated
// clock can move).  Everything that happens as a same-timestamp cascade of
// those — vertex dispatch, lock grant/release, FIFO handoff, preemption —
// is resolved immediately by the protocol state machine and recorded in
// the trace (TraceKind), never queued: queuing zero-delay events would
// only re-order the cascade and make its order harder to reason about.
// Future event kinds that *do* advance time (e.g. an interconnect
// transit latency for remote DPCP requests) extend this enum.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace dpcp {

enum class SimEventKind {
  /// A task releases its next job.  `subject` is the task index.
  kJobRelease,
  /// The segment running on a processor finishes.  `subject` is the
  /// processor; `token` must match the processor's current dispatch token
  /// or the event is stale (the occupant was preempted or handed off
  /// since it was scheduled) and is ignored.
  kSegmentDone,
};

struct SimEvent {
  Time time = 0;
  /// Stable tie-break: events scheduled earlier fire earlier at equal
  /// times.  Assigned by EventQueue::schedule(), strictly increasing over
  /// the queue's lifetime.
  std::int64_t seq = 0;
  SimEventKind kind = SimEventKind::kJobRelease;
  int subject = 0;
  std::uint64_t token = 0;
};

/// Strict weak ordering "a fires after b": later time first, then later
/// schedule order.  The deterministic tie-break rule of the whole core —
/// (time, seq) — lives here and nowhere else.
struct SimEventAfter {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace dpcp
