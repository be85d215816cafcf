// Chrome trace-event JSON exporter for simulator traces.
//
// Serializes a simulator event trace (sim/config.hpp TraceEvent) into
// the Trace Event Format that Perfetto and chrome://tracing load
// natively, giving the protocol machine its first visual debugging
// surface:
//
//   * pid 0 "processors": one thread track per processor, carrying
//     complete ("X") spans for everything that occupies it — vertex
//     execution ("vertex"), critical sections executed in place while
//     holding a lock ("hold"), FIFO busy-waiting ("spin"), and DPCP-p
//     agent critical sections ("agent") — plus instant markers for
//     request arrival and grant;
//   * pid 1 "tasks": one thread track per task with instant markers for
//     job releases and completions.
//
// Span boundaries come straight from the trace: every occupancy starts
// at a dispatch record and ends at the matching seg-end / preempt /
// agent-done / agent-preempt record (or at the next dispatch on the same
// processor — the in-place spin-to-hold handoff), so spans never bleed
// across idle gaps.  Hold-vs-spin classification replays the
// local-lock/local-unlock records.
//
// Determinism: timestamps are the trace's int64 nanoseconds rendered as
// microseconds in pure integer arithmetic (us and a 3-digit ns fraction,
// never floats), and events are emitted in trace order — the JSON is a
// byte-for-byte pure function of the trace.
#pragma once

#include <string>
#include <vector>

#include "sim/config.hpp"

namespace dpcp {

std::string chrome_trace_json(const std::vector<TraceEvent>& trace);

}  // namespace dpcp
