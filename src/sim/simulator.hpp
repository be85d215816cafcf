// Discrete-event simulator of the DPCP-p runtime (Sec. III of the paper).
//
// Implements the protocol exactly as specified:
//  * federated clusters with work-conserving FIFO scheduling of vertices
//    (ready queues RQ^N and RQ^L per task, RQ^L served first -- Sec. III-B);
//  * every global resource pinned to a processor, where an agent executes
//    its critical sections at effective priority pi^H + pi_i, preempting
//    vertices and lower-priority agents (RQ^G / SQ^G per processor);
//  * the priority-ceiling gate: a request is granted the lock at time t
//    only if its effective priority exceeds the processor ceiling (locking
//    rules 1-4 of Sec. III-C);
//  * local resources as plain binary semaphores with FIFO wake-up.
//
// Built-in checkers validate Lemma 1 (a request is blocked by at most one
// lower-priority request), mutual exclusion, the ceiling gate and
// work-conservation on every run.
//
// The clock is next-event: simulate() drains one global EventQueue
// (sim/event_queue.hpp), jumping straight to each entry's timestamp, so
// idle time costs nothing.
#pragma once

#include <vector>

#include "model/taskset.hpp"
#include "partition/partition.hpp"
#include "sim/config.hpp"
#include "sim/segments.hpp"

namespace dpcp {

/// Simulates `ts` under `part` to completion and returns the collected
/// statistics.  When `trace` is non-null, every event is also appended to
/// `*trace`; a trace that would grow past `config.max_trace_entries`
/// (0 = no bound) throws std::runtime_error.
///
/// `part` must have the shape of `ts` (one cluster per task, one
/// placement slot per resource), map every task to a non-empty cluster
/// of processors in 0..m-1, and, under SimProtocol::kDpcpP, place every
/// global resource on such a processor (kSpinFifo ignores placement).
/// Throws std::invalid_argument naming the first violation.  Capacity
/// is not checked: an over-utilized partition simulates (and misses
/// deadlines).
SimResult simulate(const TaskSet& ts, const Partition& part,
                   const SimConfig& config = {},
                   std::vector<TraceEvent>* trace = nullptr);

}  // namespace dpcp
