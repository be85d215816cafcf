// Configuration, statistics and trace records of the DPCP-p runtime
// simulator (Sec. III of the paper).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace dpcp {

/// Which locking protocol the simulator executes.
enum class SimProtocol {
  /// DPCP-p (Sec. III): global resources served remotely by
  /// priority-ceiling agents on their synchronization processors.
  kDpcpP,
  /// FIFO spin locks, local execution (the runtime SPIN-SON models): a
  /// vertex issues its request when dispatched and busy-waits on that
  /// processor until the lock is free (the FIFO queue position is taken
  /// at spin start, never earlier), then runs the critical section itself
  /// in place.  Spinning and critical sections are non-preemptable, as in
  /// MSRP-style protocols -- preempting a lock holder on a shared
  /// processor would deadlock against a co-located spinner.  No resource
  /// placement is needed.
  kSpinFifo,
};

struct SimConfig {
  SimProtocol protocol = SimProtocol::kDpcpP;
  /// Progress guard: processing more events than this
  /// throws std::runtime_error instead of spinning forever — a protocol
  /// bug that schedules events without retiring workload (the class of
  /// failure behind the PR 3 FIFO-spin deadlock) must surface as an
  /// error, not a hang.  0 disables the guard.  The default is far above
  /// any legitimate run (a 100 ms-horizon sweep sample processes ~1e3
  /// events).
  std::int64_t max_events = 100'000'000;
  /// Simulated time span.  Jobs released before the horizon run to
  /// completion (events past the horizon are still processed until the
  /// system drains or `hard_stop` is hit).
  Time horizon = millis(2000);
  /// Absolute event-time cutoff (guards against runaway scenarios).
  Time hard_stop = millis(20'000);
  /// Synchronous release at t=0, then strictly periodic arrivals.  A
  /// positive jitter makes arrivals sporadic: next = prev + T + U[0,jitter].
  Time release_jitter = 0;
  /// Scales every execution segment (0 < scale <= 1): exercises
  /// shorter-than-worst-case executions, under which analysis bounds must
  /// still hold.
  double execution_scale = 1.0;
  /// Seed for jitter / scaling randomisation.
  std::uint64_t seed = 1;
  /// Memory guard on the trace simulate() records when given one,
  /// mirroring `max_events`: recording more than this many entries
  /// throws std::runtime_error with a descriptive message instead of
  /// growing without bound (long traced horizons are exactly the
  /// exporter's use case).  0 = unlimited (the default).
  std::int64_t max_trace_entries = 0;
};

struct TaskSimStats {
  std::int64_t jobs_released = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t deadline_misses = 0;
  Time max_response = 0;
  double avg_response = 0.0;  // over completed jobs
};

struct SimResult {
  std::vector<TaskSimStats> task;
  /// Distinct lower-priority requests observed blocking a single global
  /// request, maximised over all requests (Lemma 1 asserts <= 1).
  int max_lower_priority_blockers = 0;
  std::int64_t lemma1_violations = 0;
  std::int64_t mutual_exclusion_violations = 0;
  std::int64_t work_conserving_violations = 0;
  std::int64_t ceiling_violations = 0;
  std::int64_t global_requests_issued = 0;
  std::int64_t global_requests_completed = 0;
  std::int64_t preemptions = 0;
  /// Events retired from the global queue (one clock advance each).
  std::int64_t events_processed = 0;
  Time end_time = 0;
  bool drained = false;  // every released job completed

  bool all_invariants_hold() const {
    return lemma1_violations == 0 && mutual_exclusion_violations == 0 &&
           work_conserving_violations == 0 && ceiling_violations == 0;
  }
  std::int64_t total_deadline_misses() const {
    std::int64_t total = 0;
    for (const auto& t : task) total += t.deadline_misses;
    return total;
  }
};

enum class TraceKind {
  kJobRelease,
  kJobComplete,
  kVertexDispatch,   // vertex starts/resumes on a processor
  kVertexPreempt,
  kVertexComplete,
  /// A vertex segment ran to completion and vacated its processor (the
  /// only proc-carrying exit besides preemption — kVertexComplete fires
  /// once per vertex with no processor, so span reconstruction needs
  /// this per-segment close; obs/chrome_trace.hpp consumes it).
  kSegmentEnd,
  kRequestIssue,     // global request arrives at its synchronization proc
  kRequestGrant,     // lock granted (enters RQ^G)
  kAgentDispatch,    // agent starts/resumes executing
  kAgentComplete,    // critical section finished, lock released
  kAgentPreempt,     // running agent preempted by a higher-priority one
  kLocalLock,
  kLocalUnlock,
};

struct TraceEvent {
  Time time = 0;
  TraceKind kind = TraceKind::kJobRelease;
  int task = -1;
  std::int64_t job = -1;
  int vertex = -1;
  int processor = -1;
  int resource = -1;
};

std::string trace_kind_name(TraceKind kind);
std::string trace_to_string(const std::vector<TraceEvent>& trace);

}  // namespace dpcp
