// Online admission control over a long-lived mutable analysis session.
//
// The offline pipeline answers "is this whole task set schedulable?"
// once; the admission controller answers it continuously for a *stream*
// of task arrivals and departures, reusing everything the offline stack
// already makes incremental:
//
//   * a mutable AnalysisSession (analysis/session.hpp): arrivals and
//     departures add or free one task's path entry and bump user-set
//     epochs instead of rebuilding the session;
//   * one PreparedAnalysis oracle held across events: its epoch-aware
//     span diff re-analyzes only tasks whose partition inputs or
//     contender sets actually changed;
//   * the incumbent partition: an arrival first tries a *delta*
//     placement (new cluster from spares, new agents only for resources
//     that just became global — nothing else moves, so surviving tasks'
//     fingerprints survive), then full strategy re-placements on the new
//     cluster shape, and only then a budgeted PartitionOptimizer repair
//     (opt/optimizer.hpp) seeded from the best failed attempt.
//
// Rejected arrivals park in a bounded FIFO retry queue; departures free
// capacity and trigger one opportunistic re-admission pass over it.
//
// Everything is deterministic: the only randomness is the repair
// search's Rng, forked from the construction seed keyed by the admission
// sequence number, so a replayed event stream reproduces every decision
// bit-for-bit (the property the online driver's 1-vs-8-thread gate and
// the dpcp_server golden transcript pin).  Costs are count-based (oracle
// wcrt() calls per event), so latency percentiles are thread- and
// machine-independent.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "analysis/interface.hpp"
#include "analysis/session.hpp"
#include "model/taskset.hpp"
#include "obs/decision_trace.hpp"
#include "obs/metrics.hpp"
#include "opt/optimizer.hpp"
#include "partition/partition.hpp"
#include "partition/placement.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dpcp {

struct ControllerSnapshot;  // opt/snapshot.hpp

/// Knobs of one controller instance.
struct AdmitOptions {
  /// Platform size.
  int m = 16;
  /// Analysis vouching for every admission.
  AnalysisKind kind = AnalysisKind::kDpcpPEp;
  AnalysisOptions analysis;
  /// Strategies tried (in order) on the full re-placement rung; also the
  /// optimizer seed pool.
  std::vector<PlacementKind> placements{PlacementKind::kWfd,
                                        PlacementKind::kBestFit};
  /// Evaluation budget of the Move-search repair rung; 0 disables it.
  std::int64_t repair_evals = 200;
  /// Retry-queue capacity; oldest entries are evicted beyond it.
  std::size_t retry_capacity = 16;
  /// Root seed of the repair search streams.
  std::uint64_t seed = 42;
};

/// Which rung of the escalation ladder decided an accepted admission.
enum class AdmitRung { kNone, kDelta, kReplace, kRepair };

const char* admit_rung_token(AdmitRung rung);  // "-", "delta", ...

/// Outcome of one admission attempt.
struct AdmitDecision {
  int id = -1;  // external id (stable across re-admissions)
  bool accepted = false;
  AdmitRung rung = AdmitRung::kNone;
  /// Oracle wcrt() calls this event spent (count-based admission latency).
  std::int64_t cost = 0;
  /// Rejected and parked in the retry queue.
  bool queued = false;
  /// External id evicted from the retry queue to make room for this one
  /// (-1 when nothing was evicted).  Surfaced so the server can notify the
  /// session that owned the evicted task instead of dropping it silently.
  int evicted_id = -1;
};

/// Outcome of one departure.
struct DepartOutcome {
  bool found = false;
  /// True when the id was resident; false when it was waiting in the
  /// retry queue (removed from there).
  bool was_resident = false;
  std::int64_t cost = 0;  // oracle calls spent on re-admissions
  /// Retry-queue tasks admitted by the opportunistic pass, in queue order.
  std::vector<AdmitDecision> readmitted;
};

/// Lifetime counters (all deterministic).
struct AdmissionStats {
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;  // submissions whose attempt failed
  std::int64_t departed = 0;
  std::int64_t delta_accepts = 0;
  std::int64_t replace_accepts = 0;
  std::int64_t repair_accepts = 0;
  std::int64_t readmits = 0;  // accepts out of the retry queue
  std::int64_t retry_evictions = 0;
  std::int64_t oracle_calls = 0;
  std::int64_t tasks_reused = 0;  // per-task re-analyses skipped
  /// Admissions attempted with the repair rung disabled because the
  /// rolling cost percentile exceeded the configured SLO budget.
  std::int64_t degraded_admits = 0;
};

class AdmissionController {
 public:
  /// An empty workload over `num_resources` shared resources on
  /// `options.m` processors.  All admitted tasks must use this arity.
  AdmissionController(int num_resources, const AdmitOptions& options);

  /// Rebuilds a controller from a snapshot() capture.  Re-certifies the
  /// restored partition with a full (uncounted) analysis pass, leaving the
  /// oracle-reuse state in the same canonical form snapshot() left the
  /// live controller in — so every subsequent decision, including its
  /// count-based cost, is bit-for-bit what the original would have made.
  /// Throws std::invalid_argument when the snapshot is inconsistent or no
  /// longer certifies.
  explicit AdmissionController(const ControllerSnapshot& snap);

  /// Captures the full controller state for failover.  Quiesces first:
  /// runs one uncounted full evaluation of the incumbent partition so the
  /// path-dependent oracle-reuse state collapses to a canonical form the
  /// restore constructor reproduces.  Deterministic: same history -> same
  /// snapshot text.
  ControllerSnapshot snapshot();

  /// Tries to admit `task` (escalating delta placement -> strategy
  /// re-placement -> budgeted repair); on rejection the task parks in the
  /// retry queue.  The returned id names the task in depart()/wcrt maps
  /// whether it was accepted or queued.
  AdmitDecision admit(DagTask task);

  /// Removes a resident task (freeing its processors) or a queued one;
  /// resident departures trigger the re-admission pass.
  DepartOutcome depart(int external_id);

  // --- introspection ------------------------------------------------------
  const AdmitOptions& options() const { return options_; }
  const TaskSet& taskset() const { return ts_; }
  const Partition& partition() const { return part_; }
  const AdmissionStats& stats() const { return stats_; }
  int resident() const { return ts_.size(); }
  std::size_t retry_queue_size() const { return retry_.size(); }
  /// External id of resident task `index`.
  int external_id(int index) const {
    return ext_ids_[static_cast<std::size_t>(index)];
  }
  /// Resident index of `external_id`, or -1.
  int index_of(int external_id) const;
  /// Certified WCRT bounds per resident index, from the accepting
  /// evaluation (upper bounds stay valid across later departures: removing
  /// a task only removes non-negative demand terms).
  const std::vector<Time>& wcrt() const { return wcrt_; }
  /// The long-lived prepared oracle (diff/reuse telemetry for benches).
  const PreparedAnalysis& oracle() const { return *oracle_; }

  // --- SLO layer ----------------------------------------------------------
  /// Degrade when the rolling `percentile`-th per-event cost exceeds
  /// `budget` oracle calls: the repair rung's budget drops to 0 until the
  /// window recovers.  percentile in [1,100]; 0 disables (the default).
  void set_slo(int percentile, std::int64_t budget);
  int slo_percentile() const { return slo_percentile_; }
  std::int64_t slo_budget() const { return slo_budget_; }
  /// True when the next admission would run with the repair rung disabled.
  bool degraded() const;
  /// Lifetime per-event admission costs (oracle calls), for p50/p99/max.
  const IntHistogram& cost_histogram() const { return cost_hist_; }

  // --- telemetry ----------------------------------------------------------
  /// The controller's metrics registry (obs/metrics.hpp), built on each
  /// call from stats(), cost_histogram(), the SLO window, the resident and
  /// retry-queue gauges and the streak-reset count.  Everything in it is
  /// count-based, so rendering it is deterministic at any thread/shard
  /// count — the server's `metrics` command prints exactly this.
  MetricsRegistry metrics() const;
  /// Bounded ring of per-event decision records (the `trace` command).
  /// Not part of the snapshot: a restored controller starts an empty
  /// ring, the counters above carry the lifetime story.
  const DecisionTrace& decision_trace() const { return trace_; }
  /// Response-memo counters of the long-lived session.
  const CacheStats& cache_stats() const { return session_.stats(); }
  /// Decision records the ring retains.
  static constexpr std::size_t kTraceCapacity = 64;

 private:
  struct Pending {
    int id;
    DagTask task;
  };

  AdmitDecision admit_with_id(int external_id, DagTask task,
                              const char* trace_kind);
  /// Records one event's cost into the SLO window and lifetime histogram.
  void note_cost(std::int64_t cost);
  /// Repair budget for the next admission: options_.repair_evals, or 0
  /// while the SLO window is over budget.
  std::int64_t effective_repair_evals() const;
  /// The quiesce barrier shared by snapshot() and the restore
  /// constructor: one uncounted full evaluation of part_, after which
  /// prev_result_/stable_/have_prev_/wcrt_ are a pure function of
  /// (ts_, part_).  False when some task no longer certifies (only
  /// possible on a corrupted snapshot — live state always certifies).
  bool prime();
  /// Scores `part` for the whole resident set with the cross-event reuse
  /// rule below; fills bounds_scratch_.
  bool evaluate(const Partition& part);
  /// Rung 1: cluster from spares (or a shared light processor) + agents
  /// for newly global resources only.  Returns false when no cluster
  /// could be formed or the result fails validate().
  bool delta_place(int idx);
  /// Assigns every newly global, still-unassigned resource to the
  /// processor hosting the fewest agents (deterministic tie-break).
  void place_new_globals();
  /// Builds a cluster for `idx` by stealing trailing processors from the
  /// widest clusters (rung-3 seed of last resort).
  bool steal_cluster(int idx);

  const AdmitOptions options_;
  TaskSet ts_;
  AnalysisSession session_;
  std::unique_ptr<PreparedAnalysis> oracle_;
  Partition part_;
  std::vector<int> ext_ids_;
  std::vector<Time> wcrt_;
  std::deque<Pending> retry_;
  Rng rng_root_;
  std::uint64_t admit_seq_ = 0;
  int next_ext_ = 0;
  AdmissionStats stats_;

  // SLO state: rolling window feeding the degradation decision plus a
  // lifetime histogram for reporting.  Both are count-based, so they are
  // deterministic and snapshot cleanly.
  static constexpr std::size_t kSloWindow = 64;
  int slo_percentile_ = 0;  // 0 = SLO disabled
  std::int64_t slo_budget_ = 0;
  RollingQuantile slo_window_{kSloWindow};
  IntHistogram cost_hist_;

  // Telemetry outside AdmissionStats: cross-event reuse streaks broken
  // (repair search, index renumbering) and the decision ring.  Neither is
  // in the snapshot, so a restored controller restarts both.
  std::int64_t streak_resets_ = 0;
  DecisionTrace trace_{kTraceCapacity};
  std::int64_t trace_seq_ = 0;  // event number of the next trace record

  // Cross-event oracle-result reuse (see evaluate()): a task keeps its
  // previous bound when the oracle certifies its inputs unchanged since
  // the last successful pass and no task whose bound deviated before it
  // is in its contender read set.
  std::vector<std::optional<Time>> prev_result_;
  std::vector<std::optional<Time>> result_;
  bool have_prev_ = false;
  std::vector<Time> bounds_scratch_;
  std::vector<char> deviated_scratch_;  // per-evaluate deviation flags
  /// Task inputs certified unchanged by every bind since the pass that
  /// produced prev_result_ (the reuse precondition).
  std::vector<char> stable_;
};

}  // namespace dpcp
