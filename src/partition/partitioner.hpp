// Iterative task and resource partitioning (Algorithm 1 of the paper).
//
// The loop is generic over the schedulability analysis: a WCRT oracle maps
// (task index, response-time hints) to a bound under the currently bound
// partition.  This keeps the partition library independent of the analysis
// library; each locking protocol plugs its own analysis in.
//
//   1. Give every task its minimum federated cluster; fail if they do not
//      fit on m processors.
//   2. Place global resources (protocols with remote execution only)
//      with PartitionOptions::strategy — WFD per Algorithm 2 by default,
//      or any other PlacementStrategy (partition/placement.hpp).
//   3. Analyse tasks in decreasing priority order (one AnalysisPass).  On
//      failure, grant one spare processor to the first failing task, roll
//      the resource placement back, and restart from step 2; fail when no
//      spare remains.
//
// The oracle interface is *stateful* so analyses can amortize work across
// the rounds of step 3: bind() announces each round's partition, and
// task_unchanged() lets a pass skip re-analysing a task whose inputs are
// provably identical to the previous round (see AnalysisPass).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/taskset.hpp"
#include "partition/federated.hpp"
#include "partition/partition.hpp"
#include "partition/placement.hpp"

namespace dpcp {

/// Per-task WCRT oracle bound to one task set, queried across Algorithm-1
/// rounds.  `wcrt_hint[j]` is the response-time bound to assume for every
/// other task j (the caller maintains computed bounds for higher-priority
/// tasks and D_j for the rest).  wcrt() returns nullopt when the bound
/// exceeds the deadline or the recurrence diverges, and must be a pure
/// function of (task set, partition inputs, hint).
class WcrtOracle {
 public:
  virtual ~WcrtOracle() = default;

  /// Announces the partition for the next round of queries.  Called by
  /// partition_and_analyze() once per round, after resource placement;
  /// `part` stays alive and unmodified until the next bind().
  virtual void bind(const Partition& part) { part_ = &part; }

  /// True when everything wcrt(task, ·) reads from the bound partition is
  /// unchanged since the *previous* bind() — i.e. wcrt(task, h) would
  /// return the same value as last round for an identical hint h.  The
  /// default never claims this, which is always sound.
  virtual bool task_unchanged(int /*task*/) const { return false; }

  /// WCRT bound of `task` under the bound partition.
  virtual std::optional<Time> wcrt(int task,
                                   const std::vector<Time>& wcrt_hint) = 0;

 protected:
  /// The partition of the current round (bound by the base-class bind()).
  const Partition& partition() const { return *part_; }

 private:
  const Partition* part_ = nullptr;
};

/// One Algorithm-1 analysis pass over a bound partition, kept across
/// passes: every scoring pass of the library (a partitioning round, a
/// search candidate, an admission re-certification) is one run().  A
/// pass walks `order`, hinting D_j for every task j until j meets its
/// deadline; a met bound becomes its task's hint.
///
/// Task i reuses its previous answer instead of querying the oracle iff
///   * the previous run() reached task i,
///   * oracle.task_unchanged(i) holds, and
///   * every task before i in `order` reproduced its previous answer.
/// Then the oracle would see bitwise-identical inputs and hints, and its
/// purity guarantees the same answer: reuse is exactly behaviour-
/// preserving and only saves oracle calls.
class AnalysisPass {
 public:
  /// `ts` and `order` (decreasing base priority) must outlive the pass.
  AnalysisPass(const TaskSet& ts, const std::vector<int>& order);

  /// Runs one pass against the partition `oracle` is bound to; with
  /// `stop_at_miss` it ends at the first task that misses its deadline.
  /// Returns the first task that missed, or -1.
  int run(WcrtOracle& oracle, bool stop_at_miss);

  /// Task i's answer in the last run(): nullopt when the pass did not
  /// reach task i or the oracle found no bound.
  std::optional<Time> result(int i) const {
    const std::size_t ui = static_cast<std::size_t>(i);
    return reached_[ui] ? result_[ui] : std::nullopt;
  }
  /// Oracle calls issued and answers reused, summed over every run().
  std::int64_t oracle_calls() const { return oracle_calls_; }
  std::int64_t reused() const { return reused_; }

 private:
  const TaskSet& ts_;
  const std::vector<int>& order_;
  std::vector<Time> hint_;
  std::vector<char> reached_, prev_reached_;
  std::vector<std::optional<Time>> result_, prev_result_;
  std::int64_t oracle_calls_ = 0;
  std::int64_t reused_ = 0;
};

/// Whether Algorithm 1 places global resources at all.  kNone is how
/// local-execution protocols opt out of placement; kWfd runs
/// PartitionOptions::strategy (Algorithm 2's WFD unless overridden).
enum class ResourcePlacement { kNone, kWfd };

/// Memo of strategy placements keyed by the cluster shape — a placement's
/// only partition-dependent input (the task set is fixed per session).
/// Owned by an AnalysisSession, one per strategy cache_key(), and shared
/// by every analysis run on one task set: DPCP-p-EP and -EN walk
/// identical early Algorithm-1 rounds, so their placements repeat and the
/// second run restores them for free.
class PlacementCache {
 public:
  /// What one placement run produced for a cluster shape.  Placement is a
  /// pure function of the shape, so the validity-gate verdict computed on
  /// the fresh run (see PartitionOptions::strategy) is cached alongside
  /// and restored hits never re-validate.
  struct Outcome {
    bool feasible = false;
    /// Partition::validate() diagnostic when the strategy claimed
    /// feasibility but produced an invalid partition; empty otherwise.
    std::string invalid;
  };

  /// On a cluster-shape hit, restores the memoized placement into `part`
  /// and returns its outcome; nullopt on miss.
  std::optional<Outcome> try_restore(Partition& part) const;
  /// Records the placement just computed for `part`'s cluster shape.
  void store(const Partition& part, const Outcome& outcome);

 private:
  static std::vector<int> key(const Partition& part);
  struct KeyHash {
    std::size_t operator()(const std::vector<int>& v) const;
  };
  std::unordered_map<std::vector<int>,
                     std::pair<Outcome, std::vector<ProcessorId>>, KeyHash>
      map_;
};

struct PartitionOutcome {
  bool schedulable = false;
  /// Final placement (valid also on failure, for diagnostics).
  Partition partition;
  /// Per-task WCRT bounds; kTimeInfinity where analysis failed.
  std::vector<Time> wcrt;
  /// Outer rounds executed (processor-grant iterations + 1).
  int rounds = 0;
  /// Oracle wcrt() queries actually issued (cache-skipped tasks excluded).
  std::int64_t oracle_calls = 0;
  /// Why the set was rejected (empty when schedulable).
  std::string failure;
};

struct PartitionOptions {
  ResourcePlacement placement = ResourcePlacement::kWfd;
  /// Placement strategy (never null).  Unless `placement` is kNone, it
  /// places the resources; every placement it produces is checked with
  /// Partition::validate() *before* any analysis runs — an invalid
  /// partition rejects the task set with a "produced an invalid
  /// partition" failure instead of feeding the oracle garbage.
  const PlacementStrategy* strategy = &placement_strategy(PlacementKind::kWfd);
  /// Task indices in decreasing base-priority order, precomputed by the
  /// caller (e.g. an AnalysisSession shared across analyses); must equal
  /// analysis_priority_order(ts).  nullptr = computed internally.
  const std::vector<int>* priority_order = nullptr;
  /// Optional placement memo (session-owned, one per strategy
  /// cache_key()); nullptr = no caching.
  PlacementCache* placement_cache = nullptr;
};

/// Task indices sorted by decreasing base priority — the order Algorithm 1
/// analyses tasks in.
std::vector<int> analysis_priority_order(const TaskSet& ts);

PartitionOutcome partition_and_analyze(const TaskSet& ts, int m,
                                       WcrtOracle& oracle,
                                       const PartitionOptions& options = {});

}  // namespace dpcp
