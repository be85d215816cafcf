// Per-task-set analysis session: the shared, partition-independent half of
// the two-phase analysis pipeline.
//
// The session holds analysis state only; the task facts it is computed
// from (periods, used and local resources, N_{i,q}, L_{i,q}) are read from
// the DagTask and TaskSet that own them.  Everything here depends only on
// the task set -- never on a partition -- so it is computed once and
// reused across every Algorithm-1 round, every hint iteration, and every
// analysis kind run on the same (paired) task set:
//
//   * one PathEnumResult per task: the complete-path signatures (the
//     exponential DAG enumeration that dominated DPCP-p-EP's cost when
//     recomputed per wcrt() call), freed when the task is removed;
//   * the decreasing-priority analysis order of Algorithm 1;
//   * the placement memos, one per strategy;
//   * the per-resource user-set epochs of a mutable session.
//
// The experiment engine constructs one session per generated task set and
// hands it to all five analyses; see SchedAnalysis::prepare().  Sessions
// are single-threaded: the engine runs all columns of one task set against
// one session on one worker.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/paths.hpp"
#include "model/taskset.hpp"
#include "partition/partitioner.hpp"
#include "util/instrument.hpp"

namespace dpcp {

/// Tag selecting the mutable-session constructor below.
struct AllowMutation {};

class AnalysisSession {
 public:
  /// `ts` must outlive the session and stay structurally unmodified.
  explicit AnalysisSession(const TaskSet& ts)
      : ts_(ts),
        paths_(static_cast<std::size_t>(ts.size())),
        resource_epochs_(static_cast<std::size_t>(ts.num_resources()), 0) {}

  /// Mutable session: `ts` must outlive the session and may only be
  /// modified *through* add_task()/remove_task() below, which keep the
  /// path entries, the priority order, and the invalidation epochs
  /// consistent.
  AnalysisSession(TaskSet& ts, AllowMutation)
      : ts_(ts),
        mutable_ts_(&ts),
        paths_(static_cast<std::size_t>(ts.size())),
        resource_epochs_(static_cast<std::size_t>(ts.num_resources()), 0) {}

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  const TaskSet& taskset() const { return ts_; }

  // --- mutation contract (mutable sessions only) --------------------------
  //
  // Every mutation adds or frees the task's path entry, bumps the
  // user-set epoch of each resource whose user set changed (prepared
  // analyses mix these epochs into their per-task partition-input tokens,
  // so exactly the tasks whose cross-task reads are affected re-analyze),
  // reassigns unique Rate-Monotonic priorities by an incremental update of
  // the cached priority order, and advances mutation_seq().  Removing any
  // task but the last renumbers the survivors (remap_seq() advances too)
  // and prepared analyses resynchronize wholesale on their next bind().

  /// Adopts `task` (arity must match) as the new last index and returns
  /// that index.  Requires a mutable session.
  int add_task(DagTask task);

  /// Removes task `task` and frees its path entry; later indices shift
  /// down one, mirroring TaskSet::remove_task().  Requires a mutable
  /// session.
  void remove_task(int task);

  /// Monotone counter of mutations; prepared analyses compare it against
  /// the value they last reconciled with.
  std::uint64_t mutation_seq() const { return mutation_seq_; }
  /// mutation_seq() value of the last index-renumbering mutation (0 =
  /// never): a prepared analysis whose reconciled seq is older must drop
  /// all per-index state instead of diffing.
  std::uint64_t remap_seq() const { return remap_seq_; }
  /// Bumped whenever resource q's user set changes; tokenized by prepared
  /// analyses to invalidate cross-task contention reads.
  std::uint32_t resource_users_epoch(ResourceId q) const {
    return resource_epochs_[static_cast<std::size_t>(q)];
  }

  /// Complete-path signatures of `task` under complete-path budget
  /// `max_paths` (> 0), enumerated on first use and kept until the task
  /// is removed.  Results are bit-identical to calling
  /// enumerate_path_signatures() directly.  Every caller in one session
  /// uses one budget; a call with another budget enumerates again and
  /// replaces the task's entry.  The reference stays valid until the next
  /// mutation, or until the next call for `task` with another budget.
  const PathEnumResult& paths(int task, std::int64_t max_paths);

  /// Task indices in decreasing base-priority order (Algorithm 1's
  /// analysis order), computed once.
  const std::vector<int>& priority_order();

  /// Path enumerations performed so far (telemetry: sessions exist to keep
  /// this at one per task).
  std::int64_t path_enumerations() const { return path_enumerations_; }

  /// Placement memo for one strategy identity (PlacementStrategy::
  /// cache_key()), shared by every analysis run on this task set.  Memos
  /// are keyed by strategy so a sweep's placement axis can never leak one
  /// strategy's placements into another's rounds.
  PlacementCache& placement_cache(const std::string& strategy_key) {
    return placement_caches_[strategy_key];
  }

  /// Response-memo counters, summed over every wcrt() on this session.
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct PathsEntry {
    std::int64_t budget = 0;  // 0: not enumerated yet
    PathEnumResult result;
  };

  /// Rewrites every task's priority from the cached order_ (position r ->
  /// priority n - r), the incremental equivalent of assign_rm_priorities().
  void priorities_from_order();

  const TaskSet& ts_;
  TaskSet* mutable_ts_ = nullptr;
  CacheStats stats_;
  std::unordered_map<std::string, PlacementCache> placement_caches_;
  std::vector<PathsEntry> paths_;  // index = task
  std::vector<int> order_;
  bool order_ready_ = false;
  std::vector<std::uint32_t> resource_epochs_;
  std::uint64_t mutation_seq_ = 0;
  std::uint64_t remap_seq_ = 0;
  std::int64_t path_enumerations_ = 0;
};

}  // namespace dpcp
