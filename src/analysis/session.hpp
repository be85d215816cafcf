// Per-task-set analysis session: the shared, partition-independent half of
// the two-phase analysis pipeline.
//
// Everything here depends only on the task set — never on a partition — so
// it is computed once per session and reused across every Algorithm-1
// round, every hint iteration, and every analysis kind run on the same
// (paired) task set:
//
//   * complete-path signatures per task (the exponential DAG enumeration
//     that dominated DPCP-p-EP's cost when recomputed per wcrt() call),
//     stored as arena-backed SoA slabs;
//   * the decreasing-priority analysis order of Algorithm 1;
//   * flat per-task period and used/local-resource tables shared by all
//     analysis kinds (the RTA inner loops read periods per contender per
//     fixed-point iteration — a slab load instead of a task-object chase).
//
// The session owns a BumpArena; see util/arena.hpp for the lifetime rules
// (write-once, session-lifetime data only).  The experiment engine
// constructs one session per generated task set and hands it to all five
// analyses; see SchedAnalysis::prepare().  Sessions are single-threaded:
// the engine runs all columns of one task set against one session on one
// worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/paths.hpp"
#include "model/taskset.hpp"
#include "partition/partitioner.hpp"
#include "util/arena.hpp"
#include "util/instrument.hpp"

namespace dpcp {

/// Arena-backed SoA view of one task's path-signature classes: class i has
/// max length `lengths[i]` and request vector
/// `requests[i*stride .. (i+1)*stride)` over `resource_index`.  Mirrors
/// PathEnumResult (model/paths.hpp) with session-owned storage.
struct PathSlab {
  const Time* lengths = nullptr;
  const int* requests = nullptr;
  const ResourceId* resource_index = nullptr;
  std::size_t count = 0;
  std::size_t stride = 0;
  std::int64_t paths_visited = 0;
  bool truncated = false;

  std::size_t size() const { return count; }
  const int* requests_of(std::size_t i) const { return requests + i * stride; }
};

/// Tag selecting the mutable-session constructor below.
struct AllowMutation {};

class AnalysisSession {
 public:
  /// `ts` must outlive the session and stay structurally unmodified.
  explicit AnalysisSession(const TaskSet& ts)
      : ts_(ts),
        resource_epochs_(static_cast<std::size_t>(ts.num_resources()), 0) {}

  /// Mutable session: `ts` must outlive the session and may only be
  /// modified *through* add_task()/remove_task() below, which keep the
  /// slabs, the priority order, and the invalidation epochs consistent.
  AnalysisSession(TaskSet& ts, AllowMutation)
      : ts_(ts),
        mutable_ts_(&ts),
        resource_epochs_(static_cast<std::size_t>(ts.num_resources()), 0) {}

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  const TaskSet& taskset() const { return ts_; }

  // --- mutation contract (mutable sessions only) --------------------------
  //
  // Every mutation extends/shrinks the SoA slabs in place, bumps the
  // user-set epoch of each resource whose user set changed (prepared
  // analyses mix these epochs into their per-task partition-input tokens,
  // so exactly the tasks whose cross-task reads are affected re-analyze),
  // reassigns unique Rate-Monotonic priorities by an incremental update of
  // the cached priority order, and advances mutation_seq().  Removing any
  // task but the last renumbers the survivors (remap_seq() advances too)
  // and prepared analyses resynchronize wholesale on their next bind().
  // Superseded arena slabs leak until the session dies — bounded by churn,
  // the price of write-once slabs (documented in docs/architecture.md).

  bool is_mutable() const { return mutable_ts_ != nullptr; }

  /// Adopts `task` (arity must match) as the new last index and returns
  /// that index.  Requires a mutable session.
  int add_task(DagTask task);

  /// Removes task `task`; later indices shift down one, mirroring
  /// TaskSet::remove_task().  Requires a mutable session.
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

  /// Complete-path signatures of `task`, enumerated with complete-path
  /// budget `max_paths` on first use and cached — keyed by (task,
  /// budget) — for the session's lifetime.  Results are bit-identical to calling
  /// enumerate_path_signatures() directly.  In practice every caller in
  /// one session uses one budget; a second budget enumerates once and
  /// caches alongside (counted by budget_reenumerations(), not thrashing
  /// the first entry like the pre-slab session did).
  const PathSlab& paths(int task, std::int64_t max_paths);

  /// Task indices in decreasing base-priority order (Algorithm 1's
  /// analysis order), computed once.
  const std::vector<int>& priority_order();

  /// Per-task periods as one flat slab (index = task), for the RTA window
  /// loops.
  const Time* periods();

  /// used_resources() of `task`, computed once per session into the arena
  /// and shared by every analysis kind.
  const Slab<ResourceId>& used_resources(int task);
  /// The local-resource subset of used_resources(task).
  const Slab<ResourceId>& local_resources(int task);

  /// Path enumerations performed so far (telemetry: sessions exist to keep
  /// this at <= one per (task, budget)).
  std::int64_t path_enumerations() const { return path_enumerations_; }

  /// Of those, enumerations for a task that already had results cached
  /// under a *different* budget.  A sweep that keeps one budget per
  /// session — every default sweep — must keep this at zero; a nonzero
  /// value means some caller re-enumerates paths by varying max_paths
  /// mid-session (the silent cost the old single-budget cache hid).
  std::int64_t budget_reenumerations() const { return budget_reenumerations_; }

  /// Placement memo for one strategy identity (PlacementStrategy::
  /// cache_key()), shared by every analysis run on this task set.  Memos
  /// are keyed by strategy so a sweep's placement axis can never leak one
  /// strategy's placements into another's rounds.
  PlacementCache& placement_cache(const std::string& strategy_key) {
    return placement_caches_[strategy_key];
  }

  /// The session arena: write-once storage for analysis statics that
  /// share the session's lifetime (see util/arena.hpp).
  BumpArena& arena() { return arena_; }

  /// Response-memo counters, summed over every wcrt() on this session.
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct PathsEntry {
    std::int64_t budget = 0;
    PathSlab slab;
  };

  void ensure_task_tables();
  /// Recomputes locals_[i] from used_[i] (a fresh arena copy; the old slab
  /// leaks) after a resource's local/global classification flipped.
  void refresh_locals(int i);
  /// Rewrites every task's priority from the cached order_ (position r ->
  /// priority n - r), the incremental equivalent of assign_rm_priorities().
  void priorities_from_order();

  const TaskSet& ts_;
  TaskSet* mutable_ts_ = nullptr;
  BumpArena arena_;
  CacheStats stats_;
  std::unordered_map<std::string, PlacementCache> placement_caches_;
  /// Per task: one entry per distinct budget (almost always exactly one).
  /// Entries are pointer-stable (unique_ptr) so handed-out PathSlab
  /// references survive later paths() calls; the slab data itself lives
  /// in the arena.
  std::vector<std::vector<std::unique_ptr<PathsEntry>>> paths_;
  std::vector<int> order_;
  bool order_ready_ = false;
  Slab<Time> periods_;
  std::vector<Slab<ResourceId>> used_;
  std::vector<Slab<ResourceId>> locals_;
  bool task_tables_ready_ = false;
  std::vector<std::uint32_t> resource_epochs_;
  std::uint64_t mutation_seq_ = 0;
  std::uint64_t remap_seq_ = 0;
  std::int64_t path_enumerations_ = 0;
  std::int64_t budget_reenumerations_ = 0;
};

}  // namespace dpcp
