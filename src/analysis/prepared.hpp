// Base class of the per-partition query objects the analyses hand to
// Algorithm 1 (the partition-dependent half of the two-phase pipeline).
//
// A PreparedAnalysis is created once per (analysis, task set) from
// SchedAnalysis::prepare() and then queried across every round of
// partition_and_analyze().  It implements the cross-round invalidation
// protocol of WcrtOracle generically: each bind() serializes, per task,
// everything the concrete analysis reads from the partition (the
// "partition inputs" — cluster membership, co-hosted tasks, resource
// placement, contending cluster sizes, ... as declared by the subclass)
// and diffs it against the previous round.  Tasks whose inputs are
// unchanged report task_unchanged() — letting the partitioning loop skip
// them outright — while changed tasks get their cached contention
// structures dropped through the invalidate() hook.
//
// Before any inputs are serialized, bind() also indexes the partition's
// hosts once: per processor, the tasks whose clusters list it, in
// increasing task index.  The co-hosted tokens, the shared-processor test
// and the preemption demand of every analysis read this index instead of
// rescanning every cluster once per task.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/rta_common.hpp"
#include "analysis/session.hpp"
#include "partition/partitioner.hpp"
#include "util/slab.hpp"

namespace dpcp {

class PreparedAnalysis : public WcrtOracle {
 public:
  explicit PreparedAnalysis(AnalysisSession& session);

  void bind(const Partition& part) override;
  bool task_unchanged(int task) const override;

  /// May wcrt(task, hint) read the hint entry of any task flagged in
  /// `changed` (indexed by task, sized ts.size())?  Callers replaying a
  /// previous evaluation pass use this to reuse a token-unchanged task's
  /// bound even though some *other* task's bound deviated: if none of the
  /// deviating tasks is in `task`'s contender lists, its inputs are
  /// bit-identical to the previous pass.  Only meaningful while
  /// task_unchanged(task) holds.  Conservative default: yes (no reuse).
  virtual bool result_depends_on(int /*task*/,
                                 const std::vector<char>& /*changed*/) const {
    return true;
  }

  /// Telemetry of the cross-round diffing (read by test_opt's
  /// diff-contract test and an online stream's slab counters): how
  /// many partitions were bound and, summed over binds, how many
  /// per-task diffs certified the inputs unchanged (re-analysis
  /// avoidable) vs. dropped cached state through invalidate().
  std::int64_t binds() const { return binds_; }
  std::int64_t diffs_unchanged() const { return diffs_unchanged_; }
  std::int64_t diffs_invalidated() const { return diffs_invalidated_; }

 protected:
  /// Serializes everything wcrt(task, ·) reads from `part` into `out`
  /// (cleared by the caller).  Two equal token streams MUST imply equal
  /// wcrt() results for equal hints; missing a dependency makes the
  /// cross-round skip unsound.  Section lengths are encoded alongside
  /// values so adjacent variable-length sections cannot alias.
  virtual void partition_inputs(const Partition& part, int task,
                                std::vector<Time>* out) const = 0;

  /// Invoked from bind() for every task whose partition inputs changed
  /// (and for every task on the first bind); subclasses drop the task's
  /// cached partition-dependent state here.
  virtual void invalidate(int /*task*/) {}

  /// Invoked from bind() when the session's task set was mutated since the
  /// last bind, *before* partition_inputs() runs (so subclasses that
  /// serialize eager statics rebuild them first).  Subclasses resize every
  /// per-task container to the new task count and drop all per-task
  /// partition-dependent state — mutation epochs and the span diff below
  /// decide which tasks then skip re-analysis; stale caches must never.
  /// `remap` is true when task indices were renumbered (mid-set removal):
  /// the base class additionally forgets the previous token stream, so
  /// every task re-analyzes on this bind.
  virtual void on_taskset_changed(bool remap) = 0;

  // --- host index of the bound partition ---------------------------------
  /// Tasks whose cluster lists processor p, in increasing task index
  /// (Partition::tasks_on_processor() without the scan).
  Slab<const int> hosts(ProcessorId p) const {
    const std::size_t up = static_cast<std::size_t>(p);
    return {host_tasks_.data() + host_off_[up],
            host_off_[up + 1] - host_off_[up]};
  }
  /// True when a processor of task i's cluster hosts another task too
  /// (Partition::task_shares_processor() without the scan).
  bool shares_processor(int i) const;
  /// Higher-priority tasks co-hosted with tau_i, as (task, C_j, T_j) in
  /// (cluster processor, task) order.  Non-empty only for light tasks on
  /// shared processors (Sec. VI extension): under partitioned
  /// fixed-priority scheduling they preempt tau_i for up to eta_j(r) * C_j
  /// within its response window.
  void preemption_demand(int i, DemandSoA* out) const;

  // --- token helpers for partition_inputs() ------------------------------
  /// Task `i`'s cluster: size then processor ids.
  static void append_cluster(const Partition& part, int i,
                             std::vector<Time>* out);
  /// Tasks co-hosted with `i` (sharing any of its processors): per cluster
  /// processor, count then task indices.  Captures the inputs of
  /// preemption_demand() and shares_processor().
  void append_cohosted(const Partition& part, int i,
                       std::vector<Time>* out) const;
  /// The full resource-to-processor map.
  static void append_placement(const Partition& part, std::vector<Time>* out);
  /// The session user-set epoch of resource q.  A subclass whose
  /// wcrt(task, ·) reads *other* tasks' membership in q's user set (spin
  /// contenders, agent demand, ceiling sets, ...) must tokenize the epoch
  /// of every such q: session mutations bump exactly the epochs of the
  /// resources whose user sets changed, so the span diff re-analyzes
  /// exactly the affected tasks.  Constant 0 on immutable sessions.
  void append_users_epoch(ResourceId q, std::vector<Time>* out) const {
    out->push_back(static_cast<Time>(session_.resource_users_epoch(q)));
  }

  AnalysisSession& session_;
  const TaskSet& ts_;

 private:
  /// Counting-sorts the clusters of `part` into host_off_/host_tasks_.
  void index_hosts(const Partition& part);

  // Host index: processor p's tasks are
  // host_tasks_[host_off_[p], host_off_[p + 1]).
  std::vector<std::uint32_t> host_off_;
  std::vector<int> host_tasks_;

  // Double-buffered flat token streams: the previous round's inputs live
  // concatenated in prev_tokens_ with per-task [prev_off_[i], prev_off_[i+1])
  // ranges; each bind() serializes into cur_* and diffs span-against-span,
  // then the buffers swap.  One allocation steady-state per bind instead of
  // one vector copy per changed task.
  std::vector<Time> prev_tokens_, cur_tokens_;
  std::vector<std::uint32_t> prev_off_, cur_off_;
  std::vector<char> unchanged_;
  bool bound_once_ = false;
  std::uint64_t seen_mutation_seq_ = 0;
  std::int64_t binds_ = 0;
  std::int64_t diffs_unchanged_ = 0;
  std::int64_t diffs_invalidated_ = 0;
};

}  // namespace dpcp
