// Task and global-resource placement state (Sec. III-A / Sec. V).
//
// Under federated scheduling each heavy task owns a *cluster* of dedicated
// processors; under DPCP-p every global resource is additionally pinned to
// one processor (possibly inside some task's cluster), where an RPC-like
// agent executes all requests to it.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <vector>

#include "model/taskset.hpp"

namespace dpcp {

using ProcessorId = int;

class Partition {
 public:
  Partition() = default;
  Partition(int num_processors, int num_tasks, int num_resources)
      : m_(num_processors),
        clusters_(static_cast<std::size_t>(num_tasks)),
        resource_proc_(static_cast<std::size_t>(num_resources), kUnassigned) {}

  static constexpr ProcessorId kUnassigned = -1;

  int num_processors() const { return m_; }
  int num_tasks() const { return static_cast<int>(clusters_.size()); }
  int num_resources() const { return static_cast<int>(resource_proc_.size()); }

  // --- task clusters -----------------------------------------------------
  /// Processors dedicated to task i (the cluster of tau_i).
  const std::vector<ProcessorId>& cluster(int task) const {
    return clusters_[static_cast<std::size_t>(task)];
  }
  /// m_i.
  int cluster_size(int task) const {
    return static_cast<int>(cluster(task).size());
  }
  void add_processor_to_task(int task, ProcessorId p) {
    assert(p >= 0 && p < m_);
    clusters_[static_cast<std::size_t>(task)].push_back(p);
  }
  /// Task owning processor p, or -1 if p is spare.  If several (light)
  /// tasks share p, the first by index is returned; prefer
  /// tasks_on_processor() in mixed settings.
  int task_of_processor(ProcessorId p) const;
  /// All tasks whose cluster contains p (more than one only for shared
  /// light-task processors, Sec. VI).
  std::vector<int> tasks_on_processor(ProcessorId p) const;
  /// True when more than one task is mapped to p.
  bool processor_shared(ProcessorId p) const;
  /// True when any processor of task i's cluster is shared with another
  /// task.  Shared tasks are the partitioned light tasks of Sec. VI and
  /// are treated as sequential by analysis and simulator alike.
  bool task_shares_processor(int task) const {
    for (ProcessorId p : cluster(task))
      if (processor_shared(p)) return true;
    return false;
  }
  /// Replaces task i's cluster entirely (used when promoting a light task
  /// from a shared processor to a dedicated one).
  void set_cluster(int task, std::vector<ProcessorId> procs);
  /// Grants processor p to task i under Algorithm 1's rule: a task on a
  /// shared processor is sequential, so extra processors cannot help it
  /// in place and it moves to p alone; a dedicated cluster grows by p.
  void grant(int task, ProcessorId p) {
    if (task_shares_processor(task)) {
      set_cluster(task, {p});
    } else {
      add_processor_to_task(task, p);
    }
  }
  /// Appends an empty cluster slot for a newly admitted task (its index is
  /// the previous num_tasks()).  The slot must be populated before
  /// validate() — empty clusters are invalid.
  void append_task_slot() { clusters_.emplace_back(); }
  /// Erases task i's cluster slot; later tasks shift down one index,
  /// mirroring TaskSet::remove_task().  Freed processors become spare;
  /// resources placed on them stay put (a processor hosting only agents is
  /// a valid dedicated synchronization processor).
  void erase_task_slot(int task) {
    assert(task >= 0 && task < num_tasks());
    clusters_.erase(clusters_.begin() + task);
  }
  /// Total processors currently hosting at least one task.
  int assigned_processors() const {
    return m_ - static_cast<int>(spare_processors().size());
  }
  /// Processors hosting no task, in increasing id order.
  std::vector<ProcessorId> spare_processors() const;

  // --- resource placement -------------------------------------------------
  ProcessorId processor_of_resource(ResourceId q) const {
    return resource_proc_[static_cast<std::size_t>(q)];
  }
  void assign_resource(ResourceId q, ProcessorId p) {
    assert(p >= 0 && p < m_);
    resource_proc_[static_cast<std::size_t>(q)] = p;
  }
  /// Drops every resource placement (Algorithm 1's rollback step).
  void clear_resource_assignment() {
    std::fill(resource_proc_.begin(), resource_proc_.end(), kUnassigned);
  }
  /// The full resource-to-processor map (kUnassigned where unplaced).
  const std::vector<ProcessorId>& resource_assignment() const {
    return resource_proc_;
  }
  /// Restores a complete placement previously read via
  /// resource_assignment() (the WFD memo's fast path).
  void restore_resource_assignment(const std::vector<ProcessorId>& map) {
    assert(map.size() == resource_proc_.size());
    resource_proc_ = map;
  }
  /// Phi(p_k): resources placed on processor k.
  std::vector<ResourceId> resources_on_processor(ProcessorId p) const;

  /// Checks the structural invariants every placement strategy and the
  /// federated allocator must preserve:
  ///
  ///   * every task has a nonempty, duplicate-free cluster of in-range
  ///     processors;
  ///   * clusters are disjoint, except that a processor may be shared by
  ///     several *single-processor* clusters (the partitioned light tasks
  ///     of Sec. VI);
  ///   * every global resource of `ts` is placed on exactly one in-range
  ///     processor (locals may stay unplaced);
  ///   * no cluster is over capacity: for each task with a dedicated
  ///     cluster, task utilization plus the utilization of the resources
  ///     placed inside the cluster fits the cluster's processor count
  ///     (Algorithm 2's feasibility rule); each shared light processor
  ///     fits the utilizations of the tasks packed on it, and its total
  ///     task + resource load fits the aggregate capacity of its
  ///     co-hosted unit clusters (the bound the placement strategies'
  ///     per-cluster accounting jointly guarantees — a strict <= 1
  ///     per-processor check would reject placements Algorithm 2 itself
  ///     produces in the Sec. VI mixed setting).
  ///
  /// Returns an error description, or nullopt when valid.
  std::optional<std::string> validate(const TaskSet& ts) const;

  std::string to_string() const;

  /// Same processor count, same clusters (each in order) and same
  /// resource map.
  bool operator==(const Partition& o) const {
    return m_ == o.m_ && clusters_ == o.clusters_ &&
           resource_proc_ == o.resource_proc_;
  }

 private:
  int m_ = 0;
  std::vector<std::vector<ProcessorId>> clusters_;
  std::vector<ProcessorId> resource_proc_;
};

}  // namespace dpcp
