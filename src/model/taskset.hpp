// A task set plus its shared resources (Sec. II) and the derived
// local/global classification of Sec. III-A.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/task.hpp"

namespace dpcp {

class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(int num_resources) : num_resources_(num_resources) {}

  int num_resources() const { return num_resources_; }
  int size() const { return static_cast<int>(tasks_.size()); }

  DagTask& add_task(Time period, Time deadline);

  /// Adopts a pre-built task (e.g. from the generator); its id is rewritten
  /// to the task's index in this set.  The task's resource arity must match.
  DagTask& adopt_task(DagTask task);

  /// Removes task i; later tasks shift down one index and their ids are
  /// rewritten to match (id == index stays invariant).  Priorities are not
  /// touched — callers relying on Rate-Monotonic priorities reassign them
  /// (AnalysisSession::remove_task() does).
  void remove_task(int i);
  const DagTask& task(int i) const { return tasks_[i]; }
  DagTask& task(int i) { return tasks_[i]; }
  const std::vector<DagTask>& tasks() const { return tasks_; }

  /// Sum of task utilizations.
  double total_utilization() const;

  /// A resource is local iff used by the vertices of a single task
  /// (Sec. III-A); global iff used by more than one task.
  bool is_local(ResourceId q) const { return count_users_to_two(q) <= 1; }
  bool is_global(ResourceId q) const { return count_users_to_two(q) > 1; }
  std::vector<ResourceId> global_resources() const;
  std::vector<ResourceId> local_resources() const;

  /// Resource utilization u^Phi_q = sum_j N_{j,q} L_{j,q} / T_j (Sec. V).
  double resource_utilization(ResourceId q) const;

  /// Priority ceiling user part of Pi_q = pi^H + max_{tau_j in tau(l_q)} pi_j:
  /// the highest base priority among q's users (INT_MIN if unused).
  int ceiling_priority(ResourceId q) const;

  /// Assigns unique Rate-Monotonic base priorities: shorter period -> higher
  /// priority (ties broken by id for determinism).  Larger value = higher.
  void assign_rm_priorities();

  /// Finalizes every task (recomputes aggregates).
  void finalize();

  /// Validates all tasks and priority uniqueness.
  std::optional<std::string> validate() const;

 private:
  /// Number of tasks using q, counted no further than 2.
  int count_users_to_two(ResourceId q) const;

  int num_resources_ = 0;
  std::vector<DagTask> tasks_;
};

}  // namespace dpcp
