#include "model/taskset.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <numeric>
#include <set>
#include <sstream>

namespace dpcp {

DagTask& TaskSet::add_task(Time period, Time deadline) {
  tasks_.emplace_back(size(), period, deadline, num_resources_);
  return tasks_.back();
}

DagTask& TaskSet::adopt_task(DagTask task) {
  assert(task.num_resources() == num_resources_);
  task.set_id(size());
  tasks_.push_back(std::move(task));
  return tasks_.back();
}

void TaskSet::remove_task(int i) {
  assert(i >= 0 && i < size());
  tasks_.erase(tasks_.begin() + i);
  for (int j = i; j < size(); ++j) tasks_[static_cast<std::size_t>(j)].set_id(j);
}

double TaskSet::total_utilization() const {
  double u = 0.0;
  for (const auto& t : tasks_) u += t.utilization();
  return u;
}

int TaskSet::count_users_to_two(ResourceId q) const {
  int n = 0;
  for (const auto& t : tasks_)
    if (t.uses(q) && ++n == 2) break;
  return n;
}

std::vector<ResourceId> TaskSet::global_resources() const {
  std::vector<ResourceId> out;
  for (ResourceId q = 0; q < num_resources_; ++q)
    if (is_global(q)) out.push_back(q);
  return out;
}

std::vector<ResourceId> TaskSet::local_resources() const {
  std::vector<ResourceId> out;
  for (ResourceId q = 0; q < num_resources_; ++q)
    if (count_users_to_two(q) == 1) out.push_back(q);
  return out;
}

double TaskSet::resource_utilization(ResourceId q) const {
  double u = 0.0;
  for (const auto& t : tasks_)
    u += static_cast<double>(t.usage(q).demand()) /
         static_cast<double>(t.period());
  return u;
}

int TaskSet::ceiling_priority(ResourceId q) const {
  int best = INT_MIN;
  for (const auto& t : tasks_)
    if (t.uses(q)) best = std::max(best, t.priority());
  return best;
}

void TaskSet::assign_rm_priorities() {
  std::vector<int> order(static_cast<std::size_t>(size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (tasks_[a].period() != tasks_[b].period())
      return tasks_[a].period() < tasks_[b].period();
    return tasks_[a].id() < tasks_[b].id();
  });
  // order[0] has the shortest period: highest priority = size().
  for (int rank = 0; rank < size(); ++rank)
    tasks_[order[rank]].set_priority(size() - rank);
}

void TaskSet::finalize() {
  for (auto& t : tasks_) t.finalize();
}

std::optional<std::string> TaskSet::validate() const {
  std::set<int> prios;
  for (const auto& t : tasks_) {
    if (auto err = t.validate()) return err;
    if (t.num_resources() != num_resources_) {
      std::ostringstream os;
      os << "task " << t.id() << ": resource arity mismatch";
      return os.str();
    }
    if (!prios.insert(t.priority()).second) {
      std::ostringstream os;
      os << "task " << t.id() << ": duplicate base priority " << t.priority();
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace dpcp
