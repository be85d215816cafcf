#include "partition/partition.hpp"

#include <algorithm>
#include <sstream>

namespace dpcp {

int Partition::task_of_processor(ProcessorId p) const {
  for (int i = 0; i < num_tasks(); ++i) {
    const auto& c = clusters_[static_cast<std::size_t>(i)];
    if (std::find(c.begin(), c.end(), p) != c.end()) return i;
  }
  return -1;
}

std::vector<int> Partition::tasks_on_processor(ProcessorId p) const {
  std::vector<int> out;
  for (int i = 0; i < num_tasks(); ++i) {
    const auto& c = clusters_[static_cast<std::size_t>(i)];
    if (std::find(c.begin(), c.end(), p) != c.end()) out.push_back(i);
  }
  return out;
}

bool Partition::processor_shared(ProcessorId p) const {
  int hosts = 0;
  for (const auto& c : clusters_)
    if (std::find(c.begin(), c.end(), p) != c.end() && ++hosts > 1)
      return true;
  return false;
}

void Partition::set_cluster(int task, std::vector<ProcessorId> procs) {
  clusters_[static_cast<std::size_t>(task)] = std::move(procs);
}

std::vector<ProcessorId> Partition::spare_processors() const {
  std::vector<char> used(static_cast<std::size_t>(m_), 0);
  for (const auto& c : clusters_)
    for (ProcessorId p : c) used[static_cast<std::size_t>(p)] = 1;
  std::vector<ProcessorId> out;
  for (ProcessorId p = 0; p < m_; ++p)
    if (!used[static_cast<std::size_t>(p)]) out.push_back(p);
  return out;
}

std::vector<ResourceId> Partition::resources_on_processor(ProcessorId p) const {
  std::vector<ResourceId> out;
  for (ResourceId q = 0; q < num_resources(); ++q)
    if (resource_proc_[static_cast<std::size_t>(q)] == p) out.push_back(q);
  return out;
}

std::vector<ResourceId> Partition::resources_colocated_with(ResourceId q) const {
  const ProcessorId p = processor_of_resource(q);
  if (p == kUnassigned) return {q};
  return resources_on_processor(p);
}

std::vector<ResourceId> Partition::resources_on_cluster(int task) const {
  const std::vector<ProcessorId>& c = cluster(task);
  std::vector<ResourceId> out;
  for (ResourceId q = 0; q < num_resources(); ++q)
    if (std::find(c.begin(), c.end(), processor_of_resource(q)) != c.end())
      out.push_back(q);
  return out;
}

std::optional<std::string> Partition::validate(const TaskSet& ts) const {
  std::ostringstream err;
  if (ts.size() != num_tasks() || ts.num_resources() != num_resources()) {
    err << "partition shape (" << num_tasks() << " tasks, " << num_resources()
        << " resources) does not match the task set (" << ts.size() << ", "
        << ts.num_resources() << ")";
    return err.str();
  }

  // Cluster well-formedness, plus the per-processor host lists.
  std::vector<std::vector<int>> hosts(static_cast<std::size_t>(m_));
  for (int i = 0; i < num_tasks(); ++i) {
    const auto& c = cluster(i);
    if (c.empty()) {
      err << "task " << i << " has an empty cluster";
      return err.str();
    }
    for (std::size_t k = 0; k < c.size(); ++k) {
      const ProcessorId p = c[k];
      if (p < 0 || p >= m_) {
        err << "task " << i << " maps to out-of-range processor " << p;
        return err.str();
      }
      if (std::find(c.begin(), c.begin() + static_cast<long>(k), p) !=
          c.begin() + static_cast<long>(k)) {
        err << "task " << i << " lists processor " << p << " twice";
        return err.str();
      }
      hosts[static_cast<std::size_t>(p)].push_back(i);
    }
  }

  // Sharing discipline: a shared processor hosts only single-processor
  // clusters (partitioned light tasks); parallel clusters are dedicated.
  for (ProcessorId p = 0; p < m_; ++p) {
    const auto& on_p = hosts[static_cast<std::size_t>(p)];
    if (on_p.size() <= 1) continue;
    for (int i : on_p) {
      if (cluster_size(i) != 1) {
        err << "processor " << p << " is shared but task " << i
            << " spans a " << cluster_size(i) << "-processor cluster";
        return err.str();
      }
    }
  }

  // Resource placement: every global resource on exactly one in-range
  // processor (the map representation makes "at most once" structural;
  // unplaced is the failure mode to catch here).
  std::vector<double> proc_res_util(static_cast<std::size_t>(m_), 0.0);
  for (ResourceId q = 0; q < num_resources(); ++q) {
    const ProcessorId p = processor_of_resource(q);
    if (p == kUnassigned) {
      if (ts.is_global(q)) {
        err << "global resource " << q << " is unplaced";
        return err.str();
      }
      continue;
    }
    if (p < 0 || p >= m_) {
      err << "resource " << q << " placed on out-of-range processor " << p;
      return err.str();
    }
    proc_res_util[static_cast<std::size_t>(p)] += ts.resource_utilization(q);
  }

  // Capacity.  The epsilon absorbs summation-order differences against
  // the strategies' own incremental bookkeeping.
  constexpr double kEps = 1e-9;
  for (int i = 0; i < num_tasks(); ++i) {
    if (task_shares_processor(i)) continue;
    double load = ts.task(i).utilization();
    for (ProcessorId p : cluster(i))
      load += proc_res_util[static_cast<std::size_t>(p)];
    if (load > static_cast<double>(cluster_size(i)) + kEps) {
      err << "cluster of task " << i << " over capacity: load " << load
          << " on " << cluster_size(i) << " processor(s)";
      return err.str();
    }
  }
  for (ProcessorId p = 0; p < m_; ++p) {
    const auto& on_p = hosts[static_cast<std::size_t>(p)];
    if (on_p.size() <= 1) continue;
    double load = 0.0;
    for (int i : on_p) load += ts.task(i).utilization();
    if (load > 1.0 + kEps) {
      err << "shared processor " << p << " over capacity: task load " << load;
      return err.str();
    }
    // Resources on a shared processor are attributed per *cluster* by the
    // placement strategies (each single-processor cluster's load stays
    // <= 1), so the per-processor bound they jointly guarantee is the
    // aggregate one: total task + resource load <= co-hosted task count.
    if (load + proc_res_util[static_cast<std::size_t>(p)] >
        static_cast<double>(on_p.size()) + kEps) {
      err << "shared processor " << p << " over capacity: task load " << load
          << " + resource load " << proc_res_util[static_cast<std::size_t>(p)]
          << " exceeds its " << on_p.size() << " unit cluster(s)";
      return err.str();
    }
  }
  return std::nullopt;
}

std::string Partition::to_string() const {
  std::ostringstream os;
  os << "Partition(m=" << m_;
  for (int i = 0; i < num_tasks(); ++i) {
    os << "; tau" << i << "->{";
    for (std::size_t k = 0; k < clusters_[static_cast<std::size_t>(i)].size(); ++k) {
      if (k) os << ',';
      os << clusters_[static_cast<std::size_t>(i)][k];
    }
    os << '}';
  }
  for (ResourceId q = 0; q < num_resources(); ++q)
    if (resource_proc_[static_cast<std::size_t>(q)] != kUnassigned)
      os << "; l" << q << "->p" << resource_proc_[static_cast<std::size_t>(q)];
  os << ')';
  return os.str();
}

}  // namespace dpcp
