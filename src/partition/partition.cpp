#include "partition/partition.hpp"

#include <algorithm>
#include <sstream>

#include "util/table.hpp"

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

std::optional<std::string> Partition::validate(const TaskSet& ts) const {
  if (ts.size() != num_tasks() || ts.num_resources() != num_resources()) {
    return strfmt("partition shape (%d tasks, %d resources) does not match "
                  "the task set (%d, %d)",
                  num_tasks(), num_resources(), ts.size(), ts.num_resources());
  }

  // Cluster well-formedness, plus one record per processor: how many
  // clusters list it, whether one of them is wide, and the utilization of
  // its tasks (in task order) and of its resources (in resource order).
  struct ProcRecord {
    int hosts = 0;
    bool wide_host = false;
    double task_util = 0.0;
    double res_util = 0.0;
  };
  std::vector<ProcRecord> procs(static_cast<std::size_t>(m_));
  for (int i = 0; i < num_tasks(); ++i) {
    const auto& c = cluster(i);
    if (c.empty()) return strfmt("task %d has an empty cluster", i);
    const double util = ts.task(i).utilization();
    for (auto it = c.begin(); it != c.end(); ++it) {
      const ProcessorId p = *it;
      if (p < 0 || p >= m_)
        return strfmt("task %d maps to out-of-range processor %d", i, p);
      if (std::find(c.begin(), it, p) != it)
        return strfmt("task %d lists processor %d twice", i, p);
      ProcRecord& rec = procs[static_cast<std::size_t>(p)];
      ++rec.hosts;
      rec.wide_host = rec.wide_host || c.size() != 1;
      rec.task_util += util;
    }
  }

  // Sharing discipline: a shared processor hosts only single-processor
  // clusters (partitioned light tasks); parallel clusters are dedicated.
  for (ProcessorId p = 0; p < m_; ++p) {
    const ProcRecord& rec = procs[static_cast<std::size_t>(p)];
    if (rec.hosts <= 1 || !rec.wide_host) continue;
    for (int i = 0; i < num_tasks(); ++i) {  // name the first wide host
      const auto& c = cluster(i);
      if (c.size() != 1 && std::find(c.begin(), c.end(), p) != c.end()) {
        return strfmt("processor %d is shared but task %d spans a "
                      "%d-processor cluster",
                      p, i, cluster_size(i));
      }
    }
  }

  // Resource placement: every global resource on exactly one in-range
  // processor (the map representation makes "at most once" structural;
  // unplaced is the failure mode to catch here).
  for (ResourceId q = 0; q < num_resources(); ++q) {
    const ProcessorId p = processor_of_resource(q);
    if (p == kUnassigned) {
      if (ts.is_global(q)) return strfmt("global resource %d is unplaced", q);
      continue;
    }
    if (p < 0 || p >= m_)
      return strfmt("resource %d placed on out-of-range processor %d", q, p);
    procs[static_cast<std::size_t>(p)].res_util += ts.resource_utilization(q);
  }

  // Capacity.  The epsilon absorbs summation-order differences against
  // the strategies' own incremental bookkeeping.
  constexpr double kEps = 1e-9;
  const auto shared = [&procs](ProcessorId p) {
    return procs[static_cast<std::size_t>(p)].hosts > 1;
  };
  for (int i = 0; i < num_tasks(); ++i) {
    const auto& c = cluster(i);
    if (std::any_of(c.begin(), c.end(), shared)) continue;
    double load = ts.task(i).utilization();
    for (ProcessorId p : c) load += procs[static_cast<std::size_t>(p)].res_util;
    if (load > static_cast<double>(c.size()) + kEps) {
      return strfmt("cluster of task %d over capacity: load %g on %d "
                    "processor(s)",
                    i, load, cluster_size(i));
    }
  }
  for (ProcessorId p = 0; p < m_; ++p) {
    const ProcRecord& rec = procs[static_cast<std::size_t>(p)];
    if (rec.hosts <= 1) continue;
    if (rec.task_util > 1.0 + kEps) {
      return strfmt("shared processor %d over capacity: task load %g", p,
                    rec.task_util);
    }
    // Resources on a shared processor are attributed per *cluster* by the
    // placement strategies (each single-processor cluster's load stays
    // <= 1), so the per-processor bound they jointly guarantee is the
    // aggregate one: total task + resource load <= co-hosted task count.
    if (rec.task_util + rec.res_util > static_cast<double>(rec.hosts) + kEps) {
      return strfmt("shared processor %d over capacity: task load %g + "
                    "resource load %g exceeds its %d unit cluster(s)",
                    p, rec.task_util, rec.res_util, rec.hosts);
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
