#include "partition/federated.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "partition/placement.hpp"

namespace dpcp {

int min_federated_processors(const DagTask& task) {
  const Time c = task.wcet();
  const Time l = task.longest_path_length();
  const Time d = task.deadline();
  assert(l < d && "task is infeasible on any number of processors");
  if (c <= d) return 1;  // light task: one processor suffices
  return static_cast<int>(div_ceil(c - l, d - l));
}

Time federated_wcrt_bound(const DagTask& task, int cluster_size) {
  assert(cluster_size >= 1);
  const Time c = task.wcet();
  const Time l = task.longest_path_length();
  return l + div_ceil(c - l, cluster_size);
}

std::optional<Partition> initial_federated_partition(const TaskSet& ts, int m) {
  Partition part(m, ts.size(), ts.num_resources());
  ProcessorId next = 0;

  // Heavy tasks (C > D) get dedicated clusters.
  for (int i = 0; i < ts.size(); ++i) {
    const DagTask& t = ts.task(i);
    if (t.longest_path_length() >= t.deadline()) return std::nullopt;
    if (t.wcet() <= t.deadline()) continue;  // light: packed below
    const int mi = min_federated_processors(t);
    if (next + mi > m) return std::nullopt;
    for (int k = 0; k < mi; ++k) part.add_processor_to_task(i, next++);
  }

  // Light tasks are sequential (Sec. VI): partition them worst-fit
  // decreasing by utilization onto shared processors with a unit-capacity
  // bound; new processors are drawn from the remaining pool.
  std::vector<int> light;
  for (int i = 0; i < ts.size(); ++i)
    if (ts.task(i).wcet() <= ts.task(i).deadline()) light.push_back(i);
  std::sort(light.begin(), light.end(), [&](int a, int b) {
    if (ts.task(a).utilization() != ts.task(b).utilization())
      return ts.task(a).utilization() > ts.task(b).utilization();
    return a < b;
  });
  std::vector<std::pair<ProcessorId, double>> light_procs;  // (proc, load)
  for (int i : light) {
    const double u = ts.task(i).utilization();
    auto best = light_procs.end();
    for (auto it = light_procs.begin(); it != light_procs.end(); ++it) {
      if (it->second + u > 1.0) continue;
      if (best == light_procs.end() || it->second < best->second) best = it;
    }
    if (best == light_procs.end()) {
      if (next >= m) return std::nullopt;
      light_procs.emplace_back(next++, 0.0);
      best = std::prev(light_procs.end());
    }
    part.add_processor_to_task(i, best->first);
    best->second += u;
  }
  return part;
}

std::optional<Partition> baseline_partition(const TaskSet& ts, int m) {
  auto part = initial_federated_partition(ts, m);
  if (!part) return std::nullopt;
  if (!placement_strategy(PlacementKind::kWfd).place_resources(ts, *part))
    return std::nullopt;
  return part;
}

}  // namespace dpcp
