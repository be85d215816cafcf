#include "analysis/rta_common.hpp"

#include <algorithm>
#include <climits>

namespace dpcp {

void ContentionTables::fill(const TaskSet& ts, const Partition& part, int i) {
  const DagTask& ti = ts.task(i);
  const int m = part.num_processors();
  const std::size_t nr = static_cast<std::size_t>(ts.num_resources());

  users_.assign(nr, 0);
  ceiling_.assign(nr, INT_MIN);
  for (const DagTask& tj : ts.tasks())
    for (ResourceId q : tj.used_resources()) {
      const std::size_t uq = static_cast<std::size_t>(q);
      ++users_[uq];
      ceiling_[uq] = std::max(ceiling_[uq], tj.priority());
    }
  // The processor hosting q if q is global, else kUnassigned.
  const auto global_host = [&](ResourceId q) {
    return users_[static_cast<std::size_t>(q)] > 1
               ? part.processor_of_resource(q)
               : Partition::kUnassigned;
  };

  // Counting sort of the globals by host: cursor_[p] ends as the end of
  // processor p's bucket, which is also where bucket p + 1 begins.
  cursor_.assign(static_cast<std::size_t>(m) + 1, 0);
  for (ResourceId q = 0; q < ts.num_resources(); ++q) {
    const ProcessorId p = global_host(q);
    if (p != Partition::kUnassigned) ++cursor_[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t p = 1; p <= static_cast<std::size_t>(m); ++p)
    cursor_[p] += cursor_[p - 1];
  globals.resize(cursor_[static_cast<std::size_t>(m)]);
  const std::vector<ProcessorId>& cluster = part.cluster(i);
  cluster_globals.clear();
  for (ResourceId q = 0; q < ts.num_resources(); ++q) {
    const ProcessorId p = global_host(q);
    if (p == Partition::kUnassigned) continue;
    globals[cursor_[static_cast<std::size_t>(p)]++] = q;
    if (std::find(cluster.begin(), cluster.end(), p) != cluster.end())
      cluster_globals.push_back(q);
  }

  procs.clear();
  hp.clear();
  other.clear();
  std::uint32_t gbeg = 0;
  for (ProcessorId p = 0; p < m; ++p) {
    const std::uint32_t gend = cursor_[static_cast<std::size_t>(p)];
    if (gbeg == gend) continue;
    Proc pc;
    pc.proc = p;
    pc.gbeg = gbeg;
    pc.gend = gend;
    for (std::uint32_t g = gbeg; g < gend; ++g)
      pc.own_demand += ti.usage(globals[g]).demand();
    pc.hbeg = static_cast<std::uint32_t>(hp.size());
    pc.obeg = static_cast<std::uint32_t>(other.size());
    for (int j = 0; j < ts.size(); ++j) {
      if (j == i) continue;
      const DagTask& tj = ts.task(j);
      // beta: a lower-priority task's critical section on a global here
      // whose ceiling can block tau_i (some user has priority >= pi_i).
      const bool lower = tj.priority() < ti.priority();
      Time demand = 0;
      for (std::uint32_t g = gbeg; g < gend; ++g) {
        const ResourceId q = globals[g];
        const ResourceUsage& use = tj.usage(q);
        demand += use.demand();
        if (lower && use.used() &&
            ceiling_[static_cast<std::size_t>(q)] >= ti.priority())
          pc.beta = std::max(pc.beta, use.cs_length);
      }
      if (demand == 0) continue;
      other.add(j, demand, tj.period());
      if (tj.priority() > ti.priority()) hp.add(j, demand, tj.period());
    }
    pc.hend = static_cast<std::uint32_t>(hp.size());
    pc.oend = static_cast<std::uint32_t>(other.size());
    procs.push_back(pc);
    gbeg = gend;
  }

  locals.clear();
  for (ResourceId q : ti.used_resources())
    if (users_[static_cast<std::size_t>(q)] == 1) locals.push_back(q);
}

std::vector<std::pair<int, Time>> preemption_demand(const TaskSet& ts,
                                                    const Partition& part,
                                                    int i) {
  std::vector<std::pair<int, Time>> out;
  std::vector<bool> seen(static_cast<std::size_t>(ts.size()), false);
  for (ProcessorId p : part.cluster(i)) {
    for (int j : part.tasks_on_processor(p)) {
      if (j == i || seen[static_cast<std::size_t>(j)]) continue;
      seen[static_cast<std::size_t>(j)] = true;
      if (ts.task(j).priority() > ts.task(i).priority())
        out.emplace_back(j, ts.task(j).wcet());
    }
  }
  return out;
}

}  // namespace dpcp
