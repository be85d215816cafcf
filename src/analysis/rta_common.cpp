#include "analysis/rta_common.hpp"

#include <algorithm>
#include <climits>

namespace dpcp {

void PlacedGlobals::build(const TaskSet& ts, const Partition& part) {
  const std::size_t n = static_cast<std::size_t>(ts.size());
  users.assign(static_cast<std::size_t>(ts.num_resources()), 0);
  ceiling.assign(users.size(), INT_MIN);
  priority.resize(n);
  period.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const DagTask& tj = ts.task(static_cast<int>(j));
    priority[j] = tj.priority();
    period[j] = tj.period();
    for (ResourceId q : tj.used_resources()) {
      const std::size_t uq = static_cast<std::size_t>(q);
      ++users[uq];
      ceiling[uq] = std::max(ceiling[uq], tj.priority());
    }
  }

  // Host slots, in increasing processor order: mark each processor that
  // hosts a global (0), then number the marked ones.
  slot_of.assign(static_cast<std::size_t>(part.num_processors()), -1);
  for (ResourceId q = 0; q < ts.num_resources(); ++q) {
    const ProcessorId p = part.processor_of_resource(q);
    if (users[static_cast<std::size_t>(q)] > 1 && p != Partition::kUnassigned)
      slot_of[static_cast<std::size_t>(p)] = 0;
  }
  hosts.clear();
  for (ProcessorId p = 0; p < part.num_processors(); ++p) {
    int& slot = slot_of[static_cast<std::size_t>(p)];
    if (slot < 0) continue;
    slot = static_cast<int>(hosts.size());
    hosts.push_back(p);
  }

  // Demand rows, and the beta candidates counting-sorted by host slot:
  // boff[h] counts slot h's, then (prefix sums) ends its bucket, and
  // filling from the end moves it to the bucket's start.
  demand.assign(hosts.size() * n, 0);
  boff.assign(hosts.size() + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const DagTask& tj = ts.task(static_cast<int>(j));
    for (ResourceId q : tj.used_resources()) {
      const int h = slot_of_resource(part, q);
      if (h < 0) continue;
      demand[static_cast<std::size_t>(h) * n + j] += tj.usage(q).demand();
      ++boff[static_cast<std::size_t>(h)];
    }
  }
  for (std::size_t h = 1; h <= hosts.size(); ++h) boff[h] += boff[h - 1];
  beta.resize(boff[hosts.size()]);
  for (std::size_t j = 0; j < n; ++j) {
    const DagTask& tj = ts.task(static_cast<int>(j));
    for (ResourceId q : tj.used_resources()) {
      const int h = slot_of_resource(part, q);
      if (h < 0) continue;
      beta[--boff[static_cast<std::size_t>(h)]] = {
          tj.priority(), ceiling[static_cast<std::size_t>(q)],
          tj.usage(q).cs_length};
    }
  }
}

void ContentionTables::fill(const TaskSet& ts, const Partition& part,
                            const PlacedGlobals& placed, int i) {
  const DagTask& ti = ts.task(i);
  const std::vector<ResourceId>& used = ti.used_resources();
  const std::vector<ProcessorId>& cluster = part.cluster(i);
  const std::size_t slots = placed.hosts.size();

  // tau_i's own requests: locals, and the globals counting-sorted by host
  // slot (cursor_[h + 1] counts slot h's; after the prefix sums and the
  // fill, cursor_[h] ends bucket h, which is where bucket h + 1 begins).
  slot_cs.resize(used.size());
  locals.clear();
  cluster_requests.clear();
  cursor_.assign(slots + 1, 0);
  for (std::size_t k = 0; k < used.size(); ++k) {
    const ResourceId q = used[k];
    const ResourceUsage& use = ti.usage(q);
    slot_cs[k] = use.cs_length;
    const Request r{q, static_cast<std::uint32_t>(k), use.max_requests,
                    use.cs_length};
    if (placed.users[static_cast<std::size_t>(q)] == 1) {
      locals.push_back(r);
      continue;
    }
    const int h = placed.slot_of_resource(part, q);
    if (h < 0) continue;
    ++cursor_[static_cast<std::size_t>(h) + 1];
    if (std::find(cluster.begin(), cluster.end(),
                  part.processor_of_resource(q)) != cluster.end())
      cluster_requests.push_back(r);
  }
  for (std::size_t h = 1; h <= slots; ++h) cursor_[h] += cursor_[h - 1];
  requests.resize(cursor_[slots]);
  for (std::size_t k = 0; k < used.size(); ++k) {
    const ResourceId q = used[k];
    const int h = placed.slot_of_resource(part, q);
    if (h < 0) continue;
    const ResourceUsage& use = ti.usage(q);
    requests[cursor_[static_cast<std::size_t>(h)]++] = {
        q, static_cast<std::uint32_t>(k), use.max_requests, use.cs_length};
  }

  procs.clear();
  hp.clear();
  other.clear();
  const std::size_t n = placed.tasks();
  const int prio = placed.priority[static_cast<std::size_t>(i)];
  std::uint32_t rbeg = 0;
  for (std::size_t h = 0; h < slots; ++h) {
    Proc pc;
    pc.proc = placed.hosts[h];
    pc.rbeg = rbeg;
    pc.rend = rbeg = cursor_[h];
    // beta: a lower-priority task's critical section on a global here
    // whose ceiling can block tau_i (some user has priority >= pi_i).
    for (std::uint32_t c = placed.boff[h]; c < placed.boff[h + 1]; ++c) {
      const PlacedGlobals::BetaCandidate& b = placed.beta[c];
      if (b.priority < prio && prio <= b.ceiling)
        pc.beta = std::max(pc.beta, b.cs_length);
    }
    const Time* row = placed.demand_row(h);
    pc.own_demand = row[static_cast<std::size_t>(i)];
    pc.hbeg = static_cast<std::uint32_t>(hp.size());
    pc.obeg = static_cast<std::uint32_t>(other.size());
    for (std::size_t j = 0; j < n; ++j) {
      if (j == static_cast<std::size_t>(i) || row[j] == 0) continue;
      other.add(static_cast<int>(j), row[j], placed.period[j]);
      if (placed.priority[j] > prio)
        hp.add(static_cast<int>(j), row[j], placed.period[j]);
    }
    pc.hend = static_cast<std::uint32_t>(hp.size());
    pc.oend = static_cast<std::uint32_t>(other.size());
    procs.push_back(pc);
  }
}

}  // namespace dpcp
