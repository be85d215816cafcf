// Shared response-time-analysis machinery (Sec. IV-B of the paper).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/taskset.hpp"
#include "partition/partition.hpp"
#include "util/time.hpp"

namespace dpcp {

/// eta_j(L): maximum jobs of a task with period T_j and response-time bound
/// R_j inside any window of length L:  ceil((L + R_j) / T_j).
inline std::int64_t eta(Time window, Time response, Time period) {
  if (window < 0) window = 0;
  return div_ceil(window + response, period);
}

/// Flat (task, demand, period) triples for the RTA window terms, in
/// structure-of-arrays layout.  Every fixed-point iteration of every
/// analysis evaluates sums of  eta(window, R_j, T_j) * demand_j ; caching
/// T_j next to the demand turns the inner loop into three parallel slab
/// reads (plus the hint load) instead of a DagTask pointer chase per
/// contender per iteration.
struct DemandSoA {
  std::vector<int> task;
  std::vector<Time> demand;
  std::vector<Time> period;

  std::size_t size() const { return task.size(); }
  bool empty() const { return task.empty(); }
  void clear() {
    task.clear();
    demand.clear();
    period.clear();
  }
  void add(int j, Time d, Time t) {
    task.push_back(j);
    demand.push_back(d);
    period.push_back(t);
  }
  /// Rebuild from (task, demand) pairs, reading each task's period from
  /// `ts`.
  void assign(const std::vector<std::pair<int, Time>>& pairs,
              const TaskSet& ts) {
    clear();
    for (const auto& [j, d] : pairs) add(j, d, ts.task(j).period());
  }
};

/// sum_k eta(window, hint[task[k]], period[k]) * demand[k] over parallel
/// arrays (a DemandSoA or a CSR-style slice of one).
inline Time window_demand(const int* task, const Time* demand,
                          const Time* period, std::size_t n,
                          const std::vector<Time>& hint, Time window) {
  Time total = 0;
  for (std::size_t k = 0; k < n; ++k)
    total += eta(window, hint[static_cast<std::size_t>(task[k])], period[k]) *
             demand[k];
  return total;
}

inline Time window_demand(const DemandSoA& d, const std::vector<Time>& hint,
                          Time window) {
  return window_demand(d.task.data(), d.demand.data(), d.period.data(),
                       d.size(), hint, window);
}

/// The per-processor contention one task's analysis reads (Lemmas 2-6),
/// flat: one Proc per processor hosting a global resource, in increasing
/// processor order, whose globals and demand lists are [begin, end) ranges
/// into arrays shared by all processors.  Globals are in increasing
/// resource order and demand lists in increasing task order.
struct ContentionTables {
  struct Proc {
    ProcessorId proc = Partition::kUnassigned;
    /// beta_{i,q} for every q on this processor (identical across them): the
    /// longest lower-priority critical section on a resource whose priority
    /// ceiling is >= pi_i (Lemma 2).
    Time beta = 0;
    /// Task i's own per-job demand on this processor's globals:
    /// sum_u N_{i,u} * L_{i,u}.
    Time own_demand = 0;
    std::uint32_t gbeg = 0, gend = 0;  // range in globals
    std::uint32_t hbeg = 0, hend = 0;  // range in hp
    std::uint32_t obeg = 0, oend = 0;  // range in other
  };
  std::vector<Proc> procs;
  std::vector<ResourceId> globals;
  /// Per processor, each other task j with nonzero demand on its globals:
  /// (j, sum_u N_{j,u} * L_{j,u}, T_j).  `hp` keeps the higher-priority
  /// tasks (gamma, Eq. 2), `other` all of them (zeta).
  DemandSoA hp;
  DemandSoA other;
  /// Phi^p(tau_i): global resources hosted by tau_i's own cluster.
  std::vector<ResourceId> cluster_globals;
  /// tau_i's local resources (used by no other task).
  std::vector<ResourceId> locals;

  /// Rebuilds every table above for task `i` under `part`, reusing the
  /// arrays' capacity.  Each resource's users and priority ceiling are
  /// counted once; one pass over the placement map buckets the globals by
  /// processor.
  void fill(const TaskSet& ts, const Partition& part, int i);

 private:
  std::vector<int> users_;    // per resource: number of tasks using it
  std::vector<int> ceiling_;  // per resource: highest user priority
  std::vector<std::uint32_t> cursor_;  // per processor: bucket offset
};

/// Higher-priority tasks sharing a processor with tau_i, as (task, C_h)
/// pairs.  Non-empty only for light tasks on shared processors (Sec. VI
/// extension): under partitioned fixed-priority scheduling they preempt
/// tau_i for up to eta_h(r) * C_h within its response window.
std::vector<std::pair<int, Time>> preemption_demand(const TaskSet& ts,
                                                    const Partition& part,
                                                    int i);

}  // namespace dpcp
