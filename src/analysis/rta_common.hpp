// Shared response-time-analysis machinery (Sec. IV-B of the paper).
#pragma once

#include <cstdint>
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

/// What the contention tables of every task share under one bound
/// partition: built once per bind and read by each
/// ContentionTables::fill() under it.  A "host slot" indexes `hosts`, the
/// processors hosting a placed global resource.
struct PlacedGlobals {
  /// One per user j of a global q: tau_j's critical section on q blocks
  /// tau_i when pi_j < pi_i <= ceiling_q (Lemma 2).
  struct BetaCandidate {
    int priority;    // pi_j
    int ceiling;     // highest priority among q's users
    Time cs_length;  // L_{j,q}
  };

  std::vector<int> users;    // per resource: number of tasks using it
  std::vector<int> ceiling;  // per resource: highest user priority
  std::vector<ProcessorId> hosts;  // increasing
  std::vector<int> slot_of;  // per processor: its host slot, or -1
  /// demand[h * tasks + j] = sum over the globals on host slot h of
  /// N_{j,q} * L_{j,q}.
  std::vector<Time> demand;
  /// Host slot h's beta candidates are beta[boff[h], boff[h + 1]).
  std::vector<std::uint32_t> boff;
  std::vector<BetaCandidate> beta;
  std::vector<int> priority;  // per task: pi_j
  std::vector<Time> period;   // per task: T_j

  void build(const TaskSet& ts, const Partition& part);

  std::size_t tasks() const { return priority.size(); }
  /// Host slot of resource q: its processor's if q is a placed global,
  /// else -1.
  int slot_of_resource(const Partition& part, ResourceId q) const {
    const ProcessorId p = part.processor_of_resource(q);
    return users[static_cast<std::size_t>(q)] > 1 && p != Partition::kUnassigned
               ? slot_of[static_cast<std::size_t>(p)]
               : -1;
  }
  /// Host slot h's demand row, indexed by task.
  const Time* demand_row(std::size_t h) const {
    return demand.data() + h * tasks();
  }
};

/// The per-processor contention one task's analysis reads (Lemmas 2-6),
/// flat: one Proc per processor hosting a global resource, in increasing
/// processor order, whose own-request and demand lists are [begin, end)
/// ranges into arrays shared by all processors.  Requests are in
/// increasing resource order and demand lists in increasing task order.
struct ContentionTables {
  /// One resource tau_i requests: q, its slot (position in
  /// used_resources(), which is also its index in a path class's request
  /// row), N_{i,q} and L_{i,q}.
  struct Request {
    ResourceId q;
    std::uint32_t slot;
    int max_requests;
    Time cs_length;
  };
  struct Proc {
    ProcessorId proc = Partition::kUnassigned;
    /// beta_{i,q} for every q on this processor (identical across them): the
    /// longest lower-priority critical section on a resource whose priority
    /// ceiling is >= pi_i (Lemma 2).
    Time beta = 0;
    /// Task i's own per-job demand on this processor's globals:
    /// sum_u N_{i,u} * L_{i,u}.
    Time own_demand = 0;
    std::uint32_t rbeg = 0, rend = 0;  // range in requests
    std::uint32_t hbeg = 0, hend = 0;  // range in hp
    std::uint32_t obeg = 0, oend = 0;  // range in other
  };
  std::vector<Proc> procs;
  /// tau_i's requested globals, by processor.
  std::vector<Request> requests;
  /// Per processor, each other task j with nonzero demand on its globals:
  /// (j, sum_u N_{j,u} * L_{j,u}, T_j).  `hp` keeps the higher-priority
  /// tasks (gamma, Eq. 2), `other` all of them (zeta).  Every processor
  /// hosting a global gets its lists, requested by tau_i or not: DPCP-p's
  /// result_depends_on() reads them all, so dropping the rest would change
  /// which bounds admission reuses.
  DemandSoA hp;
  DemandSoA other;
  /// tau_i's requested globals hosted by its own cluster (Phi^p(tau_i)).
  std::vector<Request> cluster_requests;
  /// tau_i's local resources (used by no other task).
  std::vector<Request> locals;
  /// L_{i,q} per slot.
  std::vector<Time> slot_cs;

  /// Rebuilds every table above for task `i` under `part`, reusing the
  /// arrays' capacity.  `placed` must be built from `ts` and `part`.
  void fill(const TaskSet& ts, const Partition& part,
            const PlacedGlobals& placed, int i);

 private:
  std::vector<std::uint32_t> cursor_;  // per host slot: bucket offset
};

}  // namespace dpcp
