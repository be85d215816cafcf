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

/// Per-processor view of the global resources relevant to one task's
/// analysis: who else contends there and with how much demand.
struct ProcessorContention {
  ProcessorId proc = Partition::kUnassigned;
  /// Global resources placed on this processor.
  std::vector<ResourceId> globals;
  /// beta_{i,q} for every q on this processor (identical across them): the
  /// longest lower-priority critical section on a resource whose priority
  /// ceiling is >= pi_i (Lemma 2).
  Time beta = 0;
  /// Per other task j: (task index, sum over globals on this processor of
  /// N_{j,u} * L_{j,u}).  Split by priority for gamma (higher) and zeta
  /// (all others).
  std::vector<std::pair<int, Time>> higher_priority_demand;
  std::vector<std::pair<int, Time>> other_task_demand;
  /// Task i's own per-job demand on this processor's globals:
  /// sum_u N_{i,u} * L_{i,u}.
  Time own_demand = 0;
};

/// Builds the per-processor contention tables for task `i` under `part`.
/// Only processors hosting at least one global resource appear.
std::vector<ProcessorContention> build_processor_contention(
    const TaskSet& ts, const Partition& part, int i);

/// gamma_{i,q}(L) for any q on processor `pc` (Eq. 2): cumulative
/// higher-priority request workload on that processor within a window L.
Time gamma(const ProcessorContention& pc, const TaskSet& ts,
           const std::vector<Time>& hint, Time window);

/// Higher-priority tasks sharing a processor with tau_i, as (task, C_h)
/// pairs.  Non-empty only for light tasks on shared processors (Sec. VI
/// extension): under partitioned fixed-priority scheduling they preempt
/// tau_i for up to eta_h(r) * C_h within its response window.
std::vector<std::pair<int, Time>> preemption_demand(const TaskSet& ts,
                                                    const Partition& part,
                                                    int i);

/// The P-FP preemption term  sum_h eta_h(window) * C_h.
Time preemption(const std::vector<std::pair<int, Time>>& demand,
                const TaskSet& ts, const std::vector<Time>& hint,
                Time window);

}  // namespace dpcp
