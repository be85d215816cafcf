// Synthetic task-set generation following Sec. VII-A of the paper.
//
// Pipeline per task set:
//   1. n_r ~ U[nr_min, nr_max] shared resources.
//   2. Task utilizations: RandFixedSum over (1, 2*U_avg] summing to the
//      target total utilization; n = round(U/U_avg) (clamped feasible).
//   3. Per task: period T log-uniform over [10ms, 1000ms], D = T,
//      C = U * T; each resource used with probability p_r with
//      N_{i,q} ~ U[1, n_req_max] and L_{i,q} ~ U[cs_min, cs_max];
//      DAG: |V| ~ U[10, 100], Erdos-Renyi edges with p = 0.1; WCET and
//      request counts spread over vertices by uniform random composition.
//   4. Plausibility constraints enforced by bounded resampling, exactly as
//      the paper states: L*_i < D_i/2 and
//      C_{i,x} >= sum_q N_{i,x,q} * L_{i,q}  (the latter holds by
//      construction: each vertex's WCET is its own critical-section demand
//      plus a non-negative share of C'_i).
//   5. Rate-Monotonic base priorities.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gen/randfixedsum.hpp"
#include "gen/scenario.hpp"
#include "model/taskset.hpp"
#include "util/rng.hpp"

namespace dpcp {

struct GenParams {
  Scenario scenario;
  double total_utilization = 8.0;
  int vertices_min = 10;
  int vertices_max = 100;
  double edge_prob = 0.1;
  Time period_min = millis(10);
  Time period_max = millis(1000);
  /// Minimum WCET granted to every vertex on top of its CS demand, so that
  /// vertices are non-degenerate (validate() requires positive WCETs).
  Time min_vertex_slice = kMicrosecond;
  /// Bounded-resampling budget per task for the plausibility constraints.
  int max_task_retries = 128;

  /// Sec. VI extension: additionally generate this many *light* tasks
  /// (C_i <= D_i, executed sequentially on shared processors).  Their
  /// utilizations are drawn uniformly from [light_util_min,
  /// light_util_max] and are *on top of* total_utilization, which remains
  /// the heavy-task budget as in the paper's evaluation.
  int light_tasks = 0;
  double light_util_min = 0.1;
  double light_util_max = 0.7;
};

struct GenStats {
  RandFixedSumStats rfs;
  std::int64_t task_retries = 0;       // per-task structure resamples
  std::int64_t usage_downscales = 0;   // times resource demand was clamped
  std::int64_t failures = 0;           // task sets abandoned entirely

  /// Fold another accumulator in (all counters are additive); used by the
  /// experiment engine to combine per-worker statistics.
  void merge(const GenStats& o) {
    rfs.attempts += o.rfs.attempts;
    rfs.rejections += o.rfs.rejections;
    rfs.fallbacks += o.rfs.fallbacks;
    task_retries += o.task_retries;
    usage_downscales += o.usage_downscales;
    failures += o.failures;
  }
};

/// Generates one task set; nullopt only if constraints could not be met
/// within the retry budget (counted in stats; rare).
std::optional<TaskSet> generate_taskset(Rng& rng, const GenParams& params,
                                        GenStats* stats = nullptr);

/// Deterministic task source: single tasks pulled, last first, out of
/// repeated generate_taskset() refills, the k-th drawn from rng.fork(k)
/// (a refill that fails is skipped).  Online streams give every refill
/// one resource arity, so their tasks can share one controller.
class TaskPool {
 public:
  TaskPool(const GenParams& refill, Rng rng) : refill_(refill), rng_(rng) {}

  DagTask next();

 private:
  GenParams refill_;
  Rng rng_;
  std::uint64_t refills_ = 0;
  std::vector<DagTask> pool_;
};

}  // namespace dpcp
