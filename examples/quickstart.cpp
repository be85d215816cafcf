// Quickstart: build a small parallel task set with shared resources, run
// every schedulability analysis, inspect the DPCP-p partition and WCRT
// bounds, then execute the task set on the simulator and check the
// protocol invariants.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/dpcp.hpp"

using namespace dpcp;

int main() {
  // --- 1. Generate a task set the way the paper does (Sec. VII-A). -------
  Scenario scenario;              // m=16, nr in [4,8], Uavg=1.5, ...
  scenario.m = 8;
  scenario.nr_min = 2;
  scenario.nr_max = 4;

  GenParams params;
  params.scenario = scenario;
  params.total_utilization = 4.0;  // half the platform

  Rng rng(21);
  auto ts = generate_taskset(rng, params);
  if (!ts) {
    std::puts("generation failed (should not happen at this utilization)");
    return 1;
  }

  std::printf("Task set: %d tasks, %d resources, total utilization %.2f\n",
              ts->size(), ts->num_resources(), ts->total_utilization());
  for (int i = 0; i < ts->size(); ++i) {
    const DagTask& t = ts->task(i);
    std::printf(
        "  tau_%d: |V|=%3d  C=%9s  L*=%9s  T=D=%9s  U=%.2f  prio=%d\n", i,
        t.vertex_count(), format_time(t.wcet()).c_str(),
        format_time(t.longest_path_length()).c_str(),
        format_time(t.period()).c_str(), t.utilization(), t.priority());
  }

  // --- 2. Run all five analyses (Algorithm 1 + the protocol's bound). ----
  std::puts("\nSchedulability on 8 processors:");
  for (AnalysisKind kind : all_analysis_kinds()) {
    const SchedAnalysis analysis(kind);
    const PartitionOutcome outcome = analysis.test(*ts, scenario.m);
    std::printf("  %-10s : %s", analysis.name().c_str(),
                outcome.schedulable ? "schedulable  " : "unschedulable");
    if (outcome.schedulable) {
      std::printf(" (WCRT bounds:");
      for (int i = 0; i < ts->size(); ++i)
        std::printf(" %s", format_time(outcome.wcrt[i]).c_str());
      std::printf(")");
    } else {
      std::printf(" (%s)", outcome.failure.c_str());
    }
    std::printf("\n");
  }

  // --- 3. Execute under DPCP-p and validate the runtime invariants. ------
  const PartitionOutcome outcome =
      SchedAnalysis(AnalysisKind::kDpcpPEp).test(*ts, scenario.m);
  if (!outcome.schedulable) {
    std::puts("\nDPCP-p deems this set unschedulable; nothing to simulate.");
    return 0;
  }
  std::printf("\nPartition: %s\n", outcome.partition.to_string().c_str());

  SimConfig cfg;
  cfg.horizon = millis(2000);
  const SimResult sim = simulate(*ts, outcome.partition, cfg);
  std::printf(
      "\nSimulation: %lld global requests, max lower-priority blockers "
      "observed = %d (Lemma 1 asserts <= 1)\n",
      static_cast<long long>(sim.global_requests_completed),
      sim.max_lower_priority_blockers);
  for (int i = 0; i < ts->size(); ++i) {
    std::printf(
        "  tau_%d: %lld jobs, observed max response %s <= analysed bound %s "
        "(%s)\n",
        i, static_cast<long long>(sim.task[i].jobs_completed),
        format_time(sim.task[i].max_response).c_str(),
        format_time(outcome.wcrt[i]).c_str(),
        sim.task[i].max_response <= outcome.wcrt[i] ? "ok" : "VIOLATION");
  }
  std::printf("Invariants hold: %s; deadline misses: %lld\n",
              sim.all_invariants_hold() ? "yes" : "NO",
              static_cast<long long>(sim.total_deadline_misses()));
  return 0;
}
