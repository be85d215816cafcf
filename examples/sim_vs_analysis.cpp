// Analysis-vs-execution: generates random task sets, runs the DPCP-p-EP
// schedulability test, and for every schedulable set executes the DPCP-p
// protocol on the simulator -- reporting how much slack the analytical
// WCRT bound leaves over the worst response time actually observed, and
// re-checking Lemma 1 at runtime.
//
//   $ ./examples/sim_vs_analysis [num_tasksets]
#include <cstdio>

#include "core/dpcp.hpp"
#include "util/parse.hpp"

using namespace dpcp;

int main(int argc, char** argv) {
  int sets = 20;
  if (argc > 1) {
    const auto v = parse_knob("num_tasksets", argv[1], 1, 1 << 20);
    if (!v) {
      std::fprintf(stderr, "usage: %s [num_tasksets]\n", argv[0]);
      return 2;
    }
    sets = *v;
  }

  auto analysis = make_analysis(AnalysisKind::kDpcpPEp);
  Rng root(20'24);
  RunningStat tightness;  // observed / bound, per task
  int schedulable = 0;
  std::int64_t requests = 0;
  int worst_blockers = 0;

  for (int s = 0; s < sets; ++s) {
    Rng rng = root.fork(static_cast<std::uint64_t>(s));
    GenParams params;
    params.scenario.m = 16;
    params.scenario.p_r = 0.75;
    params.total_utilization = 5.0;
    const auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    const PartitionOutcome outcome = analysis->test(*ts, 16);
    if (!outcome.schedulable) continue;
    ++schedulable;

    SimConfig cfg;
    cfg.horizon = millis(400);
    cfg.seed = static_cast<std::uint64_t>(s) + 1;
    const SimResult res = simulate(*ts, outcome.partition, cfg);
    if (!res.all_invariants_hold()) {
      std::printf("set %d: INVARIANT VIOLATION\n", s);
      return 1;
    }
    requests += res.global_requests_completed;
    worst_blockers =
        std::max(worst_blockers, res.max_lower_priority_blockers);

    for (int i = 0; i < ts->size(); ++i) {
      if (res.task[i].jobs_completed == 0) continue;
      const double ratio = static_cast<double>(res.task[i].max_response) /
                           static_cast<double>(outcome.wcrt[i]);
      tightness.add(ratio);
      if (res.task[i].max_response > outcome.wcrt[i]) {
        std::printf("set %d task %d: observed %s EXCEEDS bound %s\n", s, i,
                    format_time(res.task[i].max_response).c_str(),
                    format_time(outcome.wcrt[i]).c_str());
        return 1;
      }
    }
  }

  std::printf(
      "%d/%d generated sets schedulable under DPCP-p-EP; simulated %lld "
      "global requests\n",
      schedulable, sets, static_cast<long long>(requests));
  std::printf(
      "observed/bound response-time ratio: mean %.3f, max %.3f over %lld "
      "task instances (must stay <= 1; bounds are safe but not tight)\n",
      tightness.mean(), tightness.max(),
      static_cast<long long>(tightness.count()));
  std::printf("max lower-priority blockers per request: %d (Lemma 1: <= 1)\n",
              worst_blockers);
  return 0;
}
