// Runtime-level protocol comparison (beyond the paper's analytical
// evaluation): execute the SAME task sets under the DPCP-p runtime and
// under FIFO spin locks, and compare observed worst-case responses and
// deadline misses.  This probes the paper's core design claim -- that
// executing global critical sections remotely on designated processors
// manages blocking better than burning cluster capacity on busy-waiting --
// at the execution level rather than through the analyses.
//
// Usage: bench_runtime [--samples N]   (task sets per point, default 40)
#include <cstdio>
#include <string>

#include "core/dpcp.hpp"
#include "util/parse.hpp"

using namespace dpcp;

int main(int argc, char** argv) {
  int samples = 40;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--samples" && i + 1 < argc) {
      const auto v = parse_int(argv[++i], 1, 1 << 20);
      if (v) {
        samples = static_cast<int>(*v);
        continue;
      }
    }
    std::fprintf(stderr, "bench_runtime: expected --samples N, got '%s'\n",
                 arg.c_str());
    return 2;
  }
  Scenario sc = fig2_scenario('a');  // m=16, moderate contention

  std::printf(
      "=== Runtime comparison: DPCP-p agents vs FIFO spin locks "
      "(scenario %s, %d task sets/point) ===\n",
      sc.name().c_str(), samples);

  Table t({"norm-util", "sets", "dpcp worst r/D", "spin worst r/D",
           "dpcp misses", "spin misses", "spin worse [%]"});
  for (double nu : {0.2, 0.3, 0.4, 0.5}) {
    Rng root(4321);
    RunningStat dpcp_ratio, spin_ratio;
    std::int64_t dpcp_misses = 0, spin_misses = 0;
    int sets = 0, spin_worse = 0;
    for (int s = 0; s < samples; ++s) {
      Rng rng = root.fork(static_cast<std::uint64_t>(s));
      GenParams params;
      params.scenario = sc;
      params.total_utilization = nu * sc.m;
      const auto ts = generate_taskset(rng, params);
      if (!ts) continue;
      const auto part = baseline_partition(*ts, sc.m);
      if (!part) continue;
      ++sets;

      SimConfig cfg;
      cfg.horizon = millis(400);
      cfg.seed = static_cast<std::uint64_t>(s) + 1;
      cfg.protocol = SimProtocol::kDpcpP;
      const SimResult dres = simulate(*ts, *part, cfg);
      cfg.protocol = SimProtocol::kSpinFifo;
      const SimResult sres = simulate(*ts, *part, cfg);

      dpcp_misses += dres.total_deadline_misses();
      spin_misses += sres.total_deadline_misses();
      bool worse = false;
      for (int i = 0; i < ts->size(); ++i) {
        const double d = static_cast<double>(ts->task(i).deadline());
        dpcp_ratio.add(static_cast<double>(dres.task[i].max_response) / d);
        spin_ratio.add(static_cast<double>(sres.task[i].max_response) / d);
        if (sres.task[i].max_response > dres.task[i].max_response)
          worse = true;
      }
      if (worse) ++spin_worse;
    }
    t.add_row({strfmt("%.2f", nu), strfmt("%d", sets),
               strfmt("%.3f", dpcp_ratio.max()),
               strfmt("%.3f", spin_ratio.max()),
               strfmt("%lld", static_cast<long long>(dpcp_misses)),
               strfmt("%lld", static_cast<long long>(spin_misses)),
               strfmt("%.1f", sets ? 100.0 * spin_worse / sets : 0.0)});
  }
  std::fputs(t.to_text().c_str(), stdout);
  std::puts(
      "\n(r/D = observed worst response over deadline; 'spin worse' = share "
      "of task sets where some task responded slower under spin locks)");
  return 0;
}
