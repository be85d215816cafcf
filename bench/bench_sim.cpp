// Simulator throughput, plus a Lemma-1 soak counter: runs prepared
// DPCP-p workloads across several utilization points and reports
// simulated jobs and events per wall-clock second.
//
// Usage: bench_sim [--json PATH] [--reps N]
//        (env: DPCP_SEED default 42)
//
// --json writes a machine-readable summary consumed by the CI
// release-sweep job's BENCH_sweep.json artifact (key "simulator_bench").
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dpcp.hpp"
#include "io/taskset_io.hpp"
#include "util/parse.hpp"

using namespace dpcp;

namespace {

struct Workload {
  TaskSet ts;
  Partition part;
};

/// A few DPCP-p-ready task sets at the given total utilization (m = 16,
/// the paper's mid scenario), skipping infeasible draws deterministically.
std::vector<Workload> prepare(double util, int count, std::uint64_t seed) {
  std::vector<Workload> out;
  for (int s = 0; static_cast<int>(out.size()) < count; ++s) {
    Rng rng(seed + static_cast<std::uint64_t>(s));
    GenParams params;
    params.scenario.m = 16;
    params.scenario.p_r = 0.75;
    params.total_utilization = util;
    auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    auto part = baseline_partition(*ts, 16);
    if (!part) continue;
    out.push_back(Workload{std::move(*ts), std::move(*part)});
  }
  return out;
}

struct Throughput {
  double jobs_per_sec = 0.0;
  double events_per_sec = 0.0;
};

struct SoakCounters {
  int max_lp_blockers = 0;
  std::int64_t violations = 0;
};

Throughput measure(const std::vector<Workload>& workloads, int reps,
                   SoakCounters& soak) {
  SimConfig cfg;
  cfg.horizon = millis(100);
  std::int64_t jobs = 0, events = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const Workload& w : workloads) {
      const SimResult res = simulate(w.ts, w.part, cfg);
      for (const TaskSimStats& t : res.task) jobs += t.jobs_completed;
      events += res.events_processed;
      soak.max_lp_blockers =
          std::max(soak.max_lp_blockers, res.max_lower_priority_blockers);
      soak.violations += res.lemma1_violations +
                         res.mutual_exclusion_violations +
                         res.ceiling_violations +
                         res.work_conserving_violations;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  Throughput t;
  t.jobs_per_sec = seconds > 0 ? static_cast<double>(jobs) / seconds : 0.0;
  t.events_per_sec =
      seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (arg == "--reps" && i + 1 < argc) {
      const auto v = parse_int(argv[++i], 1, 1 << 20);
      if (!v) {
        std::fprintf(stderr, "bench_sim: invalid --reps '%s'\n", argv[i]);
        return 2;
      }
      reps = static_cast<int>(*v);
      continue;
    }
    std::fprintf(stderr,
                 "bench_sim: expected --json PATH or --reps N, got '%s'\n",
                 arg.c_str());
    return 2;
  }
  const SweepOptions env = sweep_options_from_env(/*default_samples=*/1);

  // Normalized utilization points over m = 16.
  const std::vector<double> norm_utils{0.1, 0.25, 0.5, 0.75};
  std::printf(
      "=== Simulator throughput, %d reps, 100 ms horizon, seed %llu ===\n",
      reps, static_cast<unsigned long long>(env.seed));

  Table table({"norm-util", "jobs/sec", "events/sec"});
  SoakCounters soak;
  std::string json_points;
  for (const double nu : norm_utils) {
    const auto workloads = prepare(nu * 16.0, /*count=*/5, env.seed);
    const Throughput t = measure(workloads, reps, soak);
    table.add_row({strfmt("%.2f", nu), strfmt("%.0f", t.jobs_per_sec),
                   strfmt("%.0f", t.events_per_sec)});
    if (!json_points.empty()) json_points += ",\n  ";
    json_points +=
        strfmt("{\"norm_util\": %.2f, \"event_jobs_per_sec\": %.0f}", nu,
               t.jobs_per_sec);
  }
  std::fputs(table.to_text().c_str(), stdout);
  std::printf(
      "soak: max lower-priority blockers %d (Lemma 1 asserts <= 1), "
      "%lld invariant violations\n",
      soak.max_lp_blockers, static_cast<long long>(soak.violations));

  if (!json_path.empty()) {
    const std::string json = strfmt(
        "{\"reps\": %d, \"horizon_ms\": 100,\n"
        " \"points\": [%s],\n"
        " \"max_lp_blockers\": %d, \"invariant_violations\": %lld}\n",
        reps, json_points.c_str(), soak.max_lp_blockers,
        static_cast<long long>(soak.violations));
    std::string error;
    if (!write_text_file(json_path, json, &error)) {
      std::fprintf(stderr, "bench_sim: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return soak.violations == 0 ? 0 : 1;
}
