// Micro-benchmark of the DPCP-p request-response memo on memo-heavy
// workloads: repeated EP wcrt() queries on high-contention task sets
// (Fig. 2(b): m=32, p_r=1), where every path signature probes the
// per-(resource, intra-ahead) memo once per processor term.
//
// Two timed variants:
//   * stateless — the historical per-call oracle (fresh tables each call);
//   * prepared  — the session pipeline (arena slabs + epoch-cleared memo),
//     the path every sweep actually runs.
//
// Usage: bench_memo [repeats]   (env: DPCP_SAMPLES, default 20)
// Also prints the prepared variant's memo hit/miss counters and arena
// occupancy.
#include <chrono>
#include <cstdio>

#include "core/dpcp.hpp"
#include "util/parse.hpp"

using namespace dpcp;

int main(int argc, char** argv) {
  const SweepOptions env = sweep_options_from_env(/*default_samples=*/20);
  const int sets = env.samples_per_point;
  int repeats = 5;
  for (int i = 1; i < argc; ++i) {
    const auto v = parse_knob("repeats", argv[i], 1, 1 << 20);
    if (!v) {
      std::fprintf(stderr, "usage: %s [repeats]\n", argv[0]);
      return 2;
    }
    repeats = *v;
  }

  Scenario sc = fig2_scenario('b');
  DpcpPAnalysis ep(DpcpPAnalysis::PathMode::kEnumerate);

  // Pre-generate the workloads so only the analysis is timed.
  std::vector<TaskSet> workloads;
  std::vector<Partition> parts;
  Rng root(2024);
  for (int s = 0; s < sets; ++s) {
    Rng rng = root.fork(static_cast<std::uint64_t>(s));
    GenParams params;
    params.scenario = sc;
    params.total_utilization = 0.2 * sc.m;
    auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    auto part = baseline_partition(*ts, sc.m);
    if (!part) continue;
    workloads.push_back(std::move(*ts));
    parts.push_back(std::move(*part));
  }

  const auto run_stateless = [&](Time* sink, std::size_t* calls) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t w = 0; w < workloads.size(); ++w) {
        const TaskSet& ts = workloads[w];
        std::vector<Time> hints;
        for (int i = 0; i < ts.size(); ++i)
          hints.push_back(ts.task(i).deadline());
        for (int i = 0; i < ts.size(); ++i) {
          const auto b = ep.wcrt(ts, parts[w], i, hints);
          if (b) *sink ^= *b;
          ++*calls;
        }
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // The prepared variant mirrors a sweep: one session per task set, one
  // bind, then the repeated queries hit the arena-backed tables and the
  // epoch-cleared response memo.  Counters accumulate into `memo`.
  CacheStats memo;
  std::size_t arena_high = 0;
  const auto run_prepared = [&](Time* sink, std::size_t* calls) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const TaskSet& ts = workloads[w];
      AnalysisSession session(ts);
      auto prepared = ep.prepare(session);
      prepared->bind(parts[w]);
      std::vector<Time> hints;
      for (int i = 0; i < ts.size(); ++i)
        hints.push_back(ts.task(i).deadline());
      for (int r = 0; r < repeats; ++r) {
        for (int i = 0; i < ts.size(); ++i) {
          const auto b = prepared->wcrt(i, hints);
          if (b) *sink ^= *b;
          ++*calls;
        }
      }
      memo.memo_hits += session.stats().memo_hits;
      memo.memo_misses += session.stats().memo_misses;
      arena_high += session.arena().high_water();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Time sink_a = 0, sink_b = 0;
  std::size_t calls_a = 0, calls_b = 0;
  const double stateless_s = run_stateless(&sink_a, &calls_a);
  const double prepared_s = run_prepared(&sink_b, &calls_b);
  const double hit_rate = memo.memo_hit_rate();

  std::printf("bench_memo: %zu task sets, %d repeats\n", workloads.size(),
              repeats);
  std::printf("stateless: total %.3f s, %.3f ms/call (%zu calls)\n",
              stateless_s, 1e3 * stateless_s / (calls_a ? calls_a : 1),
              calls_a);
  std::printf("prepared:  total %.3f s, %.3f ms/call (%zu calls)\n",
              prepared_s, 1e3 * prepared_s / (calls_b ? calls_b : 1),
              calls_b);
  std::printf("memo: %llu hits / %llu misses (%.1f%% hit rate), "
              "arena high-water %zu bytes (summed over sessions)\n",
              static_cast<unsigned long long>(memo.memo_hits),
              static_cast<unsigned long long>(memo.memo_misses),
              1e2 * hit_rate, arena_high);
  std::printf("(checksum %lld)\n", static_cast<long long>(sink_a ^ sink_b));
  return 0;
}
