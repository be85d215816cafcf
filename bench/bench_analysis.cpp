// Microbenchmarks of the schedulability machinery: per-task WCRT cost of
// each analysis, path-signature enumeration, and the full Algorithm-1
// schedulability test.
#include <benchmark/benchmark.h>

#include "core/dpcp.hpp"

namespace dpcp {
namespace {

TaskSet make_set(int seed, double util, int m) {
  Rng rng(static_cast<std::uint64_t>(seed));
  GenParams params;
  params.scenario.m = m;
  params.total_utilization = util;
  auto ts = generate_taskset(rng, params);
  while (!ts) {
    rng = Rng(static_cast<std::uint64_t>(++seed));
    ts = generate_taskset(rng, params);
  }
  return *ts;
}

void BM_PathSignatureEnumeration(benchmark::State& state) {
  const TaskSet ts = make_set(7, 6.0, 16);
  std::int64_t signatures = 0, paths = 0;
  for (auto _ : state) {
    for (int i = 0; i < ts.size(); ++i) {
      const auto r = enumerate_path_signatures(ts.task(i));
      signatures += static_cast<std::int64_t>(r.size());
      paths += r.paths_visited;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["paths/iter"] =
      static_cast<double>(paths) / static_cast<double>(state.iterations());
  state.counters["signatures/iter"] =
      static_cast<double>(signatures) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PathSignatureEnumeration)->Unit(benchmark::kMicrosecond);

void BM_WcrtPerTask(benchmark::State& state) {
  const AnalysisKind kind = static_cast<AnalysisKind>(state.range(0));
  const TaskSet ts = make_set(11, 6.0, 16);
  auto analysis = make_analysis(kind);
  auto part0 = initial_federated_partition(ts, 16);
  if (!part0) {
    state.SkipWithError("initial allocation failed");
    return;
  }
  Partition part = *part0;
  if (analysis->placement() != ResourcePlacement::kNone)
    placement_strategy(PlacementKind::kWfd).place_resources(ts, part);
  std::vector<Time> hints;
  for (int i = 0; i < ts.size(); ++i) hints.push_back(ts.task(i).deadline());
  for (auto _ : state) {
    for (int i = 0; i < ts.size(); ++i)
      benchmark::DoNotOptimize(analysis->wcrt(ts, part, i, hints));
  }
  state.SetLabel(analysis->name());
}
BENCHMARK(BM_WcrtPerTask)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_FullSchedulabilityTest(benchmark::State& state) {
  const AnalysisKind kind = static_cast<AnalysisKind>(state.range(0));
  const TaskSet ts = make_set(13, 8.0, 16);
  auto analysis = make_analysis(kind);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis->test(ts, 16));
  state.SetLabel(analysis->name());
}
BENCHMARK(BM_FullSchedulabilityTest)
    ->DenseRange(0, 4, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_TasksetGeneration(benchmark::State& state) {
  Rng rng(5);
  GenParams params;
  params.scenario.m = 16;
  params.total_utilization = static_cast<double>(state.range(0));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    Rng sub = rng.fork(++salt);
    benchmark::DoNotOptimize(generate_taskset(sub, params));
  }
}
BENCHMARK(BM_TasksetGeneration)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dpcp

BENCHMARK_MAIN();
