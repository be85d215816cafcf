// Ablation studies for the design choices DESIGN.md calls out:
//
//  A1. Resource placement: the paper's WFD heuristic (Algorithm 2) vs the
//      other placement strategies (first-fit, best-fit,
//      synchronization-aware) -- how much schedulability does the
//      worst-fit spreading actually buy?
//  A2. Path handling: DPCP-p-EP's exact path-signature enumeration vs the
//      EN envelope -- the value of knowing per-vertex request counts
//      (the paper's Sec. VI discussion).
//  A3. EP path budget: acceptance as a function of the signature cap, to
//      show when the envelope fallback starts to bite.
//  A4. Spare granting: Algorithm 1's first-failure rule vs granting to
//      the task with the largest deadline miss.
//  A5. Partition search: seed-only (best of all placement strategies,
//      no local search) vs the optimizer restricted to each move class
//      alone vs the full move vocabulary -- which neighbourhood actually
//      buys the acceptance gain.
//
// Usage: bench_ablation   (env: DPCP_SAMPLES, default 60)
#include <cstdio>

#include "core/dpcp.hpp"

using namespace dpcp;

namespace {

/// Acceptance of DPCP-p-EP under a given placement strategy / path budget
/// at one utilization point.
double acceptance(const Scenario& sc, double util, int samples,
                  PlacementKind placement, std::int64_t max_sigs) {
  DpcpPOptions opt;
  opt.max_signatures = max_sigs;
  DpcpPAnalysis ep(DpcpPAnalysis::PathMode::kEnumerate, opt);
  const PlacementStrategy& strategy = placement_strategy(placement);
  Rng root(99);
  int accepted = 0, total = 0;
  for (int s = 0; s < samples; ++s) {
    Rng rng = root.fork(static_cast<std::uint64_t>(s));
    GenParams params;
    params.scenario = sc;
    params.total_utilization = util;
    const auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    ++total;
    AnalysisSession session(*ts);
    if (ep.test(session, sc.m, &strategy).schedulable) ++accepted;
  }
  return total ? static_cast<double>(accepted) / total : 0.0;
}

/// Acceptance of the optimizer at one utilization point with the given
/// move mask (kAllMoves, one class, or 0 for seed-only), seeded from
/// every placement strategy.  Budget fixed at 200 evaluations.
double opt_acceptance(const Scenario& sc, double util, int samples,
                      unsigned move_mask) {
  const auto analysis = make_analysis(AnalysisKind::kDpcpPEp);
  OptOptions opt;
  opt.max_evals = move_mask == 0 ? 0 : 200;
  opt.move_mask = move_mask;
  Rng root(99);
  int accepted = 0, total = 0;
  for (int s = 0; s < samples; ++s) {
    Rng rng = root.fork(static_cast<std::uint64_t>(s));
    GenParams params;
    params.scenario = sc;
    params.total_utilization = util;
    const auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    ++total;
    AnalysisSession session(*ts);
    const OptimizeOutcome out = analysis->optimize(
        session, sc.m, all_placement_kinds(), rng.fork(0x4F5054ull), opt);
    if (out.outcome.schedulable) ++accepted;
  }
  return total ? static_cast<double>(accepted) / total : 0.0;
}

}  // namespace

int main() {
  const SweepOptions env = sweep_options_from_env(/*default_samples=*/60);
  const int samples = env.samples_per_point;
  Scenario sc = fig2_scenario('a');

  std::printf("=== A1: resource-placement strategies "
              "(DPCP-p-EP, Fig.2(a) scenario, %d samples/point) ===\n",
              samples);
  {
    Table t({"norm-util", "WFD", "FFD", "BFD", "SYNC"});
    for (double nu : {0.3, 0.4, 0.5, 0.6, 0.7}) {
      const double u = nu * sc.m;
      t.add_row(
          {strfmt("%.2f", nu),
           strfmt("%.3f",
                  acceptance(sc, u, samples, PlacementKind::kWfd, 20'000)),
           strfmt("%.3f", acceptance(sc, u, samples, PlacementKind::kFirstFit,
                                     20'000)),
           strfmt("%.3f", acceptance(sc, u, samples, PlacementKind::kBestFit,
                                     20'000)),
           strfmt("%.3f", acceptance(sc, u, samples,
                                     PlacementKind::kSyncAware, 20'000))});
    }
    std::fputs(t.to_text().c_str(), stdout);
  }

  std::printf("\n=== A2: exact path signatures (EP) vs envelope (EN) ===\n");
  {
    SweepOptions options;
    options.samples_per_point = samples;
    const SweepResult result = run_sweep(
        {sc}, {AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn}, options);
    std::fputs(result.curves.front().to_table().c_str(), stdout);
  }

  std::printf("\n=== A3: EP signature budget (acceptance at norm-util 0.5) "
              "===\n");
  {
    Table t({"max_signatures", "acceptance"});
    for (std::int64_t cap : {1LL, 64LL, 1024LL, 20'000LL}) {
      t.add_row({strfmt("%lld", static_cast<long long>(cap)),
                 strfmt("%.3f", acceptance(sc, 0.5 * sc.m, samples,
                                           PlacementKind::kWfd, cap))});
    }
    std::fputs(t.to_text().c_str(), stdout);
  }

  std::printf("\n=== A4: spare granting: first failure vs largest deadline "
              "miss (WFD placement) ===\n");
  {
    Table t({"norm-util", "first-failure", "max-miss"});
    for (double nu : {0.3, 0.4, 0.5, 0.6, 0.7}) {
      const double u = nu * sc.m;
      t.add_row(
          {strfmt("%.2f", nu),
           strfmt("%.3f",
                  acceptance(sc, u, samples, PlacementKind::kWfd, 20'000)),
           strfmt("%.3f", acceptance(sc, u, samples,
                                     PlacementKind::kWfdMaxMiss, 20'000))});
    }
    std::fputs(t.to_text().c_str(), stdout);
  }

  std::printf("\n=== A5: partition search: seed-only vs each move class "
              "(DPCP-p-EP, opt@200, all-strategy seeds) ===\n");
  {
    Table t({"norm-util", "seed-only", "regrant", "relocate", "widen",
             "narrow", "swap", "all"});
    for (double nu : {0.4, 0.45, 0.5, 0.55}) {
      const double u = nu * sc.m;
      std::vector<std::string> row{strfmt("%.2f", nu),
                                   strfmt("%.3f", opt_acceptance(sc, u,
                                                                 samples, 0))};
      for (int k = 0; k < kNumMoveKinds; ++k)
        row.push_back(strfmt(
            "%.3f", opt_acceptance(sc, u, samples,
                                   move_bit(static_cast<MoveKind>(k)))));
      row.push_back(strfmt("%.3f", opt_acceptance(sc, u, samples,
                                                  kAllMoves)));
      t.add_row(std::move(row));
    }
    std::fputs(t.to_text().c_str(), stdout);
  }
  return 0;
}
