// Cost of online admission: replays one seeded arrival/departure stream
// through the AdmissionController twice per event —
//
//  * incremental: the controller's own path (mutable session, epoch-aware
//    fingerprint diffing, cross-event result reuse, delta placement);
//  * from-scratch: a fresh AnalysisSession + prepared oracle over the
//    same resident set, evaluating every task on the same partition (what
//    a non-incremental admission service would pay per event);
//
// and reports mean per-event wall latency for both, their ratio (>= 5x
// on a >= 100-event stream), an admissions/sec throughput, and the
// count-based p50/p99 admission cost (oracle calls per arrival —
// machine-independent, unlike the wall numbers).
//
// Usage: bench_admit [--events N]
//        (default 200 events; seed 42, scenario (a) + light mix, nr=24,
//        DPCP-p-EP, delta rung only)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/interface.hpp"
#include "analysis/prepared.hpp"
#include "analysis/session.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "opt/admission.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

using namespace dpcp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The from-scratch leg: what a non-incremental admission service pays
/// per event — rebuild the analysis session and run the full offline
/// pipeline (cluster sizing, resource placement, partitioning rounds,
/// per-task analysis) over the current resident set, carrying nothing
/// over from the previous event.
double scratch_certify(const AdmissionController& ctrl, AnalysisKind kind,
                       int m) {
  const auto t0 = std::chrono::steady_clock::now();
  TaskSet ts = ctrl.taskset();
  AnalysisSession session(ts);
  SchedAnalysis(kind).test(session, m);
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  int events = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) {
      const auto v = parse_int(argv[++i], 1, 1 << 24);
      if (v) {
        events = static_cast<int>(*v);
        continue;
      }
    }
    std::fprintf(stderr, "bench_admit: expected --events N, got '%s'\n",
                 arg.c_str());
    return 2;
  }
  constexpr std::uint64_t kSeed = 42;

  // Scenario (a) platform with sparser resource sharing (more resources,
  // lower p_r): each arrival then perturbs a few user sets instead of all
  // of them, which is the regime the epoch-granular diff is built for.
  Scenario scenario = fig2_scenario('a');
  scenario.nr_min = scenario.nr_max = 24;
  scenario.p_r = 0.1;
  scenario.n_req_max = 5;  // short request bursts: admission-bound, not CS-bound
  const int nr = (scenario.nr_min + scenario.nr_max) / 2;
  const AnalysisKind kind = AnalysisKind::kDpcpPEp;

  AdmitOptions options;
  options.m = scenario.m;
  options.kind = kind;
  options.repair_evals = 0;    // both legs then do comparable per-event work
  options.placements.clear();  // latency config: delta rung only
  options.retry_capacity = 4;  // bound the per-departure re-admission pass
  options.seed = kSeed;
  AdmissionController ctrl(nr, options);
  // Refills with a Sec. VI light/heavy mix: the heavy budget keeps the
  // platform busy, the light tasks grow the resident set well past the
  // processor count — the regime where re-certifying everything per
  // event actually hurts.
  GenParams refill;
  refill.scenario = scenario;
  refill.scenario.nr_min = refill.scenario.nr_max = nr;
  refill.total_utilization = 0.15 * scenario.m;
  refill.light_tasks = 12;
  refill.light_util_min = 0.05;
  refill.light_util_max = 0.25;
  const Rng root(kSeed);
  TaskPool pool(refill, root.fork(1));
  Rng stream = root.fork(2);

  int arrivals = 0, accepts = 0, departs = 0;
  double incremental_s = 0.0, scratch_s = 0.0, admit_s = 0.0;
  std::vector<std::int64_t> costs;
  for (int ev = 0; ev < events; ++ev) {
    // Load-dependent churn: departures get likelier as the service fills,
    // holding the resident set near (not past) capacity — the steady
    // state an admission service actually runs in.
    const double depart_prob =
        std::min(0.85, static_cast<double>(ctrl.resident()) / 60.0);
    const bool depart = ctrl.resident() > 2 && stream.bernoulli(depart_prob);
    if (depart) {
      // Newest-first churn (short-lived jobs): departures then hit the
      // tail index, the controller's non-renumbering removal fast path.
      const int victim = ctrl.resident() - 1;
      const auto t0 = std::chrono::steady_clock::now();
      ctrl.depart(ctrl.external_id(victim));
      incremental_s += seconds_since(t0);
      ++departs;
    } else {
      DagTask task = pool.next();
      const auto t0 = std::chrono::steady_clock::now();
      const AdmitDecision d = ctrl.admit(std::move(task));
      const double dt = seconds_since(t0);
      incremental_s += dt;
      admit_s += dt;
      ++arrivals;
      costs.push_back(d.cost);
      if (d.accepted) ++accepts;
    }
    // The non-incremental comparison certifies the same post-event state.
    if (ctrl.resident() > 0)
      scratch_s += scratch_certify(ctrl, kind, scenario.m);
  }

  std::sort(costs.begin(), costs.end());
  const auto pct = [&](int p) -> long long {
    if (costs.empty()) return 0;
    return costs[(costs.size() - 1) * static_cast<std::size_t>(p) / 100];
  };
  const double mean_inc_us = 1e6 * incremental_s / events;
  const double mean_scr_us = 1e6 * scratch_s / events;
  const double speedup = incremental_s > 0 ? scratch_s / incremental_s : 0.0;
  const double admissions_per_sec =
      admit_s > 0 ? static_cast<double>(arrivals) / admit_s : 0.0;
  const AdmissionStats& s = ctrl.stats();

  std::printf(
      "=== Online admission: %d events (scenario (a)+light, m=%d, nr=%d, "
      "DPCP-p-EP) ===\n"
      "arrivals %d  accepts %d  departs %d  readmits %lld\n"
      "mean per-event latency: incremental %.1fus, from-scratch %.1fus "
      "(%.1fx)\n"
      "admissions/sec (incremental): %.0f\n"
      "admission cost (oracle calls/arrival): p50 %lld  p99 %lld  max %lld\n"
      "oracle calls %lld, per-task re-analyses skipped %lld\n",
      events, scenario.m, nr, arrivals, accepts, departs,
      static_cast<long long>(s.readmits), mean_inc_us, mean_scr_us, speedup,
      admissions_per_sec, pct(50), pct(99),
      costs.empty() ? 0ll : static_cast<long long>(costs.back()),
      static_cast<long long>(s.oracle_calls),
      static_cast<long long>(s.tasks_reused));
  return 0;
}
