// Online-scenario driver: seeded arrival/departure streams replayed
// through the AdmissionController, with deterministic CSV output.
//
// Each (scenario, stream) pair is an independent replay: a forked Rng
// drives task arrivals (drawn from repeated generate_taskset() refills
// of the scenario's generator) interleaved with departures of uniformly
// chosen residents, all admitted/released through one long-lived
// controller.  Reported admission latency is *count-based* — oracle
// wcrt() calls per event — so percentiles are identical on any machine
// and at any --threads value; streams are data-parallel and results are
// emitted in (scenario, stream) order, making the CSV byte-identical at
// any thread count (the property CI's 1-vs-8-thread gate pins).
//
// With validate=true every accept is additionally re-executed on the
// discrete-event simulator under the analysis's protocol (where one
// exists — see exp/validate.hpp); a refuted accept is a soundness bug
// and is counted in the `unsound` column (the tool exits non-zero).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "gen/scenario.hpp"
#include "obs/metrics.hpp"
#include "opt/admission.hpp"

namespace dpcp {

struct OnlineOptions {
  std::vector<Scenario> scenarios;
  /// Independent event streams per scenario.
  int streams = 4;
  /// Events (arrival or departure attempts) per stream.
  int events = 100;
  /// Probability an event is a departure (when enough tasks are resident).
  double depart_prob = 0.3;
  /// Heavy-task utilization budget per generator refill, as a fraction
  /// of m (the sweep's per-point normalized utilization).
  double util_frac = 0.4;
  /// Every stream's controller knobs; run_stream() sets `m` to the
  /// scenario's and `seed` to the stream's fork of this seed.
  AdmitOptions admit;
  /// Worker threads; at most one per (scenario, stream) replay starts.
  int threads = 1;
  /// Simulate every accept under the analysis's protocol.
  bool validate = false;
};

/// One replayed stream's deterministic summary.
struct OnlineStreamResult {
  int scenario = 0;  // index into options.scenarios
  int stream = 0;
  int events = 0;
  int arrivals = 0;
  int accepts = 0;
  int departs = 0;
  int readmits = 0;
  /// floor(1e6 * accepts / arrivals); integer so output never depends on
  /// float formatting.
  std::int64_t acceptance_ppm = 0;
  /// Percentiles/extremes of per-arrival admission cost (oracle calls).
  std::int64_t cost_p50 = 0;
  std::int64_t cost_p99 = 0;
  std::int64_t cost_max = 0;
  std::int64_t oracle_calls = 0;
  std::int64_t tasks_reused = 0;
  /// Accepts the simulator refuted (validate mode only; must be 0).
  int unsound = 0;
  /// The stream's controller metrics (obs/metrics.hpp) with the analysis
  /// cache counters folded in — merge_online_metrics() aggregates these
  /// across streams for the --metrics-json report.
  MetricsRegistry metrics;
};

/// Replays every (scenario, stream) pair (data-parallel over
/// options.threads) and returns results in deterministic order.
std::vector<OnlineStreamResult> run_online(const OnlineOptions& options);

/// Writes the CSV report (header + one row per stream, in order).
void write_online_csv(const std::vector<OnlineStreamResult>& results,
                      const OnlineOptions& options, std::ostream& out);

/// Merges every stream's registry in (scenario, stream) order — the order
/// results are already in — so the aggregate is byte-identical at any
/// --threads value.
MetricsRegistry merge_online_metrics(
    const std::vector<OnlineStreamResult>& results);

}  // namespace dpcp
