// Parallel experiment engine: the one sweep loop every driver shares.
//
// The paper's empirical section (Sec. VII) is a grid of 216 scenarios, each
// swept over a total-utilization range with R randomly generated task sets
// per point, each task set tested by up to five analyses.  This engine owns
// that triple loop once, for any scenario list:
//
//   * work items are (scenario, utilization point, sample) triples drained
//     by a thread pool;
//   * every sample draws from a deterministic RNG sub-stream keyed on its
//     (scenario, point, sample) coordinates, so results are bit-identical
//     at 1 or N worker threads;
//   * all analyses see the *same* task sets (paired comparison, as in the
//     paper's footnote 1), and acceptance counts merge additively.
//
// Drivers (bench/, examples/) differ only in which scenarios they pass in
// and how they render the returned curves; see exp/report.hpp for CSV/JSON
// emission and exp/dominance.hpp for the Tables 2-3 statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/acceptance.hpp"
#include "exp/validate.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "util/stats.hpp"

namespace dpcp {

/// Knobs of one sweep; the defaults reproduce the paper's setup.
struct SweepOptions {
  /// Task sets generated per (scenario, utilization) point; capped at
  /// 2^20 so per-sample RNG sub-streams cannot alias across points.
  int samples_per_point = 100;
  /// Root seed of the whole sweep; see scenario_seed() for derivation.
  std::uint64_t seed = 42;
  /// Worker threads; 0 = one per hardware core.  Never more are started
  /// than there are work items.
  int threads = 0;
  /// Sec. VI extension: extra light tasks generated per task set.
  int light_tasks = 0;
  /// Normalized utilization points (fraction of m) overriding the paper's
  /// per-scenario grid of utilization_grid(); empty = paper grid.
  std::vector<double> norm_utilizations;
  /// Tuning knobs of every column's analysis (EP path/signature budgets).
  AnalysisOptions analysis;
  /// Placement axis: when non-empty, every placement-requiring analysis
  /// (placement() != kNone) is run once per listed strategy on the same
  /// task sets — one column per (analysis, strategy) pair, named
  /// "NAME@token" — while placement-insensitive analyses keep a single
  /// undecorated column.  Empty = the paper's WFD only, with the
  /// historical column names (golden-CSV compatible).
  std::vector<PlacementKind> placements;
  /// Anytime partition-search budget (candidate evaluations per task
  /// set): when > 0, every placement-requiring analysis gains one extra
  /// "NAME@opt<EVALS>" column — Algorithm 1 seeded from every built-in
  /// placement strategy, then budgeted local search over spare grants,
  /// resource placement, and cluster widths (src/opt/) on the task sets
  /// every other column saw (the paired comparison extends to the
  /// optimizer).  Accepted-by-construction whenever any strategy column
  /// accepts; the search's randomness comes from a per-(scenario, point,
  /// sample, column) keyed sub-stream, so sweeps stay bit-identical at
  /// any thread count.  0 = off (default), keeping every report
  /// byte-identical to pre-optimizer sweeps.
  std::int64_t optimize_evals = 0;
  /// Simulation backend: when sim.enabled (or sim.validate, which implies
  /// it), every generated task set is also executed on the discrete-event
  /// simulator and an extra "sim" observation column is appended after the
  /// analytical columns; sim.validate additionally cross-checks every
  /// analysis accept against a simulation of that analysis's partition.
  /// Sim runs draw from forks of the same per-(scenario, point, sample)
  /// RNG sub-streams as generation, so results stay bit-identical at any
  /// thread count.
  SimBackendOptions sim;
  /// Invoked whenever a scenario finishes, as (scenarios done, total).
  /// Called from worker threads, serialized by the engine.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Per-(scenario, analysis column, utilization point) optimizer
/// telemetry, summed over samples; only optimizer ("NAME@opt<EVALS>")
/// columns' entries are ever filled.  All counters merge additively, so
/// per-worker instances combine deterministically.
struct OptPointStats {
  std::int64_t seed_accepts = 0;    // accepted by a seed strategy alone
  std::int64_t search_accepts = 0;  // accepts the local search added
  std::int64_t evals = 0;           // candidate evaluations spent
  std::int64_t proposals = 0;       // moves proposed
  std::int64_t invalid_moves = 0;   // validate-rejected (0 oracle queries)
  void merge(const OptPointStats& o);
};

/// One AcceptanceCurve per input scenario, in input order.
struct SweepResult {
  std::vector<AcceptanceCurve> curves;
  /// True when a placement axis ran (SweepOptions::placements non-empty):
  /// analytical columns are (analysis, strategy) pairs and the report
  /// writers add a placement column/field plus per-strategy acceptance
  /// deltas.
  bool placement_axis = false;
  /// Per analytical column: the bare analysis display name (no strategy
  /// suffix).  Size = number of analytical columns (the trailing sim
  /// column, when present, is not listed).
  std::vector<std::string> column_analysis;
  /// Per analytical column: the placement-strategy token ("" for
  /// placement-insensitive analyses, "opt<EVALS>" for optimizer columns).
  std::vector<std::string> column_placement;
  /// Echo of SweepOptions::optimize_evals; > 0 when optimizer columns ran.
  std::int64_t optimize_evals = 0;
  /// Per analytical column: 1 for "NAME@opt<EVALS>" optimizer columns.
  std::vector<char> column_opt;
  /// Per (curve, analysis column, utilization point) optimizer telemetry;
  /// empty unless optimize_evals > 0 (and filled only at optimizer
  /// columns' indices).
  std::vector<std::vector<std::vector<OptPointStats>>> opt_stats;
  /// Generator health counters merged over the whole sweep (generation is
  /// per task set, not per analysis, so these are sweep-level).
  GenStats gen_stats;
  /// True when the simulation backend ran: every curve carries a trailing
  /// kSimColumnName observation column (observed schedulability on the
  /// baseline_partition()) and sim_stats below is filled.
  bool sim_enabled = false;
  /// Per (curve, utilization point) simulation observations, summed over
  /// samples; empty unless sim_enabled.
  std::vector<std::vector<SimPointStats>> sim_stats;
  /// True when cross-check mode ran (SimBackendOptions::validate).
  bool validated = false;
  /// Sweep-level cross-check report; analyses in input-kind order.
  ValidationReport validation;
  /// Per (curve, analysis, utilization point) cross-check aggregates,
  /// analysis index matching the input `kinds`; empty unless validated.
  std::vector<std::vector<std::vector<ValidationPointStats>>>
      validation_points;
};

/// Base seed of scenario `index` within a sweep rooted at `base_seed`.
/// Sample s of utilization point p of that scenario then draws from
/// Rng(scenario_seed(...)).fork((p << 20) ^ s).  Index 0 uses `base_seed`
/// itself, so a single-scenario sweep at seed S draws exactly what the
/// first scenario of any multi-scenario sweep at seed S draws.
std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index);

/// Runs the full grid: every scenario x utilization point x sample, testing
/// every analysis in `kinds` on each generated task set.
SweepResult run_sweep(const std::vector<Scenario>& scenarios,
                      const std::vector<AnalysisKind>& kinds,
                      const SweepOptions& options = {});

/// Cross-scenario aggregates of one sweep, via util/stats.
struct SweepSummary {
  /// Analysis display names, in sweep order.
  std::vector<std::string> names;
  /// Per analysis: accepted/total over every scenario and point (the
  /// outperformance metric of Table 3, summed over the whole sweep).
  std::vector<AcceptanceCounter> totals;
  /// Per analysis: distribution of the per-scenario mean acceptance ratio.
  std::vector<RunningStat> scenario_ratio;
  /// Generator health counters merged over the whole sweep.
  GenStats gen_stats;

  /// Aligned per-analysis table (accepted, totals, ratio distribution).
  std::string to_text() const;
};

SweepSummary summarize(const SweepResult& result);

/// Standard CLI progress reporter: prints "  ... done/total scenarios
/// done" to stderr every `every` completions and at the end; `every` of
/// 0 or 1 reports every completion.
std::function<void(std::size_t, std::size_t)> stderr_progress(
    std::size_t every = 20);

}  // namespace dpcp
