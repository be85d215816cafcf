// Simulation-in-the-loop validation of the analytical sweeps.
//
// The five analyses of Sec. VII are *claims*: "every legal execution of
// this task set meets all deadlines under this partition".  The
// discrete-event simulator (src/sim/) executes one legal behaviour —
// synchronous release, strictly periodic (or sporadic) arrivals,
// worst-case (or scaled) segment lengths — so any analysis accept that
// the simulator then shows missing a deadline is a soundness bug by
// construction.  This header is the glue between the experiment engine
// and the simulator:
//
//  * a "sim" observation column: every generated task set is executed on
//    the analysis-independent baseline partition (minimum federated
//    clusters + WFD placement) and observed schedulability is recorded
//    alongside the analytical columns;
//  * a cross-check mode: every analysis accept is re-executed on the
//    partition *that analysis* produced, under the protocol it models
//    (EP/EN -> DPCP-p agents, SPIN-SON -> FIFO spin locks; LPP and
//    FED-FP have no faithful runtime counterpart and are gap-reported
//    only, never hard-failed);
//  * a run table per task set: the sim column and the cross-checks take
//    their runs from it, so a run equal to one already made for the same
//    task set (same partition, protocol and config) is not simulated again;
//  * deterministically mergeable statistics: observed/bound response
//    ratios quantized to parts-per-million and accumulated in integer
//    histograms, so sweep results stay bit-identical at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "analysis/interface.hpp"
#include "partition/partitioner.hpp"
#include "sim/config.hpp"
#include "util/rng.hpp"

namespace dpcp {

/// Display name of the simulation-backed observation column the engine
/// appends after the analytical columns.
inline constexpr const char* kSimColumnName = "sim";

/// How the per-sample simulation exercises the task set.
enum class SimSweepMode {
  /// Worst-case: synchronous release at t=0, strictly periodic arrivals,
  /// full worst-case segment lengths.  Deterministic per task set.
  kWorst,
  /// Randomised legal behaviour: sporadic arrivals (period + uniform
  /// jitter of up to 1/8 of the shortest period) and execution segments
  /// scaled by a per-sample factor in [0.5, 1].  Still a legal run of the
  /// analysed model, so every analysis bound must cover it.
  kRandom,
};

/// Knobs of the engine's simulation backend (SweepOptions::sim).
struct SimBackendOptions {
  /// Run the simulator on every generated task set and append the "sim"
  /// observation column.
  bool enabled = false;
  /// Additionally cross-check every analysis accept against a simulation
  /// of that analysis's own partition (implies per-accept sim runs).
  bool validate = false;
  /// Simulated release span per task set.  Jobs released before the
  /// horizon always run to completion, so every task observes at least
  /// its synchronous-release job even under short horizons.
  Time horizon = millis(100);
  SimSweepMode mode = SimSweepMode::kWorst;
};

/// The simulator protocol that faithfully executes what `kind` bounds;
/// nullopt when the simulator has no counterpart (LPP's suspension-based
/// semaphores, FED-FP's resource-oblivious bound) — such analyses are
/// never hard-failed by the cross-check.
std::optional<SimProtocol> sim_protocol_for(AnalysisKind kind);

/// Distribution of observed/bound response-time ratios, quantized to
/// parts-per-million and accumulated in integers only, so merging
/// per-worker instances in any order yields bit-identical results.
/// A sound analysis keeps every ratio <= 1; the distribution's distance
/// below 1 is the analysis's pessimism gap.
class GapStat {
 public:
  /// 1% histogram resolution over [0, 2); ratios >= 2 land in the last
  /// (overflow) bin.  Mean and max are exact to 1 ppm.
  static constexpr std::int64_t kBinWidthPpm = 10'000;
  static constexpr std::size_t kBins = 201;

  /// Folds in one observation: `observed` response vs `bound` (> 0).
  void add(Time observed, Time bound);
  void merge(const GapStat& o);

  std::int64_t count() const { return count_; }
  double mean() const;
  double max() const;
  /// Upper edge of the histogram bin holding the p-th percentile
  /// (0 < p <= 100); 0 when empty.  Resolution kBinWidthPpm.
  double percentile(double p) const;

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ppm_ = 0;
  std::int64_t max_ppm_ = -1;
  std::array<std::int64_t, kBins> bins_{};
};

/// Per-(scenario, utilization point) simulation observations, summed over
/// samples.  All counters merge additively; max_response by max.
struct SimPointStats {
  std::int64_t simulated = 0;         // task sets actually executed
  std::int64_t unpartitionable = 0;   // baseline partition infeasible
  std::int64_t deadline_misses = 0;   // summed over tasks and samples
  std::int64_t unfinished = 0;        // hard-stop hits (backlog never drained)
  std::int64_t invariant_violations = 0;
  Time max_response = 0;              // max over tasks and samples
  void merge(const SimPointStats& o);
};

/// Per-(scenario, analysis, utilization point) cross-check aggregates
/// (the CSV-facing slice of the validation data).
struct ValidationPointStats {
  std::int64_t checked = 0;   // accepts simulated
  std::int64_t unsound = 0;   // accepts the simulator refuted
  std::int64_t gap_count = 0;
  std::int64_t gap_sum_ppm = 0;
  std::int64_t gap_max_ppm = -1;
  /// Folds in one observed/bound ratio (same quantization as GapStat).
  void add_ratio(Time observed, Time bound);
  void merge(const ValidationPointStats& o);
  double gap_mean() const;
  double gap_max() const;
};

/// One refuted accept: the analysis said schedulable, the simulator
/// observed a deadline miss (or an unbounded backlog, or a response above
/// the analysis's own WCRT bound) on the analysis's own partition.
struct UnsoundAccept {
  std::size_t scenario = 0;  // index into SweepResult::curves
  std::size_t point = 0;
  std::size_t sample = 0;
  std::string analysis;
  std::int64_t deadline_misses = 0;
  bool drained = true;
  int worst_task = -1;   // task with the largest observed/bound ratio
  Time observed = 0;     // its max observed response
  Time bound = 0;        // its analytical WCRT bound
};

/// Sweep-level cross-check aggregates for one analysis column.
struct AnalysisValidation {
  std::string name;
  bool comparable = false;  // sim_protocol_for() has a counterpart
  std::int64_t accepts_checked = 0;
  std::int64_t unsound_accepts = 0;
  std::int64_t invariant_violations = 0;
  GapStat gap;  // observed/bound ratios over all accepted, simulated sets
  void merge(const AnalysisValidation& o);
};

/// Everything --validate adds to a SweepResult.
struct ValidationReport {
  /// One entry per analysis column, in sweep order.
  std::vector<AnalysisValidation> analyses;
  /// Refuted accepts of *comparable* analyses, sorted by (scenario,
  /// point, sample, analysis) so the report is thread-count independent.
  std::vector<UnsoundAccept> failures;

  /// True when no comparable analysis produced an unsound accept — the
  /// property the --validate CI job asserts on every PR.
  bool sound() const { return failures.empty(); }
  /// Aligned per-analysis table: accepts checked, unsound, invariant
  /// violations, and the pessimism-gap percentiles.
  std::string to_text() const;
};

/// Verdict of one simulation run, shared by the sim column and the
/// cross-check: schedulable iff the run drained without deadline misses.
/// Invariant violations are tracked separately — they indict the
/// simulator or the protocol implementation, not the analysis.
struct SimVerdict {
  bool schedulable = false;
  std::int64_t deadline_misses = 0;
  bool drained = false;
  std::int64_t invariant_violations = 0;
};
SimVerdict classify_sim(const SimResult& res);

/// SimConfig for one sample.  kWorst is fully deterministic; kRandom
/// draws jitter and execution scale from `rng` (one sub-stream per
/// sample, so results are thread-count independent).
SimConfig sample_sim_config(const SimBackendOptions& options,
                            const TaskSet& ts, Rng& rng);

/// The simulations of one task set, each distinct run made once.  A run
/// is its partition (processor count, every cluster in order, the
/// resource map) and every SimConfig field, the protocol among them.
/// Under SimSweepMode::kWorst every run of a task set has the same config,
/// and the sim column's baseline partition is also the partition
/// DPCP-p-EP and -EN accept whenever Algorithm 1 grants no extra
/// processor, so those columns share one run.  Under kRandom each column
/// draws its own config and nothing is shared.
class SimRunTable {
 public:
  /// `ts` must outlive the table.
  explicit SimRunTable(const TaskSet& ts) : ts_(ts) {}

  /// The result of simulate(ts, part, config): simulated on the first
  /// call with these inputs, and the stored result on every later one.
  /// The reference stays valid for the table's lifetime.
  const SimResult& run(const Partition& part, const SimConfig& config);

  /// Distinct runs simulated so far.
  std::size_t simulations() const { return runs_.size(); }

 private:
  struct Run {
    Partition partition;
    SimConfig config;
    SimResult result;
  };
  const TaskSet& ts_;
  std::deque<Run> runs_;  // a deque keeps handed-out references valid
};

/// Cross-checks one accept against `res`, a simulation of the task set
/// on the partition `outcome` produced, under the protocol the analysis
/// models: compares the observed responses with the outcome's WCRT
/// bounds.  Returns the filled UnsoundAccept fields (scenario/point/
/// sample/analysis left to the caller) when the run refutes the accept,
/// plus the ratios to fold into the gap statistics.
struct CrossCheckResult {
  bool unsound = false;
  SimVerdict verdict;
  int worst_task = -1;
  Time worst_observed = 0;
  Time worst_bound = 0;
  /// Per task with at least one completed job and a finite bound:
  /// (observed max response, analytical bound).
  std::vector<std::pair<Time, Time>> ratios;
};
CrossCheckResult cross_check_accept(const PartitionOutcome& outcome,
                                    const SimResult& res);

}  // namespace dpcp
