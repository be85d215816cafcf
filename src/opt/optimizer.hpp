// Anytime local search over partitions (the optimizer of src/opt/).
//
// Given one or more seed partitions (typically the final — rejected —
// partitions of Algorithm-1 runs under different placement strategies),
// the optimizer walks the joint (spare grants x resource placement x
// cluster widths) space with the Move vocabulary of opt/move.hpp:
// first-improvement hill climbing on a deterministic objective, with a
// deterministic kick-and-restart schedule when the climb stalls.
//
// Design contract:
//
//   * Deterministic.  All randomness comes from the caller-supplied keyed
//     Rng sub-stream; given (task set, oracle, seeds, rng, options) the
//     search trajectory is a pure function — the experiment engine forks
//     one sub-stream per (scenario, point, sample, column), so sweeps are
//     bit-identical at any thread count.
//   * Budgeted and anytime.  Every candidate scored through the oracle
//     costs one evaluation from OptOptions::max_evals (wall-clock never
//     enters); exhausting the budget returns the best candidate so far.
//   * Never worse than the seed.  The search starts from the best seed and
//     only ever replaces it with strictly better-scoring candidates, so a
//     task set any seed strategy accepts is accepted with zero search work
//     (the caller short-circuits), and a rejected seed can only improve.
//   * Validate-gated.  Every applied move runs Partition::validate()
//     before the oracle sees the candidate; invalid candidates are undone
//     with zero oracle queries (SearchStats::invalid_moves counts them).
//   * Incremental.  Each candidate is scored by one AnalysisPass
//     (partition/partitioner.hpp) kept across candidates, so a stateful
//     oracle (analysis/prepared.hpp) re-analyzes only the tasks whose
//     declared partition inputs the move changed; the pass reuses the
//     rest (SearchStats::tasks_reused counts those).
//
// optimize_partition() is the seed-then-search entry point: Algorithm 1
// under every seed strategy, then this search over the rejected
// partitions.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/session.hpp"
#include "opt/move.hpp"
#include "partition/partitioner.hpp"
#include "partition/placement.hpp"
#include "util/rng.hpp"

namespace dpcp {

/// Knobs of one optimizer run.  The defaults are the sweep defaults of
/// `--optimize`; everything is count-based so results never depend on the
/// clock.
struct OptOptions {
  /// Candidate evaluations (full oracle scoring passes) the search may
  /// spend, including scoring the seeds themselves.  0 = seed-only.
  std::int64_t max_evals = 200;
};

/// Lexicographic objective: fewer failing tasks first, then a smaller
/// total miss penalty.  Per failing task the penalty is bound minus
/// deadline saturated at one deadline when the oracle reports the
/// overshoot, and one full deadline when it reports failure as nullopt.
/// The production prepared analyses cap their fixed-point solves at the
/// deadline and always return nullopt on failure, so under them the
/// secondary term reduces to the sum of the failing tasks' deadlines — a
/// deterministic tie-break over *which* tasks fail; oracles that do
/// report overshoot (e.g. hand-written WcrtOracle subclasses) get the
/// finer miss-magnitude gradient.  Integer-only, so scores merge and compare
/// identically on every platform.
struct OptScore {
  std::int64_t failing = 0;
  Time penalty = 0;

  bool schedulable() const { return failing == 0; }
  bool better_than(const OptScore& o) const {
    if (failing != o.failing) return failing < o.failing;
    return penalty < o.penalty;
  }
};

/// Counters of one search (all deterministic).
struct SearchStats {
  std::int64_t evals = 0;          // candidates scored through the oracle
  std::int64_t oracle_calls = 0;   // wcrt() queries actually issued
  std::int64_t tasks_reused = 0;   // per-task re-analyses skipped
  std::int64_t proposals = 0;      // moves proposed (all outcomes)
  std::int64_t invalid_moves = 0;  // undone by the validate gate, 0 queries
  std::int64_t restarts = 0;       // kick-and-restart events
};

/// Outcome of PartitionOptimizer::run().
struct SearchResult {
  /// True when some candidate scored schedulable (all bounds <= deadline).
  bool schedulable = false;
  /// Best candidate found (== the best seed when nothing improved).
  Partition partition;
  /// Per-task WCRT bounds of `partition` (kTimeInfinity where failing),
  /// computed with the same hint chaining as partition_and_analyze().
  std::vector<Time> wcrt;
  /// Index into the `seeds` argument of the seed the search grew from.
  std::size_t seed_index = 0;
  SearchStats stats;
};

class PartitionOptimizer {
 public:
  /// `ts`, `oracle`, and `order` (the decreasing-priority analysis order,
  /// analysis_priority_order(ts)) must outlive the optimizer.  The oracle
  /// is queried through bind() and one AnalysisPass per candidate, like
  /// partition_and_analyze()'s — any WcrtOracle works, stateful ones get
  /// the incremental speedup.
  PartitionOptimizer(const TaskSet& ts, int m, WcrtOracle& oracle,
                     const std::vector<int>& order, Rng rng,
                     const OptOptions& options);

  /// Scores every (valid) seed, hill-climbs from the best, and returns the
  /// best candidate found.  `seeds` must be nonempty and each seed must
  /// pass Partition::validate() — invalid seeds are skipped; when all are
  /// invalid the first seed is returned unscored (not schedulable).
  SearchResult run(const std::vector<const Partition*>& seeds);

 private:
  OptScore evaluate(const Partition& part);
  std::optional<Move> propose(const Partition& part);

  const TaskSet& ts_;
  const int m_;
  WcrtOracle& oracle_;
  Rng rng_;
  const OptOptions options_;
  const std::vector<ResourceId> globals_;

  AnalysisPass pass_;            // scores every candidate
  std::vector<Time> last_wcrt_;  // bounds of the last evaluated candidate
  std::vector<char> hosted_;     // propose()'s per-processor marks
  SearchStats stats_;
};

/// Outcome of optimize_partition().
struct OptimizeOutcome {
  /// Final verdict: the accepting seed outcome, the search's schedulable
  /// partition (with oracle-computed per-task bounds), or — when neither
  /// exists — the seeding strategy's rejected outcome.
  PartitionOutcome outcome;
  /// True when some seed strategy already accepted (no search ran).
  bool seed_schedulable = false;
  /// True when the local search turned a unanimous seed reject into an
  /// accept — the optimizer's acceptance gain.
  bool search_accepted = false;
  /// Search counters; all zero when a seed accepted.
  SearchStats stats;
};

/// Algorithm 1, then local search.  Runs partition_and_analyze() once per
/// strategy in `seeds`, in order, with `session`'s priority order and
/// per-strategy placement memo and one shared `oracle` (prepared on
/// `session` by a placement-requiring analysis; its cross-round diffing
/// keeps later runs cheap), and returns as soon as one accepts.  After a
/// unanimous reject the rejected final partitions seed a
/// PartitionOptimizer.  Never worse than the best seed: a search that
/// fails to reach schedulability returns the seeding strategy's outcome
/// untouched, with the search's oracle calls added.  `seeds` must be
/// nonempty; `rng` is the search's private sub-stream, forked by callers
/// from their keyed stream so results are reproducible at any thread
/// count.
OptimizeOutcome optimize_partition(AnalysisSession& session, int m,
                                   WcrtOracle& oracle,
                                   const std::vector<PlacementKind>& seeds,
                                   Rng rng, const OptOptions& opt = {});

}  // namespace dpcp
