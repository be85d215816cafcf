// Tests for the anytime partition-search optimizer (src/opt/): move
// apply/undo round-trips, the never-worse-than-seed acceptance property
// over generated task sets, a digest of every strategy and search
// outcome, the validate gate (every partition the oracle sees is valid;
// invalid moves cost zero oracle queries), the evaluation budget
// (count-based, anytime, 0 = seed-only), and the engine's opt column
// (layout, paired never-below-strategy acceptance, 1-vs-8-thread
// CSV+JSON byte identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/interface.hpp"
#include "analysis/session.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "gen/taskset_gen.hpp"
#include "opt/move.hpp"
#include "opt/optimizer.hpp"
#include "partition/federated.hpp"
#include "partition/placement.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

std::string partition_fingerprint(const Partition& part) {
  return part.to_string();
}

// ---------- move vocabulary -------------------------------------------------

// A 2-task, 4-processor, 2-resource partition: tau0 -> {0, 1} (dedicated,
// 2 wide), tau1 -> {2}, resources l0 -> p0, l1 -> p2; p3 is spare.
Partition small_partition() {
  Partition part(4, 2, 2);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);
  part.add_processor_to_task(1, 2);
  part.assign_resource(0, 0);
  part.assign_resource(1, 2);
  return part;
}

TEST(Move, ApplyUndoRoundTripsEveryKind) {
  const Partition original = small_partition();
  std::vector<Move> moves = {
      Move::regrant(0, 1),        Move::relocate(0, 3),
      Move::widen(1, 3),          Move::narrow(0, 1),
      Move::swap_resources(0, 1),
  };
  for (Move& mv : moves) {
    Partition part = small_partition();
    ASSERT_TRUE(mv.apply(part)) << mv.to_string();
    EXPECT_NE(partition_fingerprint(part), partition_fingerprint(original))
        << mv.to_string() << " must change the partition";
    mv.undo(part);
    EXPECT_EQ(partition_fingerprint(part), partition_fingerprint(original))
        << mv.to_string() << " undo must restore the partition exactly";
  }
}

TEST(Move, ApplySemanticsPerKind) {
  {
    Partition part = small_partition();
    Move mv = Move::regrant(0, 1);
    ASSERT_TRUE(mv.apply(part));
    EXPECT_EQ(part.cluster(0), (std::vector<ProcessorId>{0}));
    EXPECT_EQ(part.cluster(1), (std::vector<ProcessorId>{2, 1}));
  }
  {
    Partition part = small_partition();
    Move mv = Move::narrow(0, 0);
    ASSERT_TRUE(mv.apply(part));
    EXPECT_EQ(part.cluster(0), (std::vector<ProcessorId>{1}));
    // The freed processor keeps hosting l0: a dedicated synchronization
    // processor, valid and analyzable.
    EXPECT_EQ(part.processor_of_resource(0), 0);
  }
  {
    Partition part = small_partition();
    Move mv = Move::swap_resources(0, 1);
    ASSERT_TRUE(mv.apply(part));
    EXPECT_EQ(part.processor_of_resource(0), 2);
    EXPECT_EQ(part.processor_of_resource(1), 0);
  }
}

TEST(Move, StructurallyImpossibleMovesRefuseAndLeavePartitionUntouched) {
  const Partition original = small_partition();
  std::vector<Move> impossible = {
      Move::regrant(1, 0),         // tau1 has a single processor
      Move::regrant(0, 0),         // self-move
      Move::relocate(0, 0),        // already there
      Move::widen(0, 2),           // p2 is not spare
      Move::narrow(1, 2),          // cluster would become empty
      Move::swap_resources(0, 0),  // self-swap
  };
  for (Move& mv : impossible) {
    Partition part = small_partition();
    EXPECT_FALSE(mv.apply(part)) << mv.to_string();
    EXPECT_EQ(partition_fingerprint(part), partition_fingerprint(original))
        << mv.to_string();
  }
}

// Promotion rule: granting to a task on a *shared* processor replaces its
// cluster (a sequential light task cannot use two processors), exactly as
// Algorithm 1's grant does.
TEST(Move, WidenPromotesSharedLightTasks) {
  Partition part(3, 2, 0);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 0);  // p0 shared by tau0 and tau1
  Move mv = Move::widen(1, 2);
  ASSERT_TRUE(mv.apply(part));
  EXPECT_EQ(part.cluster(1), (std::vector<ProcessorId>{2}));
  EXPECT_EQ(part.cluster(0), (std::vector<ProcessorId>{0}));
  mv.undo(part);
  EXPECT_EQ(part.cluster(1), (std::vector<ProcessorId>{0}));
}

// ---------- never worse than the seed --------------------------------------

// Over >= 200 generated task sets at the scenario corners, the optimizer
// must accept every task set any seed strategy accepts (by construction:
// it short-circuits on a seed accept), and its extra accepts must be real
// search finds on unanimous seed rejects.
TEST(OptimizerProperty, NeverWorseThanSeedOn200Sets) {
  const auto corners = scenario_corners();
  const auto kinds = all_placement_kinds();
  const auto analysis = make_analysis(AnalysisKind::kDpcpPEn);
  int generated = 0;
  std::int64_t strategy_accepts = 0, opt_accepts = 0, search_accepts = 0;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    for (int seed = 0; seed < 50; ++seed) {
      Rng rng(20'000 + 1'000 * static_cast<std::uint64_t>(c) +
              static_cast<std::uint64_t>(seed));
      GenParams params;
      params.scenario = corners[c];
      params.total_utilization = (0.35 + 0.05 * (seed % 8)) * corners[c].m;
      const auto ts = generate_taskset(rng, params);
      ASSERT_TRUE(ts.has_value());
      ++generated;

      AnalysisSession session(*ts);
      bool any_strategy = false;
      for (PlacementKind kind : kinds)
        if (analysis
                ->test(session, corners[c].m, &placement_strategy(kind))
                .schedulable)
          any_strategy = true;

      OptOptions opt;
      opt.max_evals = 60;
      const OptimizeOutcome out =
          optimize_partition(session, corners[c].m, *analysis->prepare(session),
                             kinds, rng.fork(0x4F5054ull), opt);

      strategy_accepts += any_strategy ? 1 : 0;
      opt_accepts += out.outcome.schedulable ? 1 : 0;
      search_accepts += out.search_accepted ? 1 : 0;
      // The core property: a seed accept is never lost.
      EXPECT_TRUE(!any_strategy || out.outcome.schedulable);
      EXPECT_EQ(out.seed_schedulable, any_strategy);
      // A seed accept costs zero search evaluations.
      if (out.seed_schedulable) {
        EXPECT_EQ(out.stats.evals, 0);
      }
      // An optimizer accept must carry a valid partition and per-task
      // bounds within deadlines.
      if (out.outcome.schedulable) {
        EXPECT_FALSE(out.outcome.partition.validate(*ts).has_value());
        for (int i = 0; i < ts->size(); ++i)
          EXPECT_LE(out.outcome.wcrt[static_cast<std::size_t>(i)],
                    ts->task(i).deadline());
      }
    }
  }
  EXPECT_EQ(generated, 200);
  EXPECT_GE(opt_accepts, strategy_accepts);
  EXPECT_EQ(opt_accepts - strategy_accepts, search_accepts);
  // The search must actually flip some unanimous rejects, or this test
  // exercises nothing beyond the short-circuit.
  EXPECT_GT(search_accepts, 0);
}

// ---------- outcome pin ----------------------------------------------------

// Every outcome byte of the four placement strategies and of the
// seed-then-search at 60 evaluations, for DPCP-p-EP and -EN over
// generated sets with and without light tasks.  The Golden.* tests pin
// only acceptance counts of these paths.
TEST(Optimizer, StrategiesAndSearchDigestPinned) {
  const auto corners = scenario_corners();
  const std::vector<PlacementKind> kinds{
      PlacementKind::kWfd, PlacementKind::kFirstFit, PlacementKind::kBestFit,
      PlacementKind::kSyncAware};
  const std::unique_ptr<SchedAnalysis> analyses[] = {
      make_analysis(AnalysisKind::kDpcpPEp),
      make_analysis(AnalysisKind::kDpcpPEn)};
  OptOptions opt;
  opt.max_evals = 60;
  Fnv1a digest;
  const auto add = [&digest](const PartitionOutcome& out) {
    std::string text = out.schedulable ? "1" : "0";
    for (Time w : out.wcrt) text += ' ' + std::to_string(w);
    text += ' ' + std::to_string(out.rounds) + ' ' +
            std::to_string(out.oracle_calls) + ' ' + out.failure + ' ' +
            out.partition.to_string() + '\n';
    digest.add(text);
  };
  int sets = 0;
  std::int64_t searches = 0, search_accepts = 0;
  bool shared = false;
  for (int light : {0, 2}) {
    for (std::size_t c = 0; c < corners.size(); ++c) {
      for (int k = 0; k < 11; ++k) {
        Rng rng(26'000 + 1'000 * static_cast<std::uint64_t>(light) +
                100 * static_cast<std::uint64_t>(c) +
                static_cast<std::uint64_t>(k));
        GenParams params;
        params.scenario = corners[c];
        params.light_tasks = light;
        params.total_utilization = (0.35 + 0.05 * (k % 8)) * corners[c].m;
        const auto ts = generate_taskset(rng, params);
        if (!ts) continue;
        ++sets;
        const int m = corners[c].m;
        AnalysisSession session(*ts);
        for (const auto& analysis : analyses) {
          for (PlacementKind kind : kinds) {
            const PartitionOutcome out =
                analysis->test(session, m, &placement_strategy(kind));
            add(out);
            for (int i = 0; i < ts->size(); ++i)
              if (out.partition.task_shares_processor(i)) shared = true;
          }
          const OptimizeOutcome out =
              optimize_partition(session, m, *analysis->prepare(session),
                                 kinds, rng.fork(0x4F5054ull), opt);
          add(out.outcome);
          const SearchStats& st = out.stats;
          digest.add(std::to_string(st.evals) + ' ' +
                     std::to_string(st.oracle_calls) + ' ' +
                     std::to_string(st.tasks_reused) + ' ' +
                     std::to_string(st.proposals) + ' ' +
                     std::to_string(st.invalid_moves) + ' ' +
                     std::to_string(st.restarts) + ' ' +
                     (out.seed_schedulable ? "s" : "-") +
                     (out.search_accepted ? "a" : "-") + '\n');
          searches += st.evals > 0 ? 1 : 0;
          search_accepts += out.search_accepted ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(sets, 88);
  EXPECT_TRUE(shared) << "no light task shared a processor";
  EXPECT_GT(searches, 0) << "no seed set was unanimously rejected";
  EXPECT_GT(search_accepts, 0) << "the search flipped no reject";
  // Recorded over these four strategies while a fifth (wfd-maxmiss) still
  // sat beside them.
  EXPECT_EQ(digest.h, 0x906bee7246c1fce1ull) << std::hex << digest.h;
}

// ---------- validate gate and budget ---------------------------------------

/// Oracle that (a) asserts every partition it is bound to passes
/// Partition::validate() and (b) counts bind()/wcrt() traffic.
class CheckingOracle final : public WcrtOracle {
 public:
  CheckingOracle(const TaskSet& ts, Time bound_offset)
      : ts_(ts), bound_offset_(bound_offset) {}

  void bind(const Partition& part) override {
    WcrtOracle::bind(part);
    ++binds;
    const auto err = part.validate(ts_);
    EXPECT_FALSE(err.has_value())
        << "oracle saw an invalid partition: " << *err;
  }

  std::optional<Time> wcrt(int task, const std::vector<Time>&) override {
    ++calls;
    // Deadline + offset: unschedulable everywhere (offset > 0), so the
    // search runs its full budget through stalls and restarts.
    return ts_.task(task).deadline() + bound_offset_;
  }

  std::int64_t binds = 0;
  std::int64_t calls = 0;

 private:
  const TaskSet& ts_;
  Time bound_offset_;
};

TEST(Optimizer, CandidatesAreValidatedAndInvalidMovesCostNoOracleQueries) {
  const Scenario sc = scenario_corners()[1];  // dense: tight capacity
  Rng rng(7);
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 0.6 * sc.m;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());

  CheckingOracle oracle(*ts, millis(1));
  const PartitionOutcome seed = partition_and_analyze(*ts, sc.m, oracle);
  ASSERT_FALSE(seed.schedulable);
  ASSERT_FALSE(seed.partition.validate(*ts).has_value());
  const std::int64_t binds_before = oracle.binds;
  const std::int64_t calls_before = oracle.calls;

  OptOptions opt;
  opt.max_evals = 80;
  const std::vector<int> order = analysis_priority_order(*ts);
  PartitionOptimizer optimizer(*ts, sc.m, oracle, order, Rng(11), opt);
  const SearchResult res = optimizer.run({&seed.partition});

  EXPECT_FALSE(res.schedulable);
  // Every evaluation binds exactly one (validated) candidate; nothing
  // else may touch the oracle.
  EXPECT_EQ(oracle.binds - binds_before, res.stats.evals);
  EXPECT_EQ(oracle.calls - calls_before, res.stats.oracle_calls);
  EXPECT_LE(res.stats.evals, opt.max_evals);
  // The gate must have fired: on a dense task set near capacity some
  // proposed moves violate the invariants, and each such candidate was
  // undone without an oracle query (checked by the eval == bind identity
  // above plus CheckingOracle's validate assertion).
  EXPECT_GT(res.stats.invalid_moves, 0);
  // Every invalid move came from a proposal; restart-kick evaluations
  // are the only evals without one.
  EXPECT_GE(res.stats.proposals, res.stats.invalid_moves);
  EXPECT_GE(res.stats.proposals + res.stats.restarts + 1, res.stats.evals);
}

TEST(Optimizer, BudgetZeroDegradesToSeedOnly) {
  const Scenario sc = scenario_corners()[0];
  Rng rng(13);
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 0.55 * sc.m;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());

  CheckingOracle oracle(*ts, millis(1));
  const PartitionOutcome seed = partition_and_analyze(*ts, sc.m, oracle);
  ASSERT_FALSE(seed.schedulable);

  OptOptions opt;
  opt.max_evals = 0;
  const std::vector<int> order = analysis_priority_order(*ts);
  PartitionOptimizer optimizer(*ts, sc.m, oracle, order, Rng(11), opt);
  const std::int64_t binds_before = oracle.binds;
  const SearchResult res = optimizer.run({&seed.partition});
  EXPECT_FALSE(res.schedulable);
  EXPECT_EQ(res.stats.evals, 0);
  EXPECT_EQ(oracle.binds, binds_before);
  EXPECT_EQ(partition_fingerprint(res.partition),
            partition_fingerprint(seed.partition));
}

// The incremental-evaluation contract, observed through the prepared
// oracle's diff telemetry: across an optimizer run the oracle is bound
// once per Algorithm-1 round plus once per search evaluation, and some
// per-task diffs certify unchanged inputs (cluster moves leave most
// tasks' declared inputs intact), which is exactly what evaluate() reuses.
TEST(Optimizer, PreparedOracleDiffingEngagesAcrossMoves) {
  const Scenario sc = scenario_corners()[0];
  Rng rng(21);
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 0.55 * sc.m;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());

  AnalysisSession session(*ts);
  const auto analysis = make_analysis(AnalysisKind::kDpcpPEn);
  const auto prepared = analysis->prepare(session);
  OptOptions opt;
  opt.max_evals = 40;
  const OptimizeOutcome out = optimize_partition(
      session, sc.m, *prepared, all_placement_kinds(), rng.fork(3), opt);

  EXPECT_GT(prepared->binds(), 0);
  // Each bind diffs every task exactly once.
  EXPECT_EQ(prepared->diffs_unchanged() + prepared->diffs_invalidated(),
            prepared->binds() * ts->size());
  if (out.stats.evals > 0) {
    // The search ran: the move-local diffs must have certified at least
    // some tasks unchanged (the optimizer's skip opportunity), and every
    // search-side reuse is bounded by what the oracle certified.
    EXPECT_GT(prepared->diffs_unchanged(), 0);
    EXPECT_LE(out.stats.tasks_reused, prepared->diffs_unchanged());
  }
}

// ---------- engine integration ---------------------------------------------

TEST(OptSweep, ColumnLayoutAndPairedNeverBelowStrategyColumns) {
  SweepOptions options;
  options.samples_per_point = 6;
  options.seed = 42;
  options.norm_utilizations = {0.45, 0.55};
  options.placements = all_placement_kinds();
  options.optimize_evals = 60;
  const SweepResult result =
      run_sweep({fig2_scenario('a'), fig2_scenario('c')},
                {AnalysisKind::kDpcpPEn, AnalysisKind::kFedFp}, options);

  ASSERT_EQ(result.curves.size(), 2u);
  // EN fans out per strategy plus the optimizer column; FED-FP is
  // placement-insensitive and stays bare.
  ASSERT_EQ(result.curves[0].names,
            (std::vector<std::string>{
                "DPCP-p-EN@wfd", "DPCP-p-EN@ffd", "DPCP-p-EN@bfd",
                "DPCP-p-EN@sync", "DPCP-p-EN@opt60", "FED-FP"}));
  EXPECT_EQ(result.column_opt, (std::vector<char>{0, 0, 0, 0, 1, 0}));
  EXPECT_EQ(result.column_placement[4], "opt60");
  EXPECT_EQ(result.optimize_evals, 60);

  // Paired comparison: at every (scenario, point), the optimizer column
  // accepts at least as much as every strategy column.
  for (const AcceptanceCurve& curve : result.curves)
    for (std::size_t p = 0; p < curve.utilization.size(); ++p)
      for (std::size_t a = 0; a < 4; ++a)
        EXPECT_GE(curve.accepted[4][p], curve.accepted[a][p])
            << curve.scenario.name() << " point " << p << " strategy " << a;
}

TEST(OptSweep, ThreadCountByteIdentityCsvAndJson) {
  SweepOptions options;
  options.samples_per_point = 5;
  options.seed = 42;
  options.norm_utilizations = {0.5, 0.6};
  options.optimize_evals = 50;
  const std::vector<Scenario> scenarios{fig2_scenario('a'),
                                        fig2_scenario('c')};
  const std::vector<AnalysisKind> kinds{AnalysisKind::kDpcpPEp,
                                        AnalysisKind::kFedFp};

  options.threads = 1;
  const SweepResult one = run_sweep(scenarios, kinds, options);
  options.threads = 8;
  const SweepResult eight = run_sweep(scenarios, kinds, options);

  EXPECT_EQ(sweep_to_csv(one), sweep_to_csv(eight));
  EXPECT_EQ(sweep_to_json(one), sweep_to_json(eight));
}

}  // namespace
}  // namespace dpcp
