// Tests for the simulation-in-the-loop validation backend (exp/validate):
// deterministic gap statistics, the analysis->protocol mapping, the
// baseline partition, cross-checking (including a deliberately weakened
// oracle whose unsound accept must be flagged), the per-task-set run
// table's identity of a run, engine integration with thread-count
// determinism, and report edge cases at samples == 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/validate.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

// ---------- GapStat --------------------------------------------------------

TEST(GapStat, HandCheckedMoments) {
  GapStat g;
  g.add(80, 100);   // 0.8
  g.add(90, 100);   // 0.9
  EXPECT_EQ(g.count(), 2);
  EXPECT_NEAR(g.mean(), 0.85, 1e-6);
  EXPECT_NEAR(g.max(), 0.9, 1e-6);
  // Percentiles resolve to a histogram bin's upper edge (1% bins).
  EXPECT_NEAR(g.percentile(50), 0.81, 1e-6);
  EXPECT_NEAR(g.percentile(100), 0.9, 1e-6);
}

TEST(GapStat, EmptyIsAllZero) {
  const GapStat g;
  EXPECT_EQ(g.count(), 0);
  EXPECT_EQ(g.mean(), 0.0);
  EXPECT_EQ(g.max(), 0.0);
  EXPECT_EQ(g.percentile(50), 0.0);
}

TEST(GapStat, MergeIsOrderIndependent) {
  GapStat a, b, c;
  a.add(10, 100);
  a.add(95, 100);
  b.add(150, 100);  // ratio above 1 (an unsound observation)
  c.add(100, 100);

  GapStat ab = a;
  ab.merge(b);
  ab.merge(c);
  GapStat cb = c;
  cb.merge(b);
  cb.merge(a);
  EXPECT_EQ(ab.count(), cb.count());
  EXPECT_DOUBLE_EQ(ab.mean(), cb.mean());
  EXPECT_DOUBLE_EQ(ab.max(), cb.max());
  for (double p : {10.0, 50.0, 90.0, 99.0})
    EXPECT_DOUBLE_EQ(ab.percentile(p), cb.percentile(p));
  EXPECT_NEAR(ab.max(), 1.5, 1e-6);
}

TEST(GapStat, PathologicalRatiosAreClampedNotOverflowed) {
  GapStat g;
  g.add(kTimeInfinity / 2, 1);  // astronomically above any bound
  g.add(kTimeInfinity / 2, 1);
  EXPECT_EQ(g.count(), 2);
  EXPECT_NEAR(g.max(), 1000.0, 1e-6);  // the 1e9-ppm clamp
  EXPECT_GT(g.mean(), 999.0);
}

// ---------- protocol mapping ----------------------------------------------

TEST(Validate, ProtocolMapping) {
  EXPECT_EQ(sim_protocol_for(AnalysisKind::kDpcpPEp), SimProtocol::kDpcpP);
  EXPECT_EQ(sim_protocol_for(AnalysisKind::kDpcpPEn), SimProtocol::kDpcpP);
  EXPECT_EQ(sim_protocol_for(AnalysisKind::kSpinSon),
            SimProtocol::kSpinFifo);
  // No faithful runtime counterpart: never hard-failed by the cross-check.
  EXPECT_FALSE(sim_protocol_for(AnalysisKind::kLpp).has_value());
  EXPECT_FALSE(sim_protocol_for(AnalysisKind::kFedFp).has_value());
}

// ---------- baseline partition --------------------------------------------

TEST(Validate, BaselinePartitionClustersAndPlacesEverything) {
  Rng rng(91);
  GenParams params;
  params.scenario.m = 16;
  params.scenario.p_r = 0.75;
  params.total_utilization = 5.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  const auto part = baseline_partition(*ts, 16);
  ASSERT_TRUE(part.has_value());
  for (int i = 0; i < ts->size(); ++i)
    EXPECT_GE(part->cluster_size(i), 1) << "task " << i << " has no cluster";
  for (ResourceId q = 0; q < ts->num_resources(); ++q) {
    if (ts->is_global(q)) {
      EXPECT_NE(part->processor_of_resource(q), Partition::kUnassigned)
          << "global resource " << q << " unplaced";
    }
  }
}

TEST(Validate, BaselinePartitionRejectsOversizedSets) {
  Rng rng(92);
  GenParams params;
  params.scenario.m = 16;
  params.total_utilization = 12.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  // The same set cannot fit a 2-processor platform.
  EXPECT_FALSE(baseline_partition(*ts, 2).has_value());
}

// ---------- cross-check ----------------------------------------------------

// An unschedulable-by-construction workload: C = 160 > D = 100 squeezed
// onto one processor.  A sound analysis must reject it; the weakened
// oracle below accepts it with an optimistic bound, and the cross-check
// must refute that accept.
struct WeakenedOracleFixture {
  TaskSet ts{0};
  PartitionOutcome claimed;

  WeakenedOracleFixture() {
    DagTask& t = ts.add_task(100, 100);
    for (int i = 0; i < 4; ++i) t.add_vertex(40);
    ts.assign_rm_priorities();
    ts.finalize();
    claimed.schedulable = true;  // the deliberately weakened verdict
    claimed.partition = Partition(1, 1, 0);
    claimed.partition.add_processor_to_task(0, 0);
    claimed.wcrt = {90};  // "bound" below the deadline
  }
};

TEST(Validate, CrossCheckFlagsWeakenedOracleAccept) {
  WeakenedOracleFixture f;
  SimConfig cfg;
  cfg.horizon = 350;
  const CrossCheckResult cc = cross_check_accept(
      f.claimed, simulate(f.ts, f.claimed.partition, cfg));
  EXPECT_TRUE(cc.unsound);
  EXPECT_GT(cc.verdict.deadline_misses, 0);
  EXPECT_EQ(cc.worst_task, 0);
  EXPECT_GE(cc.worst_observed, 160);  // C on one processor
  EXPECT_EQ(cc.worst_bound, 90);
  EXPECT_EQ(cc.verdict.invariant_violations, 0);
}

TEST(Validate, CrossCheckAcceptsSoundClaim) {
  // Same DAG with four processors: all vertices run in parallel, response
  // 40 <= bound 100 -> sound, and the ratio feeds the pessimism gap.
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  for (int i = 0; i < 4; ++i) t.add_vertex(40);
  ts.assign_rm_priorities();
  ts.finalize();
  PartitionOutcome outcome;
  outcome.schedulable = true;
  outcome.partition = Partition(4, 1, 0);
  for (int p = 0; p < 4; ++p) outcome.partition.add_processor_to_task(0, p);
  outcome.wcrt = {100};

  SimConfig cfg;
  cfg.horizon = 350;
  const CrossCheckResult cc =
      cross_check_accept(outcome, simulate(ts, outcome.partition, cfg));
  EXPECT_FALSE(cc.unsound);
  EXPECT_EQ(cc.verdict.deadline_misses, 0);
  EXPECT_TRUE(cc.verdict.drained);
  ASSERT_EQ(cc.ratios.size(), 1u);
  EXPECT_EQ(cc.ratios[0].first, 40);
  EXPECT_EQ(cc.ratios[0].second, 100);
}

// ---------- SimRunTable ----------------------------------------------------

// Two tasks sharing one global resource on five processors: task 0 on
// {0, 1}, task 1 on {2, 3}, the resource on processor 0, processor 4 spare.
struct RunTableFixture {
  TaskSet ts{1};
  Partition part{5, 2, 1};
  SimConfig config;

  RunTableFixture() {
    for (int k = 0; k < 2; ++k) {
      DagTask& t = ts.add_task(100 + 50 * k, 100 + 50 * k);
      t.add_vertex(10, {1});
      t.add_vertex(20);
      t.add_vertex(15, {1});
      t.add_edge(0, 1);
      t.set_cs_length(0, 3);
    }
    ts.assign_rm_priorities();
    ts.finalize();
    for (int p = 0; p < 4; ++p) part.add_processor_to_task(p / 2, p);
    part.assign_resource(0, 0);
    config.horizon = 400;
    config.hard_stop = 4000;
  }
};

TEST(SimRunTable, EqualInputsShareOneSimulation) {
  const RunTableFixture f;
  SimRunTable table(f.ts);
  const SimResult& first = table.run(f.part, f.config);
  // Equal inputs held in other objects are the same run.
  const Partition part = f.part;
  const SimConfig config = f.config;
  const SimResult& again = table.run(part, config);
  EXPECT_EQ(table.simulations(), 1u);
  EXPECT_EQ(&again, &first);

  const SimResult direct = simulate(f.ts, f.part, f.config);
  EXPECT_GT(first.global_requests_completed, 0);
  EXPECT_EQ(first.events_processed, direct.events_processed);
  EXPECT_EQ(first.global_requests_completed, direct.global_requests_completed);
  EXPECT_EQ(first.end_time, direct.end_time);
  ASSERT_EQ(first.task.size(), direct.task.size());
  for (std::size_t i = 0; i < direct.task.size(); ++i) {
    EXPECT_EQ(first.task[i].jobs_completed, direct.task[i].jobs_completed);
    EXPECT_EQ(first.task[i].max_response, direct.task[i].max_response);
  }
}

TEST(SimRunTable, EachDifferenceGivesASecondRun) {
  using Change = std::function<void(Partition&, SimConfig&)>;
  const std::vector<std::pair<std::string, Change>> changes = {
      {"protocol",
       [](Partition&, SimConfig& c) { c.protocol = SimProtocol::kSpinFifo; }},
      {"max_events", [](Partition&, SimConfig& c) { c.max_events += 1; }},
      {"horizon", [](Partition&, SimConfig& c) { c.horizon += 1; }},
      {"hard_stop", [](Partition&, SimConfig& c) { c.hard_stop += 1; }},
      {"release_jitter", [](Partition&, SimConfig& c) { c.release_jitter = 5; }},
      {"execution_scale",
       [](Partition&, SimConfig& c) { c.execution_scale = 0.75; }},
      {"seed", [](Partition&, SimConfig& c) { c.seed += 1; }},
      {"max_trace_entries",
       [](Partition&, SimConfig& c) { c.max_trace_entries = 1000; }},
      {"processor count",
       [](Partition& p, SimConfig&) {
         Partition wider(6, 2, 1);
         for (int i = 0; i < 2; ++i) wider.set_cluster(i, p.cluster(i));
         wider.assign_resource(0, p.processor_of_resource(0));
         p = wider;
       }},
      {"one processor of one cluster",
       [](Partition& p, SimConfig&) { p.set_cluster(1, {2, 4}); }},
      {"cluster order",
       [](Partition& p, SimConfig&) { p.set_cluster(1, {3, 2}); }},
      {"one resource's placement",
       [](Partition& p, SimConfig&) { p.assign_resource(0, 2); }},
  };
  const RunTableFixture f;
  for (const auto& [name, change] : changes) {
    SimRunTable table(f.ts);
    const SimResult& base = table.run(f.part, f.config);
    Partition part = f.part;
    SimConfig config = f.config;
    change(part, config);
    const SimResult& other = table.run(part, config);
    EXPECT_EQ(table.simulations(), 2u) << name;
    EXPECT_NE(&other, &base) << name;
    // The changed run is now in the table too, and the first one stays.
    EXPECT_EQ(&table.run(part, config), &other) << name;
    EXPECT_EQ(&table.run(f.part, f.config), &base) << name;
    EXPECT_EQ(table.simulations(), 2u) << name;
  }
}

// A deliberately broken placement strategy: dumps every global resource
// onto processor 0 and claims feasibility regardless of capacity.  The
// partitioner's validity gate must reject the partition *before* a single
// oracle query — the analysis never sees the over-committed placement.
class OverloadEverythingStrategy final : public PlacementStrategy {
 public:
  std::string name() const override { return "overload"; }
  bool place_resources(const TaskSet& ts, Partition& part) const override {
    part.clear_resource_assignment();
    for (ResourceId q : ts.global_resources()) part.assign_resource(q, 0);
    return true;  // a lie whenever processor 0's cluster lacks the slack
  }
};

TEST(Validate, CapacityViolatingStrategyRejectedBeforeAnalysis) {
  // Two heavy tasks (U = 1.5 on 2-processor clusters, slack 0.5 each)
  // sharing a global resource of utilization 1.0: no cluster can host it,
  // and the overload strategy places it anyway.
  TaskSet ts(1);
  for (int k = 0; k < 2; ++k) {
    DagTask& t = ts.add_task(100, 100);
    for (int v = 0; v < 10; ++v) t.add_vertex(5, {1});
    for (int v = 0; v < 100; ++v) t.add_vertex(1);
    t.set_cs_length(0, 5);
  }
  ts.assign_rm_priorities();
  ts.finalize();

  int oracle_calls = 0;
  LambdaOracle oracle(ts, [&](const TaskSet&, const Partition&, int,
                              const std::vector<Time>&) -> std::optional<Time> {
    ++oracle_calls;
    return 1;
  });
  const OverloadEverythingStrategy overload;
  PartitionOptions options;
  options.strategy = &overload;
  const auto out = partition_and_analyze(ts, 4, oracle, options);
  EXPECT_FALSE(out.schedulable);
  EXPECT_NE(out.failure.find("placement strategy 'overload' produced an "
                             "invalid partition"),
            std::string::npos)
      << out.failure;
  EXPECT_NE(out.failure.find("over capacity"), std::string::npos)
      << out.failure;
  EXPECT_EQ(oracle_calls, 0);
  EXPECT_EQ(out.oracle_calls, 0);
}

TEST(Validate, SampleSimConfigWorstModeIsDeterministic) {
  TaskSet ts(0);
  ts.add_task(millis(10), millis(10)).add_vertex(millis(1));
  ts.assign_rm_priorities();
  ts.finalize();
  SimBackendOptions options;
  options.horizon = millis(100);
  Rng rng(1);
  const SimConfig cfg = sample_sim_config(options, ts, rng);
  EXPECT_EQ(cfg.horizon, millis(100));
  EXPECT_EQ(cfg.release_jitter, 0);
  EXPECT_DOUBLE_EQ(cfg.execution_scale, 1.0);
  EXPECT_GE(cfg.hard_stop, millis(1000));
}

TEST(Validate, SampleSimConfigRandomModeDrawsLegalBehaviour) {
  TaskSet ts(0);
  ts.add_task(millis(10), millis(10)).add_vertex(millis(1));
  ts.add_task(millis(40), millis(40)).add_vertex(millis(1));
  ts.assign_rm_priorities();
  ts.finalize();
  SimBackendOptions options;
  options.mode = SimSweepMode::kRandom;
  Rng rng1(7), rng2(7);
  const SimConfig a = sample_sim_config(options, ts, rng1);
  const SimConfig b = sample_sim_config(options, ts, rng2);
  // Jitter is bounded by the shortest period / 8; scale stays in [0.5, 1).
  EXPECT_EQ(a.release_jitter, millis(10) / 8);
  EXPECT_GE(a.execution_scale, 0.5);
  EXPECT_LT(a.execution_scale, 1.0);
  // Identical sub-streams yield identical configs (thread independence).
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_DOUBLE_EQ(a.execution_scale, b.execution_scale);
}

// ---------- engine integration --------------------------------------------

std::vector<Scenario> tiny_scenarios() {
  Scenario a;
  a.m = 8;
  a.nr_min = 2;
  a.nr_max = 4;
  Scenario b = a;
  b.p_r = 1.0;
  return {a, b};
}

SweepOptions tiny_sim_options(int threads, SimSweepMode mode) {
  SweepOptions options;
  options.samples_per_point = 4;
  options.seed = 20250729;
  options.threads = threads;
  options.norm_utilizations = {0.3, 0.5};
  options.sim.enabled = true;
  options.sim.validate = true;
  options.sim.horizon = millis(50);
  options.sim.mode = mode;
  return options;
}

const std::vector<AnalysisKind> kKinds{AnalysisKind::kDpcpPEp,
                                       AnalysisKind::kFedFp};

TEST(ValidateEngine, SimColumnAppendedAndFilled) {
  const SweepResult result =
      run_sweep(tiny_scenarios(), kKinds, tiny_sim_options(4,
                                                     SimSweepMode::kWorst));
  ASSERT_TRUE(result.sim_enabled);
  ASSERT_TRUE(result.validated);
  ASSERT_EQ(result.sim_stats.size(), 2u);
  for (const AcceptanceCurve& curve : result.curves) {
    ASSERT_EQ(curve.names.size(), kKinds.size() + 1);
    EXPECT_EQ(curve.names.back(), kSimColumnName);
    const auto sim_col = curve.column(kSimColumnName);
    ASSERT_TRUE(sim_col.has_value());
    EXPECT_EQ(*sim_col, kKinds.size());
    EXPECT_FALSE(curve.column("no-such-analysis").has_value());
  }
  // Something got simulated, and observed responses were recorded.
  std::int64_t simulated = 0;
  Time max_resp = 0;
  for (const auto& per_point : result.sim_stats)
    for (const SimPointStats& sp : per_point) {
      simulated += sp.simulated + sp.unpartitionable;
      max_resp = std::max(max_resp, sp.max_response);
    }
  EXPECT_GT(simulated, 0);
  EXPECT_GT(max_resp, 0);
}

TEST(ValidateEngine, RealAnalysesAreSoundOnTheTinyGrid) {
  const SweepResult result =
      run_sweep(tiny_scenarios(), kKinds, tiny_sim_options(4,
                                                     SimSweepMode::kWorst));
  EXPECT_TRUE(result.validation.sound());
  ASSERT_EQ(result.validation.analyses.size(), kKinds.size());
  const AnalysisValidation& ep = result.validation.analyses[0];
  EXPECT_TRUE(ep.comparable);
  EXPECT_EQ(ep.unsound_accepts, 0);
  EXPECT_EQ(ep.invariant_violations, 0);
  EXPECT_GT(ep.accepts_checked, 0);
  EXPECT_GT(ep.gap.count(), 0);
  EXPECT_LE(ep.gap.max(), 1.0);  // observed never above the bound
  // FED-FP has no runtime counterpart: present but never checked.
  EXPECT_FALSE(result.validation.analyses[1].comparable);
  EXPECT_EQ(result.validation.analyses[1].accepts_checked, 0);
  // The report renders and flags soundness.
  const std::string text = result.validation.to_text();
  EXPECT_NE(text.find("DPCP-p-EP"), std::string::npos);
  EXPECT_EQ(text.find("UNSOUND"), std::string::npos);
}

TEST(ValidateEngine, BitIdenticalAtOneAndEightThreads) {
  for (const SimSweepMode mode :
       {SimSweepMode::kWorst, SimSweepMode::kRandom}) {
    const SweepResult one =
        run_sweep(tiny_scenarios(), kKinds, tiny_sim_options(1, mode));
    const SweepResult eight =
        run_sweep(tiny_scenarios(), kKinds, tiny_sim_options(8, mode));
    ASSERT_EQ(one.curves.size(), eight.curves.size());
    for (std::size_t s = 0; s < one.curves.size(); ++s) {
      EXPECT_EQ(one.curves[s].accepted, eight.curves[s].accepted);
      EXPECT_EQ(one.curves[s].samples, eight.curves[s].samples);
    }
    EXPECT_EQ(one.validation.failures.size(),
              eight.validation.failures.size());
    // The emitted artifacts -- including sim observations, gap columns and
    // the validation JSON -- must be byte-identical.
    EXPECT_EQ(sweep_to_csv(one), sweep_to_csv(eight));
    EXPECT_EQ(sweep_to_json(one), sweep_to_json(eight));
  }
}

TEST(ValidateEngine, SimWithoutValidateSkipsCrossChecks) {
  SweepOptions options = tiny_sim_options(4, SimSweepMode::kWorst);
  options.sim.validate = false;
  const SweepResult result = run_sweep(tiny_scenarios(), kKinds, options);
  EXPECT_TRUE(result.sim_enabled);
  EXPECT_FALSE(result.validated);
  EXPECT_TRUE(result.validation.analyses.empty());
  EXPECT_TRUE(result.validation_points.empty());
  // The sim column is still there.
  EXPECT_EQ(result.curves[0].names.back(), kSimColumnName);
}

// ---------- report edge cases ---------------------------------------------

TEST(ValidateReport, ZeroSamplePointsEmitCleanZeros) {
  // A point where every sample failed generation: samples == 0 must render
  // as ratio 0, never NaN, through ratio(), CSV and JSON alike.
  SweepResult result;
  result.sim_enabled = true;
  result.validated = true;
  result.curves.resize(1);
  AcceptanceCurve& curve = result.curves[0];
  curve.names = {"A", kSimColumnName};
  curve.utilization = {1.0};
  curve.samples = {0};
  curve.accepted = {{0}, {0}};
  result.sim_stats = {{SimPointStats{}}};
  result.validation.analyses.resize(1);
  result.validation.analyses[0].name = "A";
  result.validation.analyses[0].comparable = true;
  result.validation_points = {{{ValidationPointStats{}}}};

  EXPECT_EQ(curve.ratio(0, 0), 0.0);
  const std::string csv = sweep_to_csv(result);
  const std::string json = sweep_to_json(result);
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(csv.find("val_gap_mean"), std::string::npos);
  EXPECT_NE(json.find("\"validation\""), std::string::npos);
  // Empty gap stats render as zeros.
  EXPECT_DOUBLE_EQ(result.validation_points[0][0][0].gap_mean(), 0.0);
  EXPECT_DOUBLE_EQ(result.validation_points[0][0][0].gap_max(), 0.0);
}

TEST(ValidateReport, UnsoundFailuresSurfaceEverywhere) {
  ValidationReport report;
  report.analyses.resize(1);
  report.analyses[0].name = "weak";
  report.analyses[0].comparable = true;
  report.analyses[0].accepts_checked = 1;
  report.analyses[0].unsound_accepts = 1;
  UnsoundAccept u;
  u.scenario = 0;
  u.point = 3;
  u.sample = 7;
  u.analysis = "weak";
  u.deadline_misses = 2;
  u.worst_task = 1;
  u.observed = millis(4);
  u.bound = millis(2);
  report.failures.push_back(u);

  EXPECT_FALSE(report.sound());
  EXPECT_NE(report.to_text().find("UNSOUND"), std::string::npos);

  SweepResult result;
  result.sim_enabled = true;
  result.validated = true;
  result.curves.resize(1);
  result.curves[0].names = {"weak", kSimColumnName};
  result.curves[0].utilization = {1.0};
  result.curves[0].samples = {1};
  result.curves[0].accepted = {{1}, {0}};
  result.sim_stats = {{SimPointStats{}}};
  result.validation = report;
  result.validation_points = {{{ValidationPointStats{}}}};
  const std::string json = sweep_to_json(result);
  EXPECT_NE(json.find("\"unsound\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_misses\": 2"), std::string::npos);
}

}  // namespace
}  // namespace dpcp
