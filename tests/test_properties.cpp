// Cross-module property and failure-injection tests: consistency between
// independent implementations (path counting vs signature enumeration),
// determinism of the simulator, divergence handling, and the behaviour of
// every component at its documented failure boundaries.
#include <gtest/gtest.h>

#include "analysis/dpcp_p.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/randfixedsum.hpp"
#include "gen/taskset_gen.hpp"
#include "model/paths.hpp"
#include "partition/federated.hpp"
#include "sim/simulator.hpp"

namespace dpcp {
namespace {

// ---------- independent implementations agree -----------------------------------

class PathCountConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCountConsistencyTest, DfsVisitsExactlyTheDpCount) {
  // Dag::count_complete_paths (DP over the graph) and the signature
  // enumerator's DFS (paths_visited) are independent implementations;
  // they must agree on every generated structure.
  Rng rng(3000 + GetParam());
  const int nv = static_cast<int>(rng.uniform_int(10, 60));
  const Dag dag = erdos_renyi_dag(rng, nv, 0.1);

  DagTask t(0, 1'000'000, 1'000'000, 1);
  for (int x = 0; x < nv; ++x) t.add_vertex(1, {x % 3 == 0 ? 1 : 0});
  t.graph() = dag;
  t.set_cs_length(0, 1);
  t.finalize();

  const std::int64_t dp = t.graph().count_complete_paths();
  const auto r = enumerate_path_signatures(t, INT64_MAX / 4);
  ASSERT_FALSE(r.truncated);
  EXPECT_EQ(r.paths_visited, dp);
  EXPECT_LE(static_cast<std::int64_t>(r.size()), dp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathCountConsistencyTest,
                         ::testing::Range(0, 10));

// ---------- simulator determinism -------------------------------------------------

TEST(SimDeterminism, IdenticalSeedsIdenticalResults) {
  Rng rng(88);
  GenParams params;
  params.total_utilization = 5.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  const auto part = baseline_partition(*ts, 16);
  ASSERT_TRUE(part.has_value());

  SimConfig cfg;
  cfg.horizon = millis(150);
  cfg.release_jitter = millis(1);
  cfg.seed = 42;
  const SimResult a = simulate(*ts, *part, cfg);
  const SimResult b = simulate(*ts, *part, cfg);
  ASSERT_EQ(a.task.size(), b.task.size());
  for (std::size_t i = 0; i < a.task.size(); ++i) {
    EXPECT_EQ(a.task[i].max_response, b.task[i].max_response);
    EXPECT_EQ(a.task[i].jobs_completed, b.task[i].jobs_completed);
  }
  EXPECT_EQ(a.global_requests_completed, b.global_requests_completed);
  EXPECT_EQ(a.preemptions, b.preemptions);

  cfg.seed = 43;  // different jitter stream must change something
  const SimResult c = simulate(*ts, *part, cfg);
  EXPECT_TRUE(a.end_time != c.end_time ||
              a.global_requests_completed != c.global_requests_completed ||
              a.preemptions != c.preemptions);
}

// ---------- failure boundaries -----------------------------------------------------

TEST(FailureInjection, SimulatorHardStopAbortsCleanly) {
  TaskSet ts(0);
  DagTask& t = ts.add_task(10, 10);
  t.add_vertex(5);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(1, 1, 0);
  part.add_processor_to_task(0, 0);
  SimConfig cfg;
  cfg.horizon = millis(1);  // many releases...
  cfg.hard_stop = 100;      // ...but the clock is cut at t=100
  const SimResult res = simulate(ts, part, cfg);
  EXPECT_FALSE(res.drained);
  EXPECT_LE(res.end_time, 100);
}

TEST(FailureInjection, TestRejectsWhenWfdInfeasible) {
  // Two heavy tasks whose clusters have slack 0.5 each (m_i = 2, U = 1.5)
  // sharing a global resource of utilization 1.0: Algorithm 2 cannot place
  // it anywhere and Algorithm 1 must reject at the placement step.
  TaskSet ts(1);
  for (int k = 0; k < 2; ++k) {
    DagTask& t = ts.add_task(100, 100);
    for (int v = 0; v < 10; ++v) t.add_vertex(5, {1});  // 10 x (N=1, L=5)
    for (int v = 0; v < 100; ++v) t.add_vertex(1);
    t.set_cs_length(0, 5);  // per task 10*5/100 = 0.5 -> u_phi = 1.0
  }
  ts.assign_rm_priorities();
  ts.finalize();
  ASSERT_EQ(min_federated_processors(ts.task(0)), 2);  // slack 2 - 1.5
  const auto outcome = make_analysis(AnalysisKind::kDpcpPEp)->test(ts, 4);
  EXPECT_FALSE(outcome.schedulable);
  EXPECT_NE(outcome.failure.find("resource placement"), std::string::npos)
      << outcome.failure;
}

TEST(FailureInjection, RandFixedSumFallbackUnderTinyBudget) {
  Rng rng(7);
  RandFixedSumStats stats;
  // max_attempts = 1 with mid-range sum: likely to hit the fallback, which
  // must still return a feasible vector.
  for (int rep = 0; rep < 50; ++rep) {
    const auto v =
        rand_fixed_sum(rng, 16, 32.0, 1.0, 4.0, &stats, /*max_attempts=*/1);
    double total = 0;
    for (double x : v) {
      EXPECT_GE(x, 1.0 - 1e-9);
      EXPECT_LE(x, 4.0 + 1e-9);
      total += x;
    }
    EXPECT_NEAR(total, 32.0, 1e-6);
  }
  EXPECT_GT(stats.fallbacks, 0);
}

TEST(FailureInjection, GeneratorSurvivesExtremeDemandScenario) {
  // Tiny periods + maximal resource demand force the usage clamp.
  Scenario sc;
  sc.nr_min = 16;
  sc.nr_max = 16;
  sc.p_r = 1.0;
  sc.n_req_max = 50;
  sc.cs_min = micros(100);
  sc.cs_max = micros(100);
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 4.0;
  params.period_min = millis(10);
  params.period_max = millis(12);  // C ~ 10-48 ms vs demand up to 80 ms
  GenStats stats;
  Rng rng(17);
  for (int rep = 0; rep < 10; ++rep) {
    const auto ts = generate_taskset(rng, params, &stats);
    ASSERT_TRUE(ts.has_value());
    EXPECT_FALSE(ts->validate().has_value());
  }
  EXPECT_GT(stats.usage_downscales, 0);  // the clamp actually fired
}

TEST(FailureInjection, DivergentRecurrenceReportsNotSchedulable) {
  // A deadline below L* can never converge; wcrt must return nullopt
  // rather than loop.
  TaskSet ts(1);
  DagTask& a = ts.add_task(100, 100);
  a.add_vertex(90, {1});
  a.set_cs_length(0, 30);
  DagTask& b = ts.add_task(101, 101);
  b.add_vertex(90, {1});
  b.set_cs_length(0, 30);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 2, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 1);
  part.assign_resource(0, 0);
  DpcpPAnalysis ep(DpcpPAnalysis::PathMode::kEnumerate);
  // Windows inflated by enormous response hints -> bound blows past D.
  const auto r = ep.wcrt(ts, part, 1, {kTimeInfinity / 8, 101});
  EXPECT_FALSE(r.has_value());
}

// ---------- scheduling-theory sanity ------------------------------------------------

TEST(Sanity, MoreProcessorsNeverHurtFederatedBound) {
  Rng rng(55);
  GenParams params;
  params.total_utilization = 6.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  for (int i = 0; i < ts->size(); ++i) {
    Time prev = kTimeInfinity;
    for (int m = min_federated_processors(ts->task(i)); m <= 16; ++m) {
      const Time bound = federated_wcrt_bound(ts->task(i), m);
      EXPECT_LE(bound, prev);
      prev = bound;
    }
    EXPECT_GE(prev, ts->task(i).longest_path_length());
  }
}

TEST(Sanity, AcceptanceMonotoneInProcessorCountForFedFp) {
  // The same task set admitted on m processors must be admitted on m+k.
  auto fed = make_analysis(AnalysisKind::kFedFp);
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(600 + seed);
    GenParams params;
    params.total_utilization = 6.0;
    const auto ts = generate_taskset(rng, params);
    ASSERT_TRUE(ts.has_value());
    bool prev = false;
    for (int m = 8; m <= 32; m += 8) {
      const bool now = fed->test(*ts, m).schedulable;
      if (prev) {
        EXPECT_TRUE(now) << "seed " << seed << " m " << m;
      }
      prev = now;
    }
  }
}

}  // namespace
}  // namespace dpcp
