// Tests for the task-set synthesis layer: RandFixedSum distribution
// properties, Erdos-Renyi DAG structure, the 216-scenario space and the
// full generator's structural invariants (paper Sec. VII-A).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "exp/engine.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/randfixedsum.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "io/taskset_io.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"

namespace dpcp {
namespace {

// ---------- rand_fixed_sum --------------------------------------------------

// n is 8 bytes wide so the struct has no padding: gtest names each case by
// the raw bytes of its parameter, and indeterminate padding bytes would make
// the discovered ctest names differ from build to build.
struct RfsCase {
  std::int64_t n;
  double sum, lo, hi;
};

class RandFixedSumTest : public ::testing::TestWithParam<RfsCase> {};

TEST_P(RandFixedSumTest, SumAndBoundsHold) {
  const RfsCase c = GetParam();
  Rng rng(17);
  RandFixedSumStats stats;
  for (int rep = 0; rep < 200; ++rep) {
    const auto v =
        rand_fixed_sum(rng, static_cast<int>(c.n), c.sum, c.lo, c.hi, &stats);
    ASSERT_EQ(static_cast<std::int64_t>(v.size()), c.n);
    double total = 0;
    for (double x : v) {
      ASSERT_GE(x, c.lo - 1e-9);
      ASSERT_LE(x, c.hi + 1e-9);
      total += x;
    }
    ASSERT_NEAR(total, c.sum, 1e-6 * std::max(1.0, std::abs(c.sum)));
  }
  EXPECT_EQ(stats.fallbacks, 0) << "rejection sampling should not stall";
}

INSTANTIATE_TEST_SUITE_P(
    PaperParameterSpace, RandFixedSumTest,
    ::testing::Values(
        RfsCase{1, 1.0, 1.0, 3.0},        // grid start: single task
        RfsCase{2, 3.0, 1.0, 3.0},        // U_avg=1.5, low end
        RfsCase{11, 16.0, 1.0, 3.0},      // m=16 full load
        RfsCase{21, 32.0, 1.0, 3.0},      // m=32 full load (worst rejection)
        RfsCase{16, 32.0, 1.0, 4.0},      // U_avg=2, m=32 full
        RfsCase{4, 6.2, 1.0, 4.0},        // mid-range
        RfsCase{5, 5.0, 1.0, 3.0},        // sum at the lower corner n*lo
        RfsCase{5, 15.0, 1.0, 3.0}));     // sum at the upper corner n*hi

TEST(RandFixedSum, MarginalMeanMatchesUniformSimplex) {
  // With sum fixed, each coordinate's mean must be sum/n.
  Rng rng(23);
  RunningStat first;
  for (int rep = 0; rep < 4000; ++rep)
    first.add(rand_fixed_sum(rng, 6, 10.0, 1.0, 3.0)[0]);
  EXPECT_NEAR(first.mean(), 10.0 / 6.0, 0.02);
}

TEST(RandFixedSum, ExchangeableCoordinates) {
  // Coordinates are identically distributed: compare two marginal means.
  Rng rng(29);
  RunningStat a, b;
  for (int rep = 0; rep < 4000; ++rep) {
    const auto v = rand_fixed_sum(rng, 5, 9.0, 1.0, 3.0);
    a.add(v[0]);
    b.add(v[4]);
  }
  EXPECT_NEAR(a.mean(), b.mean(), 0.04);
}

TEST(RandFixedSum, DegenerateWidth) {
  Rng rng(1);
  const auto v = rand_fixed_sum(rng, 4, 8.0, 2.0, 2.0);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 2.0);
}

TEST(ChooseTaskCount, MatchesUavgAndFeasibility) {
  EXPECT_EQ(choose_task_count(1.0, 1.5), 1);
  EXPECT_EQ(choose_task_count(6.0, 1.5), 4);
  EXPECT_EQ(choose_task_count(6.0, 2.0), 3);
  // Feasibility: n < U (each task util > 1) and U <= 2*Uavg*n.
  for (double u = 1.0; u <= 32.0; u += 0.7) {
    for (double uavg : {1.5, 2.0}) {
      const int n = choose_task_count(u, uavg);
      EXPECT_GE(n, 1);
      EXPECT_LE(n * 1.0, u + 1e-9) << "u=" << u;
      EXPECT_GE(n * 2 * uavg, u - 1e-9) << "u=" << u;
    }
  }
}

// ---------- erdos_renyi -----------------------------------------------------

TEST(ErdosRenyi, AcyclicWithForwardEdgesOnly) {
  Rng rng(5);
  for (int rep = 0; rep < 20; ++rep) {
    const Dag d = erdos_renyi_dag(rng, 50, 0.1);
    EXPECT_TRUE(d.is_acyclic());
    for (VertexId v = 0; v < d.size(); ++v)
      for (VertexId w : d.successors(v)) EXPECT_GT(w, v);
  }
}

TEST(ErdosRenyi, EdgeDensityMatchesProbability) {
  Rng rng(6);
  const int n = 60;
  std::int64_t edges = 0;
  const int reps = 50;
  for (int rep = 0; rep < reps; ++rep) {
    const Dag d = erdos_renyi_dag(rng, n, 0.1);
    for (VertexId v = 0; v < d.size(); ++v)
      edges += static_cast<std::int64_t>(d.successors(v).size());
  }
  const double possible = n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(edges) / (reps * possible), 0.1, 0.01);
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  Rng rng(7);
  const Dag empty = erdos_renyi_dag(rng, 20, 0.0);
  for (VertexId v = 0; v < empty.size(); ++v)
    EXPECT_TRUE(empty.successors(v).empty());
  const Dag full = erdos_renyi_dag(rng, 20, 1.0);
  std::int64_t edges = 0;
  for (VertexId v = 0; v < full.size(); ++v)
    edges += static_cast<std::int64_t>(full.successors(v).size());
  EXPECT_EQ(edges, 20 * 19 / 2);
}

// ---------- scenarios -------------------------------------------------------

TEST(Scenario, SpaceHas216Combinations) {
  const auto all = all_scenarios();
  ASSERT_EQ(all.size(), 216u);
  // All distinct names.
  std::set<std::string> names;
  for (const auto& s : all) names.insert(s.name());
  EXPECT_EQ(names.size(), 216u);
}

TEST(Scenario, Fig2Scenarios) {
  const Scenario a = fig2_scenario('a');
  EXPECT_EQ(a.m, 16);
  EXPECT_DOUBLE_EQ(a.u_avg, 1.5);
  EXPECT_DOUBLE_EQ(a.p_r, 0.5);
  const Scenario d = fig2_scenario('d');
  EXPECT_EQ(d.m, 32);
  EXPECT_EQ(d.nr_min, 8);
  EXPECT_EQ(d.nr_max, 16);
  EXPECT_DOUBLE_EQ(d.u_avg, 2.0);
  EXPECT_DOUBLE_EQ(d.p_r, 1.0);
}

TEST(Scenario, UtilizationGridMatchesPaper) {
  Scenario s;
  s.m = 16;
  const auto grid = utilization_grid(s);
  ASSERT_GE(grid.size(), 2u);
  EXPECT_DOUBLE_EQ(grid.front(), 1.0);
  EXPECT_DOUBLE_EQ(grid.back(), 16.0);
  // Steps of 0.05*m = 0.8 between interior points.
  for (std::size_t i = 1; i + 1 < grid.size(); ++i)
    EXPECT_NEAR(grid[i] - grid[i - 1], 0.8, 1e-12);
}

// ---------- taskset generation ---------------------------------------------

class TasksetGenTest : public ::testing::TestWithParam<int> {};

TEST_P(TasksetGenTest, GeneratedSetsSatisfyAllPaperInvariants) {
  const auto scenarios = all_scenarios();
  const Scenario& sc = scenarios[static_cast<std::size_t>(GetParam())];
  Rng rng(1000 + GetParam());
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 0.4 * sc.m;  // mid-range load
  GenStats stats;

  for (int rep = 0; rep < 5; ++rep) {
    const auto ts = generate_taskset(rng, params, &stats);
    ASSERT_TRUE(ts.has_value());
    EXPECT_FALSE(ts->validate().has_value()) << *ts->validate();
    EXPECT_GE(ts->num_resources(), sc.nr_min);
    EXPECT_LE(ts->num_resources(), sc.nr_max);
    EXPECT_NEAR(ts->total_utilization(), params.total_utilization, 1e-3);

    for (int i = 0; i < ts->size(); ++i) {
      const DagTask& t = ts->task(i);
      // Paper plausibility constraints.
      EXPECT_LT(t.longest_path_length(), t.deadline() / 2);
      for (VertexId x = 0; x < t.vertex_count(); ++x)
        EXPECT_GE(t.vertex_noncrit_wcet(x), 0);
      // Structural parameters within configured ranges.
      EXPECT_GE(t.vertex_count(), params.vertices_min);
      EXPECT_LE(t.vertex_count(), params.vertices_max);
      EXPECT_GE(t.period(), params.period_min);
      EXPECT_LE(t.period(), params.period_max);
      EXPECT_EQ(t.deadline(), t.period());
      for (ResourceId q : t.used_resources()) {
        EXPECT_GE(t.usage(q).cs_length, sc.cs_min);
        EXPECT_LE(t.usage(q).cs_length, sc.cs_max);
        EXPECT_LE(t.usage(q).max_requests, sc.n_req_max);
      }
    }
  }
  EXPECT_EQ(stats.failures, 0);
}

// A representative sample of the 216 scenarios (every 23rd + extremes).
INSTANTIATE_TEST_SUITE_P(ScenarioSample, TasksetGenTest,
                         ::testing::Values(0, 23, 46, 69, 92, 115, 138, 161,
                                           184, 207, 215));

TEST(TasksetGen, TaskUtilizationsRespectRandFixedSumBounds) {
  Scenario sc;  // defaults: Uavg=1.5 -> utils in (1, 3]
  Rng rng(77);
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 6.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  EXPECT_EQ(ts->size(), choose_task_count(6.0, 1.5));
  for (int i = 0; i < ts->size(); ++i) {
    EXPECT_GE(ts->task(i).utilization(), 1.0 - 1e-6);
    EXPECT_LE(ts->task(i).utilization(), 3.0 + 1e-6);
  }
}

TEST(TasksetGen, UniquePriorities) {
  Rng rng(78);
  GenParams params;
  params.total_utilization = 8.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  std::set<int> prios;
  for (int i = 0; i < ts->size(); ++i) prios.insert(ts->task(i).priority());
  EXPECT_EQ(static_cast<int>(prios.size()), ts->size());
}

TEST(TasksetGen, DeterministicForEqualSeeds) {
  GenParams params;
  params.total_utilization = 5.0;
  Rng r1(55), r2(55);
  const auto a = generate_taskset(r1, params);
  const auto b = generate_taskset(r2, params);
  ASSERT_TRUE(a && b);
  ASSERT_EQ(a->size(), b->size());
  for (int i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->task(i).period(), b->task(i).period());
    EXPECT_EQ(a->task(i).wcet(), b->task(i).wcet());
    EXPECT_EQ(a->task(i).vertex_count(), b->task(i).vertex_count());
  }
}

TEST(TasksetGen, HeavyContentionStillGenerates) {
  // pr=1 with many resources and long sections stresses the demand clamp.
  Scenario sc;
  sc.nr_min = 8;
  sc.nr_max = 16;
  sc.p_r = 1.0;
  sc.n_req_max = 50;
  sc.cs_min = micros(50);
  sc.cs_max = micros(100);
  Rng rng(99);
  GenParams params;
  params.scenario = sc;
  params.total_utilization = 10.0;
  GenStats stats;
  for (int rep = 0; rep < 10; ++rep) {
    const auto ts = generate_taskset(rng, params, &stats);
    ASSERT_TRUE(ts.has_value());
    EXPECT_FALSE(ts->validate().has_value());
  }
}

bool has_edgeless_task(const TaskSet& ts, int min_vertices) {
  for (const DagTask& t : ts.tasks()) {
    if (t.vertex_count() < min_vertices) continue;
    bool edgeless = true;
    for (VertexId v = 0; v < t.vertex_count() && edgeless; ++v)
      edgeless = t.graph().successors(v).empty();
    if (edgeless) return true;
  }
  return false;
}

// Behaviour pin of the generator's draw order: the text of every generated
// task set and every GenStats counter after it, folded into one FNV-1a
// value.  The grid is all 216 scenarios x the first, middle and last
// utilization point x 2 samples seeded as the sweep engine seeds them, plus
// corners on the fig. 2(b)/(d) scenarios that reach the other branches:
// edge_prob 0 and 1, light tasks, and a retry budget of 4 (demand clamp and
// edgeless last-resort DAG).  Any change to the draws or to what is kept
// moves the digest.
TEST(TasksetGen, DigestPinsTasksetsAndStats) {
  Fnv1a digest;
  GenStats stats;
  // Engine seeding: Rng(scenario_seed(seed, s)).fork((point << 20) ^ sample).
  auto draws = [&](std::uint64_t seed, const GenParams& base) {
    std::vector<std::optional<TaskSet>> sets;
    const std::vector<double> grid = utilization_grid(base.scenario);
    for (const std::size_t point :
         {std::size_t{0}, grid.size() / 2, grid.size() - 1})
      for (std::uint64_t sample = 0; sample < 2; ++sample) {
        GenParams params = base;
        params.total_utilization = grid[point];
        Rng rng = Rng(seed).fork((point << 20) ^ sample);
        sets.push_back(generate_taskset(rng, params, &stats));
        digest.add(sets.back() ? taskset_to_text(*sets.back()) : "failed\n");
        digest.add(std::to_string(stats.rfs.attempts) + ' ' +
                   std::to_string(stats.rfs.rejections) + ' ' +
                   std::to_string(stats.rfs.fallbacks) + ' ' +
                   std::to_string(stats.task_retries) + ' ' +
                   std::to_string(stats.usage_downscales) + ' ' +
                   std::to_string(stats.failures) + '\n');
      }
    return sets;
  };

  const std::vector<Scenario> scenarios = all_scenarios();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    GenParams params;
    params.scenario = scenarios[s];
    draws(scenario_seed(42, s), params);
  }
  EXPECT_EQ(stats.failures, 0);

  bool clamped = false, last_resort_kept = false;
  std::uint64_t corner_seed = 4200;
  for (const char fig : {'b', 'd'}) {
    GenParams params;
    params.scenario = fig2_scenario(fig);
    GenParams no_edges = params, all_edges = params, light = params,
              small_budget = params;
    no_edges.edge_prob = 0.0;
    all_edges.edge_prob = 1.0;
    light.light_tasks = 3;
    small_budget.max_task_retries = 4;

    draws(++corner_seed, no_edges);
    // A complete DAG has L* = C > D/2 for every heavy task, so each kept
    // heavy task is the edgeless last-resort structure.
    for (const auto& ts : draws(++corner_seed, all_edges))
      last_resort_kept = last_resort_kept || (ts && has_edgeless_task(*ts, 10));
    draws(++corner_seed, light);
    const std::int64_t before = stats.usage_downscales;
    draws(++corner_seed, small_budget);
    clamped = clamped || stats.usage_downscales > before;
  }
  EXPECT_TRUE(clamped) << "clamp_usage never reached";
  EXPECT_TRUE(last_resort_kept) << "edgeless last-resort DAG never kept";

  EXPECT_EQ(digest.h, 0xf29a5ce8369f837dull) << std::hex << digest.h;
}

}  // namespace
}  // namespace dpcp
