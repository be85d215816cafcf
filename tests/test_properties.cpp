// Cross-module property and failure-injection tests: consistency between
// independent implementations (path counting vs signature enumeration),
// determinism of the simulator, divergence handling, the deadline cap on
// every bound an analysis reports, and the behaviour of every component
// at its documented failure boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/dpcp_p.hpp"
#include "analysis/interface.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/randfixedsum.hpp"
#include "gen/taskset_gen.hpp"
#include "model/paths.hpp"
#include "opt/optimizer.hpp"
#include "partition/federated.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

// ---------- independent implementations agree -----------------------------------

class PathCountConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(PathCountConsistencyTest, DfsVisitsExactlyTheDpCount) {
  // Dag::count_complete_paths (a forward count) and the signature
  // enumerator's class-merging DP (paths_visited, a reverse merge) are
  // independent implementations; they must agree on every generated
  // structure.
  Rng rng(3000 + GetParam());
  const int nv = static_cast<int>(rng.uniform_int(10, 60));
  const Dag dag = erdos_renyi_dag(rng, nv, 0.1);

  DagTask t(0, 1'000'000, 1'000'000, 1);
  for (int x = 0; x < nv; ++x) t.add_vertex(1, {x % 3 == 0 ? 1 : 0});
  for (VertexId v = 0; v < nv; ++v)
    for (VertexId w : dag.successors(v)) t.add_edge(v, w);
  t.set_cs_length(0, 1);
  t.finalize();

  const std::int64_t dp = t.graph().count_complete_paths();
  const auto r = enumerate_path_signatures(t, INT64_MAX / 4);
  ASSERT_FALSE(r.truncated);
  EXPECT_EQ(r.paths_visited, dp);
  EXPECT_LE(static_cast<std::int64_t>(r.size()), dp);
}

/// Every complete path of a graph given as adjacency lists, walked one by
/// one: (request vector over `used` -> max length), and the path count.
struct BruteForcePaths {
  std::map<std::vector<int>, Time> classes;
  std::int64_t paths = 0;
};

void walk(const std::vector<std::vector<VertexId>>& succ,
          const std::vector<Time>& wcet,
          const std::vector<std::vector<int>>& requests,
          const std::vector<ResourceId>& used, VertexId v, Time len,
          std::vector<int>& on_path, BruteForcePaths& out) {
  len += wcet[static_cast<std::size_t>(v)];
  for (std::size_t k = 0; k < used.size(); ++k)
    on_path[k] += requests[static_cast<std::size_t>(v)]
                          [static_cast<std::size_t>(used[k])];
  if (succ[static_cast<std::size_t>(v)].empty()) {
    ++out.paths;
    Time& best = out.classes[on_path];
    best = std::max(best, len);
  }
  for (VertexId w : succ[static_cast<std::size_t>(v)])
    walk(succ, wcet, requests, used, w, len, on_path, out);
  for (std::size_t k = 0; k < used.size(); ++k)
    on_path[k] -= requests[static_cast<std::size_t>(v)]
                          [static_cast<std::size_t>(used[k])];
}

TEST_P(PathCountConsistencyTest, DpMatchesABruteForceWalkAtEveryLaneWidth) {
  // The one enumeration DP packs request vectors into 8-, 16- or 32-bit
  // lanes by the task's largest N_{i,q}, in as many words as the used
  // resources need.  On random small DAGs with shuffled vertex ids, its
  // classes and path count must equal a walk of every complete path, for
  // 3 and 20 used resources at each lane width.
  Rng rng(5000 + GetParam());
  for (const int nr : {3, 20}) {
    for (const int big : {0, 300, 70'000}) {  // 8-, 16-, 32-bit lanes
      const int nv = static_cast<int>(rng.uniform_int(6, 14));
      const Dag shape = erdos_renyi_dag(rng, nv, 0.3);
      std::vector<VertexId> id(static_cast<std::size_t>(nv));
      for (int x = 0; x < nv; ++x) id[static_cast<std::size_t>(x)] = x;
      for (int x = nv - 1; x > 0; --x)
        std::swap(id[static_cast<std::size_t>(x)],
                  id[static_cast<std::size_t>(rng.uniform_int(0, x))]);

      std::vector<Time> wcet(static_cast<std::size_t>(nv));
      std::vector<std::vector<int>> requests(
          static_cast<std::size_t>(nv),
          std::vector<int>(static_cast<std::size_t>(nr), 0));
      for (auto& row : requests)
        for (int& n : row)
          if (rng.bernoulli(0.3)) n = static_cast<int>(rng.uniform_int(1, 3));
      // Every resource is used; one request count sets the lane width.
      for (int q = 0; q < nr; ++q)
        requests[static_cast<std::size_t>(rng.uniform_int(0, nv - 1))]
                [static_cast<std::size_t>(q)] += 1;
      if (big > 0)
        requests[static_cast<std::size_t>(rng.uniform_int(0, nv - 1))]
                [static_cast<std::size_t>(rng.uniform_int(0, nr - 1))] += big;

      DagTask t(0, 1'000'000'000, 1'000'000'000, nr);
      for (std::size_t x = 0; x < wcet.size(); ++x) {
        wcet[x] = rng.uniform_int(1, 50);
        for (int n : requests[x]) wcet[x] += n;
        t.add_vertex(wcet[x], requests[x]);
      }
      std::vector<std::vector<VertexId>> succ(static_cast<std::size_t>(nv));
      for (VertexId v = 0; v < nv; ++v)
        for (VertexId w : shape.successors(v)) {
          const VertexId from = id[static_cast<std::size_t>(v)];
          const VertexId to = id[static_cast<std::size_t>(w)];
          t.add_edge(from, to);
          succ[static_cast<std::size_t>(from)].push_back(to);
        }
      for (ResourceId q = 0; q < nr; ++q) t.set_cs_length(q, 1);
      t.finalize();
      ASSERT_FALSE(t.validate().has_value()) << *t.validate();

      int max_n = 0;
      for (ResourceId q = 0; q < nr; ++q)
        max_n = std::max(max_n, t.usage(q).max_requests);
      EXPECT_EQ(max_n < 256, big == 0);
      EXPECT_EQ(max_n < 65'536, big < 65'536);

      const std::vector<ResourceId> used = t.used_resources();
      ASSERT_EQ(used.size(), static_cast<std::size_t>(nr));
      std::vector<int> in_degree(static_cast<std::size_t>(nv), 0);
      for (const auto& row : succ)
        for (VertexId w : row) ++in_degree[static_cast<std::size_t>(w)];
      BruteForcePaths expect;
      std::vector<int> on_path(used.size(), 0);
      for (VertexId v = 0; v < nv; ++v)
        if (in_degree[static_cast<std::size_t>(v)] == 0)
          walk(succ, wcet, requests, used, v, 0, on_path, expect);

      const auto r = enumerate_path_signatures(t, 1 << 30);
      ASSERT_FALSE(r.truncated);
      EXPECT_EQ(r.resource_index, used);
      EXPECT_EQ(r.paths_visited, expect.paths);
      std::map<std::vector<int>, Time> got;
      for (const auto& sig : r.signatures())
        EXPECT_TRUE(got.emplace(sig.requests, sig.length).second)
            << "a request vector appears in two classes";
      EXPECT_EQ(got, expect.classes) << "nr=" << nr << " big=" << big;
    }
  }
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
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  // Windows inflated by enormous response hints -> bound blows past D.
  const auto r = ep.wcrt(ts, part, 1, {kTimeInfinity / 8, 101});
  EXPECT_FALSE(r.has_value());
}

// ---------- no bound above its deadline --------------------------------------------

/// Forwards every call to a prepared analysis and counts its raw wcrt()
/// answers: found no bound (nullopt), or a bound above the task's deadline.
class DeadlineCapProbe final : public WcrtOracle {
 public:
  DeadlineCapProbe(const TaskSet& ts, WcrtOracle& inner)
      : ts_(ts), inner_(inner) {}

  void bind(const Partition& part) override { inner_.bind(part); }
  bool task_unchanged(int task) const override {
    return inner_.task_unchanged(task);
  }
  std::optional<Time> wcrt(int task, const std::vector<Time>& hint) override {
    const std::optional<Time> r = inner_.wcrt(task, hint);
    ++answers;
    if (!r) ++misses;
    else if (*r > ts_.task(task).deadline()) ++overshoots;
    return r;
  }

  std::int64_t answers = 0, misses = 0, overshoots = 0;

 private:
  const TaskSet& ts_;
  WcrtOracle& inner_;
};

// Every analysis abandons its fixed point above D_i, so a wcrt() answer is
// nullopt or at most D_i.  That is why Algorithm 1 needs no spare-grant
// rule but the first failure: a rule that grants to the largest miss sees
// every miss as unbounded and picks the first failure too.  Probed over
// every Algorithm-1 round (rejecting rounds included) under each placement
// strategy, and every candidate the partition search scores.
TEST(BoundProperty, EveryWcrtAnswerIsNulloptOrWithinTheDeadline) {
  const auto corners = scenario_corners();
  const std::vector<PlacementKind> strategies = all_placement_kinds();
  OptOptions opt;
  opt.max_evals = 20;
  std::int64_t answers = 0, misses = 0, search_evals = 0;
  for (int light : {0, 2}) {
    for (std::size_t c = 0; c < corners.size(); ++c) {
      for (int k = 0; k < 4; ++k) {
        Rng rng(27'000 + 1'000 * static_cast<std::uint64_t>(light) +
                100 * static_cast<std::uint64_t>(c) +
                static_cast<std::uint64_t>(k));
        GenParams params;
        params.scenario = corners[c];
        params.light_tasks = light;
        params.total_utilization = (0.35 + 0.1 * k) * corners[c].m;
        const auto ts = generate_taskset(rng, params);
        if (!ts) continue;
        const int m = corners[c].m;
        AnalysisSession session(*ts);
        for (AnalysisKind kind : all_analysis_kinds()) {
          const auto analysis = make_analysis(kind);
          const auto prepared = analysis->prepare(session);
          DeadlineCapProbe probe(*ts, *prepared);
          const bool places =
              analysis->placement() != ResourcePlacement::kNone;
          for (PlacementKind strategy : strategies) {
            PartitionOptions options;
            options.placement = analysis->placement();
            options.strategy = &placement_strategy(strategy);
            options.priority_order = &session.priority_order();
            partition_and_analyze(*ts, m, probe, options);
            if (!places) break;  // nothing to place: one run covers it
          }
          if (places)
            search_evals += optimize_partition(session, m, probe, strategies,
                                               rng.fork(0x4F5054ull), opt)
                                .stats.evals;
          EXPECT_EQ(probe.overshoots, 0)
              << analysis->name() << " light " << light << " corner " << c
              << " k " << k;
          answers += probe.answers;
          misses += probe.misses;
        }
      }
    }
  }
  // Rejecting rounds and search candidates were both probed.
  EXPECT_GT(misses, 0);
  EXPECT_GT(search_evals, 0);
  EXPECT_GT(answers, misses);
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
