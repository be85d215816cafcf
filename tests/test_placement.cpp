// Tests for the pluggable placement strategies (partition/placement.hpp):
// property-based partition invariants (every strategy, randomized task
// sets across scenario corners, validity + determinism), a digest pin over
// every strategy's placements, Algorithm 1's first-failure spare grant, the
// engine's placement axis (column layout, paired task sets, thread-count
// byte-identity), and the --placement spec parser's error paths.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "partition/partitioner.hpp"
#include "partition/placement.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

// ---------- property: validity and determinism of every strategy ----------

TEST(PlacementProperty, EveryStrategyValidAndDeterministicOn200Sets) {
  const auto corners = scenario_corners();
  const auto kinds = all_placement_kinds();
  int generated = 0, placed = 0;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    for (int seed = 0; seed < 50; ++seed) {
      Rng rng(10'000 + 1'000 * static_cast<std::uint64_t>(c) +
              static_cast<std::uint64_t>(seed));
      GenParams params;
      params.scenario = corners[c];
      // Spread the corners over the utilization range too.
      params.total_utilization = (0.25 + 0.05 * (seed % 8)) * corners[c].m;
      const auto ts = generate_taskset(rng, params);
      ASSERT_TRUE(ts.has_value());
      ++generated;
      const auto initial = initial_federated_partition(*ts, corners[c].m);
      if (!initial) continue;

      for (PlacementKind kind : kinds) {
        const PlacementStrategy& strategy = placement_strategy(kind);
        Partition part = *initial;
        const bool feasible = strategy.place_resources(*ts, part);
        // Determinism: the same (task set, cluster shape) must yield the
        // same placement, bit for bit.
        Partition again = *initial;
        EXPECT_EQ(strategy.place_resources(*ts, again), feasible);
        EXPECT_EQ(part.resource_assignment(), again.resource_assignment())
            << strategy.name();
        if (!feasible) continue;
        ++placed;
        const auto err = part.validate(*ts);
        EXPECT_FALSE(err.has_value())
            << strategy.name() << ": " << *err << "\n"
            << part.to_string();
        for (ResourceId q : ts->global_resources())
          EXPECT_NE(part.processor_of_resource(q), Partition::kUnassigned)
              << strategy.name() << " left global resource " << q
              << " unplaced";
      }
    }
  }
  EXPECT_EQ(generated, 200);
  EXPECT_GT(placed, 100);  // the property must actually be exercised
}

TEST(PlacementProperty, EndToEndPartitionsValidAndDeterministic) {
  // Drive the full Algorithm-1 loop (spare grants, placement rollback,
  // both spare policies) with a partition-sensitive oracle: the federated
  // bound plus a penalty per critical-section demand hosted on the
  // cluster.  Schedulable outcomes must carry valid partitions, and a
  // rerun must reproduce them exactly.
  const auto penalized = [](const TaskSet& ts, const Partition& p, int i,
                            const std::vector<Time>&) -> std::optional<Time> {
    Time bound = federated_wcrt_bound(ts.task(i), p.cluster_size(i));
    const std::vector<ProcessorId>& c = p.cluster(i);
    for (ResourceId q = 0; q < ts.num_resources(); ++q) {
      if (std::find(c.begin(), c.end(), p.processor_of_resource(q)) ==
          c.end())
        continue;
      bound += ts.resource_utilization(q) > 0.0
                   ? ts.task(i).usage(q).demand() / 2 + micros(10)
                   : 0;
    }
    return bound;
  };
  const auto corners = scenario_corners();
  int schedulable = 0;
  for (int seed = 0; seed < 5; ++seed) {
    for (const Scenario& sc : corners) {
      Rng rng(777 + static_cast<std::uint64_t>(seed));
      GenParams params;
      params.scenario = sc;
      params.total_utilization = 0.4 * sc.m;
      const auto ts = generate_taskset(rng, params);
      ASSERT_TRUE(ts.has_value());
      LambdaOracle oracle(*ts, penalized);
      for (PlacementKind kind : all_placement_kinds()) {
        PartitionOptions options;
        options.strategy = &placement_strategy(kind);
        const auto out = partition_and_analyze(*ts, sc.m, oracle, options);
        const auto rerun = partition_and_analyze(*ts, sc.m, oracle, options);
        EXPECT_EQ(out.schedulable, rerun.schedulable);
        EXPECT_EQ(out.partition.to_string(), rerun.partition.to_string());
        EXPECT_EQ(out.wcrt, rerun.wcrt);
        if (!out.schedulable) continue;
        ++schedulable;
        const auto err = out.partition.validate(*ts);
        EXPECT_FALSE(err.has_value())
            << placement_strategy(kind).name() << ": " << *err;
      }
    }
  }
  EXPECT_GT(schedulable, 0);
}

TEST(PlacementProperty, ValidateBoundsResourceLoadOnSharedProcessors) {
  // Two light tasks packed on one processor, a global resource placed
  // there too.  The strategies account resources per unit cluster, so the
  // joint guarantee is aggregate: task + resource load <= co-hosted task
  // count.  A resource pushing past that bound is invalid; one within it
  // is legitimate (Algorithm 2 itself produces such placements in the
  // Sec. VI mixed setting).
  const auto shared_fixture = [](Time cs_length) {
    TaskSet ts(1);
    for (int k = 0; k < 2; ++k) {
      DagTask& t = ts.add_task(100, 100);
      t.add_vertex(45, {1});
      t.set_cs_length(0, cs_length);
    }
    ts.assign_rm_priorities();
    ts.finalize();
    Partition part(2, 2, 1);
    part.add_processor_to_task(0, 0);
    part.add_processor_to_task(1, 0);  // shared unit clusters
    part.assign_resource(0, 0);
    return std::make_pair(std::move(ts), std::move(part));
  };

  // u_task = 0.9 total; resource utilization 2*40/100 = 0.8: 1.7 <= 2.
  auto [ok_ts, ok_part] = shared_fixture(40);
  EXPECT_FALSE(ok_part.validate(ok_ts).has_value());

  // Resource utilization 2*65/100 = 1.3: 0.9 + 1.3 = 2.2 > 2 -> invalid.
  auto [bad_ts, bad_part] = shared_fixture(65);
  const auto err = bad_part.validate(bad_ts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("over capacity"), std::string::npos) << *err;
}

// ---------- golden: every strategy's placements, pinned ----------------------

TEST(PlacementGolden, DigestOverGrownClusterShapes) {
  // One FNV-1a over place_resources()'s verdict and the full resource map
  // of every built-in strategy, on generated Fig. 2 task sets (with and
  // without light tasks) at up to four cluster shapes each: the minimum
  // federated clusters, then one more spare processor granted per shape.
  // Tight shapes make some placements infeasible, so the partial maps of
  // rejected placements are pinned too.
  Fnv1a digest;
  int placements = 0, infeasible = 0;
  for (char fig : {'a', 'b', 'c', 'd'}) {
    const Scenario sc = fig2_scenario(fig);
    for (int light : {0, 3}) {
      for (double nu : {0.3, 0.5, 0.7}) {
        for (int seed = 0; seed < 40; ++seed) {
          Rng rng(60'000 + 1'000 * static_cast<std::uint64_t>(fig - 'a') +
                  100 * static_cast<std::uint64_t>(light) +
                  static_cast<std::uint64_t>(seed));
          GenParams params;
          params.scenario = sc;
          params.total_utilization = nu * sc.m;
          params.light_tasks = light;
          const auto ts = generate_taskset(rng, params);
          if (!ts) continue;
          auto shape = initial_federated_partition(*ts, sc.m);
          if (!shape) continue;
          ProcessorId next_spare = shape->assigned_processors();
          for (int grown = 0; grown < 4; ++grown) {
            if (grown > 0) {
              if (next_spare >= sc.m) break;
              const int i = (seed + grown) % ts->size();
              if (shape->task_shares_processor(i)) {
                shape->set_cluster(i, {next_spare++});
              } else {
                shape->add_processor_to_task(i, next_spare++);
              }
            }
            for (PlacementKind kind :
                 {PlacementKind::kWfd, PlacementKind::kFirstFit,
                  PlacementKind::kBestFit, PlacementKind::kSyncAware}) {
              Partition part = *shape;
              const bool feasible =
                  placement_strategy(kind).place_resources(*ts, part);
              std::string line = placement_kind_token(kind) +
                                 (feasible ? " 1" : " 0");
              for (ProcessorId p : part.resource_assignment())
                line += " " + std::to_string(p);
              digest.add(line + "\n");
              ++placements;
              if (!feasible) ++infeasible;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(placements, 9'520);
  EXPECT_EQ(infeasible, 75);
  // Recorded over these four strategies while a fifth (wfd-maxmiss, WFD's
  // placement under another spare-grant rule) still sat beside them.
  EXPECT_EQ(digest.h, 0x9b0752da0b322491ull)
      << std::hex << "digest 0x" << digest.h;
}

// ---------- the default WFD through the placement axis --------------------

TEST(PlacementDifferential, DefaultSweepUnchangedByExplicitWfdAxis) {
  // Routing the default WFD through the placement axis must not change a
  // single acceptance count — only the column names gain the @wfd suffix.
  Scenario sc;
  sc.m = 8;
  sc.nr_min = 2;
  sc.nr_max = 4;
  SweepOptions options;
  options.samples_per_point = 6;
  options.seed = 99;
  options.norm_utilizations = {0.3, 0.5};
  const SweepResult plain =
      run_sweep({sc}, {AnalysisKind::kDpcpPEp, AnalysisKind::kFedFp}, options);
  options.placements = {PlacementKind::kWfd};
  const SweepResult axis =
      run_sweep({sc}, {AnalysisKind::kDpcpPEp, AnalysisKind::kFedFp}, options);

  EXPECT_FALSE(plain.placement_axis);
  EXPECT_TRUE(axis.placement_axis);
  ASSERT_EQ(axis.curves.size(), 1u);
  EXPECT_EQ(plain.curves[0].accepted, axis.curves[0].accepted);
  EXPECT_EQ(plain.curves[0].samples, axis.curves[0].samples);
  EXPECT_EQ(plain.curves[0].names,
            (std::vector<std::string>{"DPCP-p-EP", "FED-FP"}));
  EXPECT_EQ(axis.curves[0].names,
            (std::vector<std::string>{"DPCP-p-EP@wfd", "FED-FP"}));
  EXPECT_EQ(axis.column_placement, (std::vector<std::string>{"wfd", ""}));
}

// ---------- spare grant ------------------------------------------------------

TEST(SparePolicy, MaxMissGrantsToLargestMissFirstFailureToFirst) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);  // task 0: longer period, lower priority
  add_heavy_task(ts, 10, 15, 4);   // task 1: higher priority
  ts.assign_rm_priorities();
  ts.finalize();

  // Any 2-processor cluster misses its deadline — task 0 by 50, task 1 by
  // 5 — and a 3-processor cluster is schedulable.  The spare goes to the
  // first failure, not to the larger miss.
  std::vector<int> analysed;  // call trace across rounds
  LambdaOracle oracle(ts, [&](const TaskSet& t, const Partition& p, int i,
                              const std::vector<Time>&) -> std::optional<Time> {
    analysed.push_back(i);
    if (p.cluster_size(i) >= 3) return t.task(i).deadline() - 1;
    return t.task(i).deadline() + (i == 0 ? 50 : 5);
  });

  PartitionOptions first_failure;
  first_failure.strategy = &placement_strategy(PlacementKind::kWfd);
  const auto ff = partition_and_analyze(ts, 8, oracle, first_failure);
  EXPECT_TRUE(ff.schedulable);
  // Round 1 stops at the first failure: the high-priority task 1.
  const std::vector<int> ff_trace = analysed;
  ASSERT_GE(ff_trace.size(), 2u);
  EXPECT_EQ(ff_trace[0], 1);
  EXPECT_EQ(ff_trace[1], 1);  // round 2 re-analyses task 1 first
  EXPECT_EQ(ff.partition.cluster_size(0), 3);
  EXPECT_EQ(ff.partition.cluster_size(1), 3);
}

// ---------- engine placement axis ------------------------------------------

TEST(PlacementAxis, ColumnsAndThreadCountByteIdentity) {
  Scenario sc;
  sc.m = 8;
  sc.nr_min = 2;
  sc.nr_max = 4;
  sc.p_r = 1.0;
  SweepOptions options;
  options.samples_per_point = 5;
  options.seed = 7;
  options.norm_utilizations = {0.3, 0.5};
  options.placements = all_placement_kinds();
  const std::vector<AnalysisKind> kinds{AnalysisKind::kDpcpPEp,
                                        AnalysisKind::kFedFp};
  options.threads = 1;
  const SweepResult one = run_sweep({sc}, kinds, options);
  options.threads = 8;
  const SweepResult eight = run_sweep({sc}, kinds, options);

  // Placement-requiring EP fans out; placement-insensitive FED-FP stays
  // one bare column.
  ASSERT_EQ(one.curves[0].names.size(), 5u);
  EXPECT_EQ(one.curves[0].names[0], "DPCP-p-EP@wfd");
  EXPECT_EQ(one.curves[0].names[3], "DPCP-p-EP@sync");
  EXPECT_EQ(one.curves[0].names[4], "FED-FP");
  EXPECT_EQ(one.column_analysis,
            (std::vector<std::string>{"DPCP-p-EP", "DPCP-p-EP", "DPCP-p-EP",
                                      "DPCP-p-EP", "FED-FP"}));
  EXPECT_EQ(one.column_placement,
            (std::vector<std::string>{"wfd", "ffd", "bfd", "sync", ""}));

  // Byte-identical artifacts at any worker-thread count.
  EXPECT_EQ(one.curves[0].accepted, eight.curves[0].accepted);
  EXPECT_EQ(sweep_to_csv(one), sweep_to_csv(eight));
  EXPECT_EQ(sweep_to_json(one), sweep_to_json(eight));

  // The placement-axis CSV carries the placement column; the JSON carries
  // the per-strategy acceptance deltas.
  EXPECT_NE(sweep_to_csv(one).find(",placement,"), std::string::npos);
  EXPECT_NE(sweep_to_json(one).find("\"placement_deltas\""),
            std::string::npos);
}

// ---------- spec parsing -----------------------------------------------------

TEST(PlacementSpec, TokensRoundTrip) {
  for (PlacementKind kind : all_placement_kinds())
    EXPECT_EQ(placement_kind_from_token(placement_kind_token(kind)), kind);
  EXPECT_FALSE(placement_kind_from_token("worst-fit").has_value());
}

TEST(PlacementSpec, ParsesListsAndAll) {
  const auto all = placements_from_spec("all");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(*all, all_placement_kinds());
  const auto pair = placements_from_spec("sync,ffd");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(*pair, (std::vector<PlacementKind>{PlacementKind::kSyncAware,
                                               PlacementKind::kFirstFit}));
}

TEST(PlacementSpec, RepeatedTokensYieldOneColumnEach) {
  // Each strategy appears once, at its first occurrence; "all" expands in
  // place and absorbs strategies already listed.
  EXPECT_EQ(placements_from_spec("wfd,wfd"),
            std::vector<PlacementKind>{PlacementKind::kWfd});
  EXPECT_EQ(placements_from_spec("bfd,ffd,bfd"),
            (std::vector<PlacementKind>{PlacementKind::kBestFit,
                                        PlacementKind::kFirstFit}));
  EXPECT_EQ(placements_from_spec("all,wfd"), all_placement_kinds());
  EXPECT_EQ(placements_from_spec("sync,all"),
            (std::vector<PlacementKind>{
                PlacementKind::kSyncAware, PlacementKind::kWfd,
                PlacementKind::kFirstFit, PlacementKind::kBestFit}));
}

TEST(PlacementSpec, UnknownTokenIsAHardErrorWithAMessage) {
  std::string error;
  EXPECT_FALSE(placements_from_spec("wfd,bogus", &error).has_value());
  EXPECT_NE(error.find("unknown placement strategy 'bogus'"),
            std::string::npos);
  error.clear();
  EXPECT_FALSE(placements_from_spec("wfd-maxmiss", &error).has_value());
  EXPECT_NE(error.find("unknown placement strategy 'wfd-maxmiss'"),
            std::string::npos);
  error.clear();
  EXPECT_FALSE(placements_from_spec("", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(PlacementSpec, ScenarioSpecErrorPathsStillReject) {
  // The --placement parser shares the split-and-validate idiom with
  // scenarios_from_spec; pin the latter's error paths alongside.
  std::string error;
  EXPECT_FALSE(scenarios_from_spec("first:-3", &error).has_value());
  EXPECT_NE(error.find("bad scenario count"), std::string::npos);
  error.clear();
  EXPECT_FALSE(scenarios_from_spec("first:2x", &error).has_value());
  EXPECT_NE(error.find("bad scenario count"), std::string::npos);
  error.clear();
  EXPECT_FALSE(scenarios_from_spec("fig2,unknown", &error).has_value());
  EXPECT_NE(error.find("unknown scenario spec"), std::string::npos);
}

}  // namespace
}  // namespace dpcp
