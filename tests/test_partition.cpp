// Tests for federated allocation, WFD resource placement (Algorithm 2) and
// the iterative partitioner (Algorithm 1).
#include <gtest/gtest.h>

#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "partition/partitioner.hpp"
#include "partition/placement.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

// ---------- federated allocation --------------------------------------------

TEST(Federated, MinProcessorsFormula) {
  TaskSet ts(0);
  // C=30, L*=10, D=20: ceil((30-10)/(20-10)) = 2.
  add_heavy_task(ts, 20, 30, 10);
  // C=35, L*=10, D=20: ceil(25/10) = 3.
  add_heavy_task(ts, 20, 35, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  EXPECT_EQ(min_federated_processors(ts.task(0)), 2);
  EXPECT_EQ(min_federated_processors(ts.task(1)), 3);
}

TEST(Federated, LightTaskGetsOneProcessor) {
  TaskSet ts(0);
  add_heavy_task(ts, 100, 50, 10);  // C=50 <= D=100
  ts.finalize();
  EXPECT_EQ(min_federated_processors(ts.task(0)), 1);
}

TEST(Federated, WcrtBoundIsGrahamStyle) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);
  ts.finalize();
  // L* + ceil((C-L*)/m) = 10 + ceil(20/2) = 20 on 2 processors.
  EXPECT_EQ(federated_wcrt_bound(ts.task(0), 2), 20);
  EXPECT_EQ(federated_wcrt_bound(ts.task(0), 4), 15);
  EXPECT_EQ(federated_wcrt_bound(ts.task(0), 1), 30);
}

TEST(Federated, InitialPartitionAssignsDisjointProcessors) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);  // needs 2
  add_heavy_task(ts, 20, 35, 10);  // needs 3
  ts.assign_rm_priorities();
  ts.finalize();
  const auto part = initial_federated_partition(ts, 6);
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->cluster_size(0), 2);
  EXPECT_EQ(part->cluster_size(1), 3);
  EXPECT_EQ(part->assigned_processors(), 5);
  // Disjoint clusters.
  for (ProcessorId p : part->cluster(0))
    EXPECT_EQ(part->task_of_processor(p), 0);
  for (ProcessorId p : part->cluster(1))
    EXPECT_EQ(part->task_of_processor(p), 1);
}

TEST(Federated, InitialPartitionFailsWhenPlatformTooSmall) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);
  add_heavy_task(ts, 20, 35, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  EXPECT_FALSE(initial_federated_partition(ts, 4).has_value());
}

// ---------- partition data structure ----------------------------------------

TEST(Partition, ResourceBookkeeping) {
  Partition part(4, 2, 3);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);
  part.add_processor_to_task(1, 2);
  part.assign_resource(0, 1);
  part.assign_resource(2, 1);
  part.assign_resource(1, 2);
  EXPECT_EQ(part.processor_of_resource(0), 1);
  EXPECT_EQ(part.resources_on_processor(1), (std::vector<ResourceId>{0, 2}));
  part.clear_resource_assignment();
  EXPECT_EQ(part.processor_of_resource(0), Partition::kUnassigned);
}

// Every validate() verdict, byte for byte: one row per failure branch in
// check order, plus a valid partition.  Utilizations are fractional, so
// the messages exercise the double formatting.
TEST(Partition, ValidateMessagesPinned) {
  // tau_0: C=57, T=40 (U=1.425); tau_1: U=0.35; tau_2: U=0.45.  Both
  // resources are global: u(l_0) = 30/40 + 10/100 + 20/100 = 1.05 and
  // u(l_1) = 20/100 + 20/100 = 0.4.
  TaskSet ts(2);
  DagTask& t0 = ts.add_task(40, 40);
  t0.add_vertex(30, {6, 0});
  t0.add_vertex(27);
  t0.set_cs_length(0, 5);
  DagTask& t1 = ts.add_task(100, 100);
  t1.add_vertex(35, {1, 1});
  t1.set_cs_length(0, 10);
  t1.set_cs_length(1, 20);
  DagTask& t2 = ts.add_task(100, 100);
  t2.add_vertex(45, {2, 1});
  t2.set_cs_length(0, 10);
  t2.set_cs_length(1, 20);
  ts.assign_rm_priorities();
  ts.finalize();

  // Valid: tau_0 on {0, 1}; tau_1 and tau_2 share processor 2, which also
  // hosts l_1 (0.8 + 0.4 <= 2); l_0 sits on the spare processor 3.
  Partition valid(4, 3, 2);
  valid.set_cluster(0, {0, 1});
  valid.set_cluster(1, {2});
  valid.set_cluster(2, {2});
  valid.restore_resource_assignment({3, 2});

  const auto with_cluster = [&](int task, std::vector<ProcessorId> procs) {
    Partition part = valid;
    part.set_cluster(task, std::move(procs));
    return part;
  };
  const auto with_placement = [&](std::vector<ProcessorId> map) {
    Partition part = valid;
    part.restore_resource_assignment(map);
    return part;
  };
  Partition all_shared = with_cluster(0, {2});

  const std::vector<std::pair<Partition, std::string>> rows = {
      {valid, "valid"},
      {Partition(4, 2, 2),
       "partition shape (2 tasks, 2 resources) does not match the task set "
       "(3, 2)"},
      {with_cluster(1, {}), "task 1 has an empty cluster"},
      {with_cluster(2, {4}), "task 2 maps to out-of-range processor 4"},
      {with_cluster(0, {0, 1, 0}), "task 0 lists processor 0 twice"},
      {with_cluster(2, {1}),
       "processor 1 is shared but task 0 spans a 2-processor cluster"},
      {with_placement({3, Partition::kUnassigned}),
       "global resource 1 is unplaced"},
      {with_placement({3, 9}), "resource 1 placed on out-of-range processor 9"},
      {with_placement({1, 2}),
       "cluster of task 0 over capacity: load 2.475 on 2 processor(s)"},
      {all_shared, "shared processor 2 over capacity: task load 2.225"},
      {with_placement({2, 2}),
       "shared processor 2 over capacity: task load 0.8 + resource load 1.45 "
       "exceeds its 2 unit cluster(s)"},
  };
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto& [part, want] = rows[k];
    EXPECT_EQ(part.validate(ts).value_or("valid"), want) << "row " << k;
  }
}

// ---------- WFD (Algorithm 2) -----------------------------------------------

/// Algorithm 2's worst-fit-decreasing placement.
bool place_wfd(const TaskSet& ts, Partition& part) {
  return placement_strategy(PlacementKind::kWfd).place_resources(ts, part);
}

/// Two tasks sharing two resources; task 0's cluster has more slack.
struct WfdFixture {
  TaskSet ts{2};
  Partition part;

  WfdFixture() : part(6, 2, 2) {
    // tau_0: U = 1.5 (C=30, T=20), gets 3 procs -> slack 1.5.
    DagTask& a = ts.add_task(20, 20);
    a.add_vertex(10, {1, 0});
    a.add_vertex(10, {0, 1});
    a.add_vertex(10, {0, 0});
    a.set_cs_length(0, 2);
    a.set_cs_length(1, 1);
    // tau_1: U = 1.5 (C=30, T=20), gets 2 procs -> slack 0.5.
    DagTask& b = ts.add_task(20, 20);
    b.add_vertex(15, {1, 0});
    b.add_vertex(15, {0, 1});
    b.set_cs_length(0, 4);
    b.set_cs_length(1, 1);
    ts.assign_rm_priorities();
    ts.finalize();
    part.add_processor_to_task(0, 0);
    part.add_processor_to_task(0, 1);
    part.add_processor_to_task(0, 2);
    part.add_processor_to_task(1, 3);
    part.add_processor_to_task(1, 4);
  }
};

TEST(Wfd, PlacesGlobalsOnMaxSlackCluster) {
  WfdFixture f;
  ASSERT_TRUE(place_wfd(f.ts, f.part));
  // Both resources are global; both fit in tau_0's larger slack.
  for (ResourceId q : f.ts.global_resources()) {
    const ProcessorId p = f.part.processor_of_resource(q);
    ASSERT_NE(p, Partition::kUnassigned);
    EXPECT_EQ(f.part.task_of_processor(p), 0);  // max-slack cluster
  }
}

TEST(Wfd, SpreadsLoadWithinCluster) {
  WfdFixture f;
  ASSERT_TRUE(place_wfd(f.ts, f.part));
  // The two resources must land on two *different* processors of the
  // chosen cluster (min-resource-load processor rule).
  const ProcessorId p0 = f.part.processor_of_resource(0);
  const ProcessorId p1 = f.part.processor_of_resource(1);
  EXPECT_NE(p0, p1);
}

TEST(Wfd, SortsResourcesByUtilizationDescending) {
  WfdFixture f;
  // l_0 utilization: (1*2)/20 + (1*4)/20 = 0.3; l_1: (1+1)/20 = 0.1.
  EXPECT_GT(f.ts.resource_utilization(0), f.ts.resource_utilization(1));
  ASSERT_TRUE(place_wfd(f.ts, f.part));
  // Highest-utilization resource goes first to the emptiest processor; both
  // end up on cluster 0, l_0 on the first min-load processor.
  EXPECT_EQ(f.part.task_of_processor(f.part.processor_of_resource(0)), 0);
}

TEST(Wfd, InfeasibleWhenResourceUtilizationExceedsSlack) {
  TaskSet ts(1);
  // One task with U ~ 1.96 on a 2-processor cluster -> slack 0.04, but the
  // global resource has utilization 0.2.
  DagTask& a = ts.add_task(100, 100);
  a.add_vertex(98, {1});
  a.add_vertex(98, {0});
  a.set_cs_length(0, 10);
  DagTask& b = ts.add_task(100, 100);
  b.add_vertex(98, {1});
  b.add_vertex(98, {0});
  b.set_cs_length(0, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  // Make l_0 global (both use it) with utilization 2*10/100 = 0.2.
  Partition part(4, 2, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);
  part.add_processor_to_task(1, 2);
  part.add_processor_to_task(1, 3);
  EXPECT_FALSE(place_wfd(ts, part));
}

TEST(Wfd, LocalResourcesAreNotPlaced) {
  TaskSet ts(2);
  DagTask& a = ts.add_task(20, 20);
  a.add_vertex(10, {1, 0});  // l_0 used only by tau_0 -> local
  a.set_cs_length(0, 1);
  DagTask& b = ts.add_task(20, 20);
  b.add_vertex(10, {0, 0});
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 2, 2);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 1);
  ASSERT_TRUE(place_wfd(ts, part));
  EXPECT_EQ(part.processor_of_resource(0), Partition::kUnassigned);
  EXPECT_EQ(part.processor_of_resource(1), Partition::kUnassigned);
}

// ---------- Algorithm 1 -------------------------------------------------------

TEST(Partitioner, AcceptsWhenOracleAlwaysPasses) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);
  add_heavy_task(ts, 25, 30, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  int calls = 0;
  LambdaOracle oracle(ts, [&](const TaskSet&, const Partition&, int,
                              const std::vector<Time>&) -> std::optional<Time> {
    ++calls;
    return 1;
  });
  const auto out = partition_and_analyze(ts, 8, oracle,
                                         {ResourcePlacement::kNone});
  EXPECT_TRUE(out.schedulable);
  EXPECT_EQ(out.rounds, 1);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(out.wcrt[0], 1);
}

TEST(Partitioner, GrantsSpareProcessorOnFailure) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);  // needs 2 initially
  ts.assign_rm_priorities();
  ts.finalize();
  // Oracle fails until the cluster has 4 processors.
  LambdaOracle oracle(ts, [&](const TaskSet& t, const Partition& p, int i,
                              const std::vector<Time>&) -> std::optional<Time> {
    return p.cluster_size(i) >= 4 ? std::optional<Time>(t.task(i).deadline())
                                  : std::nullopt;
  });
  const auto out = partition_and_analyze(ts, 8, oracle,
                                         {ResourcePlacement::kNone});
  EXPECT_TRUE(out.schedulable);
  EXPECT_EQ(out.partition.cluster_size(0), 4);
  EXPECT_EQ(out.rounds, 3);  // 2 -> 3 -> 4 processors
}

TEST(Partitioner, FailsWhenNoSpareLeft) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);  // needs 2 of 3; one spare
  ts.assign_rm_priorities();
  ts.finalize();
  LambdaOracle oracle(ts, [](const TaskSet&, const Partition&, int,
                             const std::vector<Time>&) -> std::optional<Time> {
    return std::nullopt;
  });
  const auto out = partition_and_analyze(ts, 3, oracle,
                                         {ResourcePlacement::kNone});
  EXPECT_FALSE(out.schedulable);
  EXPECT_NE(out.failure.find("no spare processor"), std::string::npos);
}

TEST(Partitioner, AnalyzesInDecreasingPriorityWithHints) {
  TaskSet ts(0);
  add_heavy_task(ts, 20, 30, 10);   // longer period -> lower priority
  add_heavy_task(ts, 10, 15, 4);    // shorter period -> higher priority
  ts.assign_rm_priorities();
  ts.finalize();
  std::vector<int> order;
  LambdaOracle oracle(ts, [&](const TaskSet& t, const Partition&, int i,
                              const std::vector<Time>& hint)
                              -> std::optional<Time> {
    order.push_back(i);
    if (i == 0) {
      // Higher-priority task 1 was analysed first; its hint must be the
      // computed bound (7), not D_1.
      EXPECT_EQ(hint[1], 7);
    } else {
      EXPECT_EQ(hint[0], t.task(0).deadline());
    }
    return 7;
  });
  const auto out = partition_and_analyze(ts, 8, oracle,
                                         {ResourcePlacement::kNone});
  EXPECT_TRUE(out.schedulable);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // higher priority first
  EXPECT_EQ(order[1], 0);
}

TEST(Partitioner, RollsBackResourcePlacementEachRound) {
  // With WFD placement the resource map must be recomputed per round.
  TaskSet ts(1);
  DagTask& a = ts.add_task(100, 100);
  a.add_vertex(60, {1});
  a.add_vertex(60, {0});
  a.set_cs_length(0, 1);
  DagTask& b = ts.add_task(100, 100);
  b.add_vertex(60, {1});
  b.add_vertex(60, {0});
  b.set_cs_length(0, 1);
  ts.assign_rm_priorities();
  ts.finalize();
  std::vector<ProcessorId> placements;
  LambdaOracle oracle(ts, [&](const TaskSet&, const Partition& p, int i,
                              const std::vector<Time>&) -> std::optional<Time> {
    placements.push_back(p.processor_of_resource(0));
    EXPECT_NE(p.processor_of_resource(0), Partition::kUnassigned);
    return p.cluster_size(i) >= 3 ? std::optional<Time>(50) : std::nullopt;
  });
  const auto out =
      partition_and_analyze(ts, 8, oracle, {ResourcePlacement::kWfd});
  EXPECT_TRUE(out.schedulable);
  EXPECT_GE(out.rounds, 2);
}

TEST(Partitioner, FirstFitAblationPlacesAllGlobals) {
  Rng rng(31);
  GenParams params;
  params.total_utilization = 6.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  const auto part0 = initial_federated_partition(*ts, 16);
  ASSERT_TRUE(part0.has_value());
  Partition part = *part0;
  const PlacementStrategy& ffd = placement_strategy(PlacementKind::kFirstFit);
  if (ffd.place_resources(*ts, part)) {
    for (ResourceId q : ts->global_resources())
      EXPECT_NE(part.processor_of_resource(q), Partition::kUnassigned);
  }
}

}  // namespace
}  // namespace dpcp
