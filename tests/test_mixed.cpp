// Tests for the Sec. VI extension: partitioned light tasks on shared
// processors -- WFD packing, sequential analysis with P-FP preemption,
// promotion in the partitioning loop, and simulator behaviour (sequential
// execution, cross-task preemption, invariants, bound safety).
#include <gtest/gtest.h>

#include "analysis/dpcp_p.hpp"
#include "analysis/fed_fp.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "partition/partitioner.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

DagTask& add_light_task(TaskSet& ts, Time period, Time wcet) {
  DagTask& t = ts.add_task(period, period);
  // Two-vertex chain so sequentialization is observable.
  t.add_vertex(wcet / 2);
  t.add_vertex(wcet - wcet / 2);
  t.add_edge(0, 1);
  return t;
}

// ---------- packing -------------------------------------------------------------

TEST(MixedPartition, LightTasksPackWorstFitDecreasing) {
  TaskSet ts(0);
  add_light_task(ts, 100, 60);  // U = 0.6
  add_light_task(ts, 100, 50);  // U = 0.5
  add_light_task(ts, 100, 40);  // U = 0.4
  ts.assign_rm_priorities();
  ts.finalize();
  const auto part = initial_federated_partition(ts, 8);
  ASSERT_TRUE(part.has_value());
  // WFD: 0.6 alone; 0.5 opens a second processor; 0.4 joins the 0.5.
  EXPECT_EQ(part->cluster_size(0), 1);
  EXPECT_EQ(part->cluster_size(1), 1);
  EXPECT_EQ(part->cluster_size(2), 1);
  EXPECT_NE(part->cluster(0)[0], part->cluster(1)[0]);
  EXPECT_EQ(part->cluster(2)[0], part->cluster(1)[0]);
  EXPECT_TRUE(part->processor_shared(part->cluster(1)[0]));
  EXPECT_FALSE(part->task_shares_processor(0));
  EXPECT_TRUE(part->task_shares_processor(1));
  EXPECT_EQ(part->assigned_processors(), 2);
}

TEST(MixedPartition, HeavyAndLightCoexist) {
  TaskSet ts(0);
  DagTask& heavy = ts.add_task(20, 20);
  heavy.add_vertex(10);
  heavy.add_vertex(10);
  heavy.add_vertex(10);  // C=30 > D=20: heavy, needs >= 2 procs
  add_light_task(ts, 100, 30);
  add_light_task(ts, 100, 30);
  ts.assign_rm_priorities();
  ts.finalize();
  const auto part = initial_federated_partition(ts, 8);
  ASSERT_TRUE(part.has_value());
  EXPECT_GE(part->cluster_size(0), 2);
  EXPECT_FALSE(part->task_shares_processor(0));
  // Both lights (0.3 + 0.3 <= 1) share one processor.
  EXPECT_EQ(part->cluster(1)[0], part->cluster(2)[0]);
}

TEST(MixedPartition, PackingFailsWhenPoolExhausted) {
  TaskSet ts(0);
  for (int i = 0; i < 4; ++i) add_light_task(ts, 100, 90);  // U = 0.9 each
  ts.assign_rm_priorities();
  ts.finalize();
  EXPECT_FALSE(initial_federated_partition(ts, 3).has_value());
  EXPECT_TRUE(initial_federated_partition(ts, 4).has_value());
}

// ---------- analysis -------------------------------------------------------------

TEST(MixedAnalysis, SharedLightTasksPayPreemption) {
  TaskSet ts(0);
  add_light_task(ts, 100, 10);  // higher priority (shorter period)
  add_light_task(ts, 200, 20);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 2, 0);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 0);  // shared

  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  const std::vector<Time> hints{100, 200};
  // tau_0: sequential, nobody above: r = C = 10.
  EXPECT_EQ(ep.wcrt(ts, part, 0, hints), std::optional<Time>(10));
  // tau_1 with tau_0's computed bound as hint:
  // r = 20 + ceil((r+10)/100)*10 -> r = 30.
  EXPECT_EQ(ep.wcrt(ts, part, 1, {10, 200}), std::optional<Time>(30));
  // FED-FP agrees on resource-free sets.
  SchedAnalysis fed(AnalysisKind::kFedFp);
  EXPECT_EQ(fed.wcrt(ts, part, 1, {10, 200}), std::optional<Time>(30));
}

TEST(MixedAnalysis, DedicatedLightTaskStaysDagAnalysed) {
  // A task with C <= D alone on its processor keeps the parallel-DAG
  // analysis (this preserves the paper's Fig. 1 semantics).
  TaskSet ts(0);
  add_light_task(ts, 100, 20);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 1, 0);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);  // two dedicated processors
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  // Chain task: L* = C = 20 even on 2 processors.
  EXPECT_EQ(ep.wcrt(ts, part, 0, {100}), std::optional<Time>(20));
}

TEST(MixedAnalysis, GlobalResourceBetweenHeavyAndLight) {
  // Light task's requests execute remotely on the heavy task's cluster;
  // the heavy task suffers agent interference, the light task inter-task
  // blocking -- all through the existing machinery (Sec. VI discussion).
  TaskSet ts(1);
  DagTask& heavy = ts.add_task(100, 100);  // higher priority
  heavy.add_vertex(60, {1});
  heavy.add_vertex(60, {0});
  heavy.set_cs_length(0, 2);
  DagTask& light = ts.add_task(400, 400);
  light.add_vertex(10, {1});
  light.add_vertex(10, {0});
  light.add_edge(0, 1);
  light.set_cs_length(0, 4);
  DagTask& light2 = ts.add_task(300, 300);
  light2.add_vertex(5);
  ts.assign_rm_priorities();
  ts.finalize();

  Partition part(4, 3, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);
  part.add_processor_to_task(1, 2);
  part.add_processor_to_task(2, 2);  // lights share processor 2
  part.assign_resource(0, 1);        // global on heavy cluster

  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  const std::vector<Time> hints{100, 400, 300};
  const auto r_heavy = ep.wcrt(ts, part, 0, hints);
  const auto r_light = ep.wcrt(ts, part, 1, hints);
  ASSERT_TRUE(r_heavy.has_value());
  ASSERT_TRUE(r_light.has_value());
  // Heavy pays at least beta from the light's 4-unit section.
  EXPECT_GT(*r_heavy, 60 + 30);  // L* + (C-L*)/2 without blocking
  // Light pays its own CS remotely plus preemption by light2.
  EXPECT_GT(*r_light, 20);
  EXPECT_LE(*r_light, 400);
}

// ---------- Algorithm-1 promotion --------------------------------------------------

TEST(MixedPartitioner, FailingSharedTaskPromotedToDedicatedSpare) {
  TaskSet ts(0);
  add_light_task(ts, 100, 55);
  add_light_task(ts, 100, 40);
  ts.assign_rm_priorities();
  ts.finalize();
  // Oracle rejects task 1 while it shares a processor.
  LambdaOracle oracle(ts, [](const TaskSet&, const Partition& p, int i,
                             const std::vector<Time>&) -> std::optional<Time> {
    if (i == 1 && p.task_shares_processor(1)) return std::nullopt;
    return 1;
  });
  const auto out =
      partition_and_analyze(ts, 4, oracle, {ResourcePlacement::kNone});
  ASSERT_TRUE(out.schedulable);
  EXPECT_FALSE(out.partition.task_shares_processor(1));
  EXPECT_EQ(out.partition.cluster_size(1), 1);
}

// ---------- simulator ---------------------------------------------------------------

TEST(MixedSim, SharedProcessorPreemptsByPriority) {
  TaskSet ts(0);
  add_light_task(ts, 50, 10);   // tau_0: higher priority
  add_light_task(ts, 200, 50);  // tau_1
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(1, 2, 0);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 0);
  SimConfig cfg;
  cfg.horizon = 199;
  const SimResult res = simulate(ts, part, cfg);
  // tau_0 releases at 0, 50, 100, 150: always responds in 10.
  EXPECT_EQ(res.task[0].max_response, 10);
  EXPECT_EQ(res.task[0].jobs_completed, 4);
  // tau_1: 50 units of work, preempted 10 units per tau_0 job:
  // [10,50] + [60,70] -> response 70.
  EXPECT_EQ(res.task[1].max_response, 70);
  EXPECT_GT(res.preemptions, 0);
  EXPECT_EQ(res.total_deadline_misses(), 0);
  EXPECT_TRUE(res.all_invariants_hold());
}

TEST(MixedSim, SharedTaskRunsSequentially) {
  // A wide DAG on a shared processor must never run two vertices at once;
  // with a second idle-ish co-located task the processor still serves one
  // vertex of the wide task at a time.
  TaskSet ts(0);
  DagTask& wide = ts.add_task(100, 100);
  for (int i = 0; i < 4; ++i) wide.add_vertex(5);
  DagTask& other = ts.add_task(400, 400);
  other.add_vertex(5);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 2, 0);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);  // two procs BUT...
  part.add_processor_to_task(1, 1);  // ...proc 1 shared -> sequential
  SimConfig cfg;
  cfg.horizon = 99;
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(ts, part, cfg, &trace);
  EXPECT_TRUE(res.all_invariants_hold());
  // Sequential execution: responses equal total work, not work/2.
  EXPECT_GE(res.task[0].max_response, 20);

  // Cross-check from the trace: the wide task never overlaps itself.
  int concurrent = 0, max_concurrent = 0;
  for (const auto& e : trace) {
    if (e.task != 0) continue;
    if (e.kind == TraceKind::kVertexDispatch) {
      max_concurrent = std::max(max_concurrent, ++concurrent);
    } else if (e.kind == TraceKind::kVertexComplete ||
               e.kind == TraceKind::kVertexPreempt) {
      --concurrent;
    }
  }
  EXPECT_EQ(max_concurrent, 1);
}

class MixedBoundCoversSimTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedBoundCoversSimTest, ObservedResponseWithinBound) {
  Rng rng(5000 + GetParam());
  GenParams params;
  params.scenario.m = 16;
  // At 1.1, seven of the eight seeds are schedulable (all but 6) and three
  // of those (2, 4, 5) pack light tasks onto a shared processor.  At 4.0
  // only seed 0 was, on dedicated processors only; from 1.5 up seed 0 is
  // unschedulable.
  params.total_utilization = 1.1;
  params.light_tasks = 3;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  int lights = 0;
  for (int i = 0; i < ts->size(); ++i)
    if (ts->task(i).utilization() < 1.0) ++lights;
  EXPECT_EQ(lights, 3);

  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  const PartitionOutcome outcome = ep.test(*ts, 16);
  if (!outcome.schedulable) GTEST_SKIP() << "unschedulable sample";

  SimConfig cfg;
  cfg.horizon = millis(400);
  cfg.seed = static_cast<std::uint64_t>(GetParam()) + 1;
  const SimResult res = simulate(*ts, outcome.partition, cfg);
  EXPECT_TRUE(res.all_invariants_hold());
  EXPECT_EQ(res.total_deadline_misses(), 0);
  for (int i = 0; i < ts->size(); ++i)
    EXPECT_LE(res.task[i].max_response, outcome.wcrt[i]) << "task " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedBoundCoversSimTest,
                         ::testing::Range(0, 8));

TEST(MixedGen, LightTasksHaveSubUnitUtilization) {
  Rng rng(61);
  GenParams params;
  params.total_utilization = 4.0;
  params.light_tasks = 5;
  params.light_util_min = 0.2;
  params.light_util_max = 0.5;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  int lights = 0;
  for (int i = 0; i < ts->size(); ++i) {
    const double u = ts->task(i).utilization();
    if (u < 1.0) {
      ++lights;
      EXPECT_GE(u, 0.2 - 0.01);
      EXPECT_LE(u, 0.5 + 0.01);
    }
  }
  EXPECT_EQ(lights, 5);
}

}  // namespace
}  // namespace dpcp
