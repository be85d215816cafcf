// Tests for the DPCP-p runtime simulator: segment plans, the paper's Fig. 1
// worked example (E7), protocol invariants (Lemma 1 / E8, mutual exclusion,
// ceiling gate, work conservation) on random workloads, and the
// analysis-bound-vs-observed-response safety property.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "analysis/dpcp_p.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "partition/placement.hpp"
#include "sim/segments.hpp"
#include "sim/simulator.hpp"

namespace dpcp {
namespace {

// ---------- segment plans -----------------------------------------------------

TEST(Segments, InterleavesCriticalSectionsWithEvenSlices) {
  TaskSet ts(2);
  DagTask& t = ts.add_task(1000, 1000);
  t.add_vertex(10, {1, 1});
  t.set_cs_length(0, 2);
  t.set_cs_length(1, 2);
  ts.finalize();
  const SegmentPlan plan = build_plan(ts);
  const std::vector<Segment> segs(plan.begin(0, 0), plan.end(0, 0));
  // noncrit = 6 over 3 slots: [2][cs][2][cs][2].
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_FALSE(segs[0].critical);
  EXPECT_TRUE(segs[1].critical);
  EXPECT_FALSE(segs[2].critical);
  EXPECT_TRUE(segs[3].critical);
  EXPECT_FALSE(segs[4].critical);
  EXPECT_EQ(plan.vertex_total(0, 0), 10);
  // Round-robin: the two resources alternate.
  EXPECT_NE(segs[1].resource, segs[3].resource);
}

TEST(Segments, PureCriticalVertex) {
  TaskSet ts(1);
  DagTask& t = ts.add_task(1000, 1000);
  t.add_vertex(4, {2});  // 2 requests x 2 = whole WCET
  t.set_cs_length(0, 2);
  ts.finalize();
  const SegmentPlan plan = build_plan(ts);
  const std::vector<Segment> segs(plan.begin(0, 0), plan.end(0, 0));
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_TRUE(segs[0].critical);
  EXPECT_TRUE(segs[1].critical);
}

TEST(Segments, WcetsPreservedAcrossTask) {
  Rng rng(3);
  GenParams params;
  params.total_utilization = 4.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  const SegmentPlan plan = build_plan(*ts);
  for (int i = 0; i < ts->size(); ++i)
    for (VertexId v = 0; v < ts->task(i).vertex_count(); ++v)
      EXPECT_EQ(plan.vertex_total(i, v), ts->task(i).vertex_wcet(v));
}

TEST(Segments, ScalingShrinksButKeepsStructure) {
  TaskSet ts(1);
  DagTask& t = ts.add_task(1000, 1000);
  t.add_vertex(100, {1});
  t.set_cs_length(0, 10);
  ts.finalize();
  const SegmentPlan plan = build_plan(ts, 0.5);
  Time total = 0;
  bool has_cs = false;
  for (const Segment* s = plan.begin(0, 0); s != plan.end(0, 0); ++s) {
    total += s->length;
    has_cs |= s->critical;
  }
  EXPECT_TRUE(has_cs);
  EXPECT_LE(total, 60);
  EXPECT_GE(total, 40);
}

// ---------- Fig. 1 of the paper (E7) --------------------------------------------

/// Builds the two-task example of Fig. 1: l_1 (resource 0) global on
/// processor 1 (the paper's p_2), l_2 (resource 1) local to tau_i.
struct Fig1 {
  TaskSet ts{2};
  Partition part{4, 2, 2};

  Fig1() {
    // tau_i = task 0 (higher priority via id tie-break at equal periods).
    DagTask& ti = ts.add_task(20, 20);
    ti.add_vertex(2);          // v_{i,1}
    ti.add_vertex(3, {1, 0});  // v_{i,2}: whole body is one CS on l_1
    ti.add_vertex(2, {0, 1});  // v_{i,3}: CS on l_2
    ti.add_vertex(2, {0, 1});  // v_{i,4}: CS on l_2
    ti.add_vertex(4);          // v_{i,5}
    ti.add_vertex(2);          // v_{i,6}
    ti.add_vertex(2);          // v_{i,7}
    ti.add_vertex(2);          // v_{i,8}
    ti.add_edge(0, 1);
    ti.add_edge(0, 2);
    ti.add_edge(0, 3);
    ti.add_edge(0, 4);
    ti.add_edge(1, 5);  // v_{i,2} -> v_{i,6}
    ti.add_edge(2, 6);  // v_{i,3} -> v_{i,7}
    ti.add_edge(4, 6);  // v_{i,5} -> v_{i,7}
    ti.add_edge(3, 7);  // v_{i,4} -> v_{i,8}
    ti.add_edge(5, 7);
    ti.add_edge(6, 7);
    ti.set_cs_length(0, 3);
    ti.set_cs_length(1, 2);

    DagTask& tj = ts.add_task(20, 20);
    tj.add_vertex(1);          // v_{j,1}
    tj.add_vertex(3, {1, 0});  // v_{j,2}: CS on l_1
    tj.add_vertex(3);          // v_{j,3}
    tj.add_vertex(4);          // v_{j,4}
    tj.add_vertex(4);          // v_{j,5}
    tj.add_vertex(1);          // v_{j,6}
    for (VertexId v = 1; v <= 4; ++v) {
      tj.add_edge(0, v);
      tj.add_edge(v, 5);
    }
    tj.set_cs_length(0, 3);

    ts.assign_rm_priorities();
    ts.finalize();

    part.add_processor_to_task(0, 0);
    part.add_processor_to_task(0, 1);
    part.add_processor_to_task(1, 2);
    part.add_processor_to_task(1, 3);
    part.assign_resource(0, 1);  // l_1 on the paper's p_2
  }
};

TEST(Fig1Schedule, PaperStructure) {
  Fig1 f;
  EXPECT_EQ(f.ts.task(0).longest_path_length(), 10);  // (v1,v5,v7,v8)
  EXPECT_EQ(f.ts.task(0).wcet(), 19);
  EXPECT_TRUE(f.ts.is_global(0));  // l_1 shared by both
  EXPECT_TRUE(f.ts.is_local(1));   // l_2 only in tau_i
  EXPECT_GT(f.ts.task(0).priority(), f.ts.task(1).priority());
}

/// Finds the first trace event matching (kind, task, resource); returns -1
/// when absent.
Time find_event(const std::vector<TraceEvent>& trace, TraceKind kind,
                int task, int resource) {
  for (const auto& e : trace)
    if (e.kind == kind && e.task == task &&
        (resource < 0 || e.resource == resource))
      return e.time;
  return -1;
}

TEST(Fig1Schedule, ReproducesThePapersProtocolEvents) {
  Fig1 f;
  SimConfig cfg;
  cfg.horizon = 19;  // a single job per task
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(f.ts, f.part, cfg, &trace);

  // <j,1 arrives at t=1 and is granted immediately; releases l_1 at t=4.
  EXPECT_EQ(find_event(trace, TraceKind::kRequestIssue, 1, 0), 1);
  EXPECT_EQ(find_event(trace, TraceKind::kRequestGrant, 1, 0), 1);
  EXPECT_EQ(find_event(trace, TraceKind::kAgentComplete, 1, 0), 4);

  // <i,1 arrives at t=2, waits for <j,1 (priority ceiling), is granted at
  // t=4 and finishes at t=7 -- exactly the paper's narrative.
  EXPECT_EQ(find_event(trace, TraceKind::kRequestIssue, 0, 0), 2);
  EXPECT_EQ(find_event(trace, TraceKind::kRequestGrant, 0, 0), 4);
  EXPECT_EQ(find_event(trace, TraceKind::kAgentComplete, 0, 0), 7);

  // v_{i,3} locks the local resource l_2 at t=2 and releases it at t=4,
  // upon which v_{i,4} locks it.
  EXPECT_EQ(find_event(trace, TraceKind::kLocalLock, 0, 1), 2);
  EXPECT_EQ(find_event(trace, TraceKind::kLocalUnlock, 0, 1), 4);
  Time second_lock = -1;
  for (const auto& e : trace)
    if (e.kind == TraceKind::kLocalLock && e.task == 0 && e.resource == 1 &&
        e.time > 2) {
      second_lock = e.time;
      break;
    }
  EXPECT_EQ(second_lock, 4);

  // Lemma 1 observed: <i,1 was blocked by exactly one lower-priority
  // request (namely <j,1).
  EXPECT_EQ(res.max_lower_priority_blockers, 1);
  EXPECT_TRUE(res.all_invariants_hold());
  EXPECT_EQ(res.global_requests_completed, 2);

  // Deterministic end-to-end responses (both within D = 20).
  EXPECT_EQ(res.task[1].max_response, 9);
  EXPECT_EQ(res.task[0].max_response, 14);
  EXPECT_EQ(res.total_deadline_misses(), 0);
  EXPECT_TRUE(res.drained);
}

TEST(Fig1Schedule, AgentPreemptsVertexOnItsProcessor) {
  // Force tau_i's work onto processor 1 by shrinking its cluster to {1}:
  // the agent for l_1 must preempt tau_i's running vertex.
  Fig1 f;
  Partition part(4, 2, 2);
  part.add_processor_to_task(0, 1);
  part.add_processor_to_task(1, 2);
  part.add_processor_to_task(1, 3);
  part.assign_resource(0, 1);
  SimConfig cfg;
  cfg.horizon = 19;
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(f.ts, part, cfg, &trace);
  EXPECT_GT(res.preemptions, 0);
  EXPECT_TRUE(res.all_invariants_hold());
  // The vertex preemption must appear in the trace.
  bool saw_preempt = false;
  for (const auto& e : trace)
    if (e.kind == TraceKind::kVertexPreempt && e.task == 0) saw_preempt = true;
  EXPECT_TRUE(saw_preempt);
}

// ---------- invariants on random workloads (E8) ---------------------------------

// Every field is 8 bytes wide, so the struct has no padding: gtest names each
// case by the raw bytes of its parameter, and indeterminate padding bytes
// would make the discovered ctest names differ from build to build.
struct SimPropertyCase {
  std::uint64_t seed;
  double utilization;
  double scale;
  Time jitter;
};

class SimInvariantsTest : public ::testing::TestWithParam<SimPropertyCase> {};

TEST_P(SimInvariantsTest, ProtocolInvariantsHoldUnderDpcpPartition) {
  const SimPropertyCase c = GetParam();
  Rng rng(c.seed);
  GenParams params;
  params.scenario.m = 16;
  params.scenario.p_r = 0.75;
  params.total_utilization = c.utilization;
  const auto ts = generate_taskset(rng, params, nullptr);
  ASSERT_TRUE(ts.has_value());

  auto part0 = initial_federated_partition(*ts, 16);
  if (!part0) GTEST_SKIP() << "does not fit initial federated allocation";
  Partition part = *part0;
  if (!placement_strategy(PlacementKind::kWfd).place_resources(*ts, part))
    GTEST_SKIP();

  SimConfig cfg;
  cfg.horizon = millis(300);
  cfg.execution_scale = c.scale;
  cfg.release_jitter = c.jitter;
  cfg.seed = c.seed * 7 + 1;
  const SimResult res = simulate(*ts, part, cfg);

  EXPECT_EQ(res.lemma1_violations, 0) << "Lemma 1 violated";
  EXPECT_LE(res.max_lower_priority_blockers, 1);
  EXPECT_EQ(res.mutual_exclusion_violations, 0);
  EXPECT_EQ(res.ceiling_violations, 0);
  EXPECT_EQ(res.work_conserving_violations, 0);
  EXPECT_TRUE(res.drained);
  EXPECT_GT(res.global_requests_completed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SimInvariantsTest,
    ::testing::Values(SimPropertyCase{1, 4.0, 1.0, 0},
                      SimPropertyCase{2, 6.0, 1.0, 0},
                      SimPropertyCase{3, 8.0, 1.0, 0},
                      SimPropertyCase{4, 4.0, 0.6, 0},
                      SimPropertyCase{5, 6.0, 0.8, millis(1)},
                      SimPropertyCase{6, 8.0, 1.0, millis(3)},
                      SimPropertyCase{7, 10.0, 1.0, 0},
                      SimPropertyCase{8, 5.0, 0.5, millis(2)}));

// ---------- analysis bound covers observed response ------------------------------

class BoundCoversSimTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundCoversSimTest, ObservedResponseWithinAnalysedWcrt) {
  Rng rng(2000 + GetParam());
  GenParams params;
  params.scenario.m = 16;
  params.total_utilization = 5.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  const PartitionOutcome outcome = ep.test(*ts, 16);
  if (!outcome.schedulable) GTEST_SKIP() << "unschedulable sample";

  for (const Time jitter : {Time{0}, millis(2)}) {
    SimConfig cfg;
    cfg.horizon = millis(500);
    cfg.release_jitter = jitter;
    cfg.seed = 11 + static_cast<std::uint64_t>(GetParam());
    const SimResult res = simulate(*ts, outcome.partition, cfg);
    EXPECT_TRUE(res.all_invariants_hold());
    EXPECT_EQ(res.total_deadline_misses(), 0)
        << "schedulable set missed a deadline in simulation";
    for (int i = 0; i < ts->size(); ++i)
      EXPECT_LE(res.task[i].max_response, outcome.wcrt[i])
          << "task " << i << " exceeded its analysed WCRT";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundCoversSimTest, ::testing::Range(0, 10));

// ---------- misc simulator behaviour ---------------------------------------------

TEST(Simulator, OverloadedClusterMissesDeadlines) {
  // A heavy task squeezed onto one processor must miss deadlines.
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  for (int i = 0; i < 4; ++i) t.add_vertex(40);
  ts.assign_rm_priorities();
  ts.finalize();  // C=160 > D=100
  Partition part(1, 1, 0);
  part.add_processor_to_task(0, 0);
  SimConfig cfg;
  cfg.horizon = 99;
  const SimResult res = simulate(ts, part, cfg);
  EXPECT_GT(res.total_deadline_misses(), 0);
}

TEST(Simulator, PeriodicReleasesMatchHorizon) {
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  t.add_vertex(10);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(1, 1, 0);
  part.add_processor_to_task(0, 0);
  SimConfig cfg;
  cfg.horizon = 1000;
  const SimResult res = simulate(ts, part, cfg);
  EXPECT_EQ(res.task[0].jobs_released, 11);  // t = 0, 100, ..., 1000
  EXPECT_EQ(res.task[0].jobs_completed, 11);
  EXPECT_EQ(res.task[0].max_response, 10);
  EXPECT_DOUBLE_EQ(res.task[0].avg_response, 10.0);
}

TEST(Simulator, SporadicJitterDelaysReleases) {
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  t.add_vertex(10);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(1, 1, 0);
  part.add_processor_to_task(0, 0);
  SimConfig cfg;
  cfg.horizon = 1000;
  cfg.release_jitter = 50;
  cfg.seed = 9;
  const SimResult res = simulate(ts, part, cfg);
  EXPECT_LT(res.task[0].jobs_released, 11);  // jitter stretches arrivals
  EXPECT_GE(res.task[0].jobs_released, 7);
}

TEST(Simulator, TwoTasksContendOnGlobalFifoWithinPriority) {
  // Three same-priority-level requests cannot exist (priorities unique);
  // verify priority order instead: the higher-priority task's request,
  // arriving while a lower-priority agent runs, is served next.
  TaskSet ts(1);
  DagTask& hi = ts.add_task(100, 100);   // higher RM priority
  hi.add_vertex(6, {1});
  hi.set_cs_length(0, 4);
  DagTask& lo = ts.add_task(200, 200);
  lo.add_vertex(10, {2});
  lo.set_cs_length(0, 5);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(3, 2, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 1);
  part.assign_resource(0, 2);  // dedicated synchronization processor
  SimConfig cfg;
  cfg.horizon = 99;
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(ts, part, cfg, &trace);
  EXPECT_TRUE(res.all_invariants_hold());
  EXPECT_EQ(res.global_requests_completed, 3);
  // hi's request (arrives t=1, lo's first CS started at t=0) must be
  // granted before lo's *second* request executes.
  Time hi_done = -1, lo_second_start = -1;
  int lo_agent_runs = 0;
  for (const auto& e : trace) {
    if (e.kind == TraceKind::kAgentComplete && e.task == 0) hi_done = e.time;
    if (e.kind == TraceKind::kAgentDispatch && e.task == 1 &&
        ++lo_agent_runs == 2)
      lo_second_start = e.time;
  }
  ASSERT_GE(hi_done, 0);
  ASSERT_GE(lo_second_start, 0);
  EXPECT_LE(hi_done, lo_second_start);
}

TEST(Simulator, TraceRendering) {
  Fig1 f;
  SimConfig cfg;
  cfg.horizon = 19;
  std::vector<TraceEvent> trace;
  simulate(f.ts, f.part, cfg, &trace);
  const std::string text = trace_to_string(trace);
  EXPECT_NE(text.find("grant"), std::string::npos);
  EXPECT_NE(text.find("agent-done"), std::string::npos);
  EXPECT_NE(text.find("local-lock"), std::string::npos);
}

TEST(Simulator, EmptyTaskSetDrainsImmediately) {
  TaskSet ts(0);
  ts.finalize();
  Partition part(1, 0, 0);
  const SimResult res = simulate(ts, part);
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.end_time, 0);
  EXPECT_EQ(res.events_processed, 0);
  EXPECT_EQ(res.total_deadline_misses(), 0);
}

TEST(Simulator, ResumedAgentCountsOnceAsLowerPriorityBlocker) {
  // tau_L's agent holds l_0 on sync processor 2 from t=0; tau_H requests
  // l_0 at t=2 and is blocked by it.  tau_X's request to l_1 (t=4) clears
  // the ceiling and preempts the agent, which resumes at t=7: the same
  // lower-priority request blocks tau_H twice and must count once.
  TaskSet ts(2);
  DagTask& x = ts.add_task(50, 50);
  x.add_vertex(11, {0, 1});  // [4][CS l_1 3][4]
  x.set_cs_length(1, 3);
  DagTask& h = ts.add_task(100, 100);
  h.add_vertex(6, {1, 0});  // [2][CS l_0 2][2]
  h.set_cs_length(0, 2);
  DagTask& l = ts.add_task(200, 200);
  l.add_vertex(10, {1, 0});  // CS l_0 10 from t=0
  l.add_vertex(1, {0, 1});   // afterwards: makes l_1 global
  l.add_edge(0, 1);
  l.set_cs_length(0, 10);
  l.set_cs_length(1, 1);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(4, 3, 2);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 3);
  part.add_processor_to_task(2, 1);
  part.assign_resource(0, 2);
  part.assign_resource(1, 2);

  SimConfig cfg;
  cfg.horizon = 49;
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(ts, part, cfg, &trace);
  int agent_runs = 0;
  for (const TraceEvent& e : trace)
    if (e.kind == TraceKind::kAgentDispatch && e.task == 2 && e.resource == 0)
      ++agent_runs;
  ASSERT_EQ(agent_runs, 2) << trace_to_string(trace);
  EXPECT_EQ(find_event(trace, TraceKind::kAgentPreempt, 2, 0), 4);
  EXPECT_EQ(find_event(trace, TraceKind::kRequestGrant, 1, 0), 13);
  EXPECT_EQ(res.max_lower_priority_blockers, 1);
  EXPECT_TRUE(res.all_invariants_hold());
  EXPECT_TRUE(res.drained);
}

TEST(Simulator, RejectsPartitionsItCannotRun) {
  // Two tasks sharing global resource 0, on processors 0 and 1.
  TaskSet ts(1);
  for (int i = 0; i < 2; ++i) {
    DagTask& t = ts.add_task(100, 100);
    t.add_vertex(5, {1});
    t.set_cs_length(0, 2);
  }
  ts.assign_rm_priorities();
  ts.finalize();
  auto placed = [] {
    Partition part(2, 2, 1);
    part.add_processor_to_task(0, 0);
    part.add_processor_to_task(1, 1);
    part.assign_resource(0, 1);
    return part;
  };
  auto rejects = [&](const Partition& part, SimProtocol protocol,
                     const std::string& expected) {
    SimConfig cfg;
    cfg.protocol = protocol;
    try {
      simulate(ts, part, cfg);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
      return;
    }
    ADD_FAILURE() << "accepted; expected: " << expected;
  };

  Partition three_tasks(2, 3, 1);
  rejects(three_tasks, SimProtocol::kSpinFifo, "3 task clusters");
  Partition two_resources(2, 2, 2);
  rejects(two_resources, SimProtocol::kSpinFifo, "2 resources");
  Partition empty_cluster(2, 2, 1);
  empty_cluster.add_processor_to_task(0, 0);
  empty_cluster.assign_resource(0, 0);
  rejects(empty_cluster, SimProtocol::kDpcpP, "task 1 has an empty cluster");
  Partition out_of_range = placed();
  out_of_range.set_cluster(1, {2});
  rejects(out_of_range, SimProtocol::kDpcpP, "processor 2 outside 0..1");
  Partition unplaced = placed();
  unplaced.clear_resource_assignment();
  rejects(unplaced, SimProtocol::kDpcpP, "global resource 0 is not placed");

  // FIFO spin locks execute every request locally: placement is ignored.
  SimConfig one_job;
  one_job.horizon = 99;
  EXPECT_TRUE(simulate(ts, placed(), one_job).drained);
  one_job.protocol = SimProtocol::kSpinFifo;
  EXPECT_TRUE(simulate(ts, unplaced, one_job).drained);
}

TEST(Simulator, ScaledAwaySegmentsStayObservable) {
  // An extreme execution scale rounds every non-critical segment to zero
  // length; build_plan() then keeps each vertex observable via a 1 ns
  // placeholder, so the schedule is tiny but nonzero.
  TaskSet ts(0);
  DagTask& t = ts.add_task(millis(1), millis(1));
  t.add_vertex(micros(10));
  t.add_vertex(micros(10));
  t.add_edge(0, 1);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(1, 1, 0);
  part.add_processor_to_task(0, 0);
  SimConfig cfg;
  cfg.horizon = millis(1) - 1;
  cfg.execution_scale = 1e-9;
  const SimResult res = simulate(ts, part, cfg);
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.task[0].max_response, 2);  // two chained 1 ns placeholders
}

// ---------- progress guard -------------------------------------------------------

/// A deliberately broken "oracle" partition: a task with C = 160 > D = 100
/// crammed onto one processor accumulates backlog forever and, with a long
/// horizon, generates events far beyond any small max_events budget.
struct BrokenOracleFixture {
  TaskSet ts{0};
  Partition part{1, 1, 0};
  BrokenOracleFixture() {
    DagTask& t = ts.add_task(100, 100);
    for (int i = 0; i < 4; ++i) t.add_vertex(40);
    ts.assign_rm_priorities();
    ts.finalize();
    part.add_processor_to_task(0, 0);
  }
};

TEST(Simulator, ProgressGuardThrows) {
  BrokenOracleFixture f;
  SimConfig cfg;
  cfg.horizon = millis(10);
  cfg.hard_stop = kTimeInfinity;  // the guard, not the clock, must fire
  cfg.max_events = 50;
  try {
    simulate(f.ts, f.part, cfg);
    FAIL() << "progress guard did not fire";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("progress guard"), std::string::npos) << what;
    EXPECT_NE(what.find("50"), std::string::npos) << what;
  }
}

TEST(Simulator, ProgressGuardDisabledByZeroRunsToCompletion) {
  BrokenOracleFixture f;
  SimConfig cfg;
  cfg.horizon = 99;
  cfg.max_events = 0;
  const SimResult res = simulate(f.ts, f.part, cfg);
  EXPECT_GT(res.total_deadline_misses(), 0);  // still a broken oracle
  EXPECT_GT(res.events_processed, 0);
}

}  // namespace
}  // namespace dpcp
