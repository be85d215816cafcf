// Tests for the FIFO spin-lock runtime protocol (SimProtocol::kSpinFifo):
// busy-waiting occupies processors, FIFO handoff, local execution of all
// critical sections, and runtime comparison against DPCP-p.
#include <gtest/gtest.h>

#include "analysis/dpcp_p.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "sim/simulator.hpp"

namespace dpcp {
namespace {

/// Two single-vertex tasks contending on one resource, one processor each.
struct SpinFixture {
  TaskSet ts{1};
  Partition part{2, 2, 1};

  SpinFixture(Time cs_a, Time cs_b) {
    DagTask& a = ts.add_task(100, 100);
    a.add_vertex(cs_a + 2, {1});  // noncrit 2 + one CS
    a.set_cs_length(0, cs_a);
    DagTask& b = ts.add_task(200, 200);
    b.add_vertex(cs_b, {1});  // pure CS
    b.set_cs_length(0, cs_b);
    ts.assign_rm_priorities();
    ts.finalize();
    part.add_processor_to_task(0, 0);
    part.add_processor_to_task(1, 1);
    // No resource placement: spin executes locally.
  }
};

TEST(SpinSim, ContendedLockSpinsThenRuns) {
  SpinFixture f(4, 10);
  SimConfig cfg;
  cfg.protocol = SimProtocol::kSpinFifo;
  cfg.horizon = 99;
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(f.ts, f.part, cfg, &trace);
  // tau_1 locks at t=0 (pure CS, 10 units).  tau_0 executes noncrit [0,1],
  // requests at 1 (plan puts half the noncrit before the CS), spins until
  // 10, runs CS [10,14], finishes its remaining noncrit by 15.
  EXPECT_EQ(res.task[1].max_response, 10);
  EXPECT_EQ(res.task[0].max_response, 15);
  EXPECT_EQ(res.mutual_exclusion_violations, 0);
  EXPECT_EQ(res.work_conserving_violations, 0);
  EXPECT_TRUE(res.drained);
  // No agents under spin locks.
  EXPECT_EQ(res.global_requests_issued, 0);
}

TEST(SpinSim, FifoOrderAmongWaiters) {
  // Three tasks on three processors, one resource; the two waiters must be
  // served in arrival order regardless of priority.
  TaskSet ts(1);
  DagTask& a = ts.add_task(300, 300);  // arrives at the lock first (t=0)
  a.add_vertex(10, {1});
  a.set_cs_length(0, 10);
  DagTask& b = ts.add_task(400, 400);  // requests at t=1
  b.add_vertex(12, {1});
  b.set_cs_length(0, 10);
  DagTask& c = ts.add_task(100, 100);  // highest priority, requests at t=2
  c.add_vertex(14, {1});
  c.set_cs_length(0, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(3, 3, 1);
  for (int i = 0; i < 3; ++i) part.add_processor_to_task(i, i);

  SimConfig cfg;
  cfg.protocol = SimProtocol::kSpinFifo;
  cfg.horizon = 99;
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(ts, part, cfg, &trace);
  EXPECT_TRUE(res.mutual_exclusion_violations == 0);
  // b's plan: noncrit 1 + CS at t=1; c's: noncrit 2 + CS at t=2.
  // FIFO: a [0,10], b [10,20], c [20,30] -- even though c outranks b.
  Time b_lock = -1, c_lock = -1;
  for (const auto& e : trace) {
    if (e.kind != TraceKind::kLocalLock) continue;
    if (e.task == 1) b_lock = e.time;
    if (e.task == 2) c_lock = e.time;
  }
  EXPECT_EQ(b_lock, 10);
  EXPECT_EQ(c_lock, 20);
}

TEST(SpinSim, SpinningOccupiesTheProcessor) {
  // While a vertex spins, a sibling vertex of the same task cannot use the
  // processor: spinning wastes cluster capacity (the defining cost).
  TaskSet ts(1);
  DagTask& a = ts.add_task(200, 200);
  a.add_vertex(10, {1});  // will spin on the contended lock
  a.add_vertex(10);       // independent non-critical work
  a.set_cs_length(0, 10);
  DagTask& b = ts.add_task(300, 300);
  b.add_vertex(10, {1});  // grabs the lock first (pure CS)
  b.set_cs_length(0, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 2, 1);
  part.add_processor_to_task(0, 0);  // ONE processor for tau_a
  part.add_processor_to_task(1, 1);

  SimConfig cfg;
  cfg.protocol = SimProtocol::kSpinFifo;
  cfg.horizon = 199;
  const SimResult spin_res = simulate(ts, part, cfg);

  // Under DPCP-p the same workload suspends instead of spinning, freeing
  // the processor for the sibling vertex -> strictly better response.
  Partition dpcp_part = part;
  dpcp_part.assign_resource(0, 1);
  SimConfig dpcp_cfg = cfg;
  dpcp_cfg.protocol = SimProtocol::kDpcpP;
  const SimResult dpcp_res = simulate(ts, dpcp_part, dpcp_cfg);

  EXPECT_GT(spin_res.task[0].max_response, dpcp_res.task[0].max_response);
  EXPECT_TRUE(spin_res.drained && dpcp_res.drained);
}

class SpinInvariantsTest : public ::testing::TestWithParam<int> {};

TEST_P(SpinInvariantsTest, RandomWorkloadsRunCleanly) {
  Rng rng(7000 + GetParam());
  GenParams params;
  params.scenario.m = 16;
  params.scenario.p_r = 0.75;
  params.total_utilization = 5.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  auto part = initial_federated_partition(*ts, 16);
  if (!part) GTEST_SKIP();

  SimConfig cfg;
  cfg.protocol = SimProtocol::kSpinFifo;
  cfg.horizon = millis(200);
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  const SimResult res = simulate(*ts, *part, cfg);
  EXPECT_EQ(res.mutual_exclusion_violations, 0);
  EXPECT_EQ(res.work_conserving_violations, 0);
  EXPECT_TRUE(res.drained);
  EXPECT_EQ(res.global_requests_issued, 0);  // no agents under spin
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpinInvariantsTest, ::testing::Range(0, 8));

TEST(SpinSim, SpinAnalysisBoundCoversSpinRuntime) {
  // The SPIN-SON analysis bound must cover responses observed under the
  // spin runtime (both model the same protocol).
  auto spin = make_analysis(AnalysisKind::kSpinSon);
  int checked = 0;
  for (int seed = 0; seed < 12 && checked < 4; ++seed) {
    Rng rng(7500 + seed);
    GenParams params;
    params.scenario.m = 16;
    params.total_utilization = 4.0;
    const auto ts = generate_taskset(rng, params);
    ASSERT_TRUE(ts.has_value());
    const PartitionOutcome out = spin->test(*ts, 16);
    if (!out.schedulable) continue;
    ++checked;
    SimConfig cfg;
    cfg.protocol = SimProtocol::kSpinFifo;
    cfg.horizon = millis(300);
    const SimResult res = simulate(*ts, out.partition, cfg);
    EXPECT_EQ(res.total_deadline_misses(), 0) << "seed " << seed;
    for (int i = 0; i < ts->size(); ++i)
      EXPECT_LE(res.task[i].max_response, out.wcrt[i])
          << "seed " << seed << " task " << i;
  }
  EXPECT_GT(checked, 0) << "no schedulable sample found";
}

}  // namespace
}  // namespace dpcp
