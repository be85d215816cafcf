// Behaviour goldens of the event-clock simulator:
//  * ~200 generated heavy-only task sets across four scenario corners,
//    under both protocols, folded into one FNV-1a digest over every run's
//    full trace (hence per-job response times and lock-acquisition order),
//    per-task statistics and events_processed;
//  * generated mixed sets (2-4 light tasks) on the partitions Algorithm 1
//    returns, which pack light tasks onto shared processors -- P-FP
//    preemption, sequential light tasks and spinning on a shared processor
//    -- folded over traces and every SimResult field, traced and untraced.
// Any change to what the protocol machine does — event order, dispatch
// choice, lock handoff, jitter/scaling draws — moves a digest.  Plus the
// directed PR 3 shared-processor spin regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/dpcp_p.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "partition/placement.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

struct TracedRun {
  SimResult res;
  std::vector<TraceEvent> trace;
};

TracedRun run_traced(const TaskSet& ts, const Partition& part,
                     const SimConfig& cfg) {
  TracedRun out;
  out.res = simulate(ts, part, cfg, &out.trace);
  return out;
}

/// Folds one run's observables into `digest`: the rendered trace, then one
/// line per task, then events_processed.
void add_run(Fnv1a& digest, const TracedRun& run) {
  digest.add(trace_to_string(run.trace));
  char line[160];
  for (const TaskSimStats& t : run.res.task) {
    std::snprintf(line, sizeof line, "%lld %lld %lld %lld %.17g\n",
                  static_cast<long long>(t.jobs_released),
                  static_cast<long long>(t.jobs_completed),
                  static_cast<long long>(t.deadline_misses),
                  static_cast<long long>(t.max_response), t.avg_response);
    digest.add(line);
  }
  digest.add("events " + std::to_string(run.res.events_processed) + "\n");
}

/// Folds every SimResult field into `digest`: one line per task, then the
/// run-wide checker counters, request counts, preemptions and clock.
void add_result(Fnv1a& digest, const SimResult& res) {
  char line[320];
  for (const TaskSimStats& t : res.task) {
    std::snprintf(line, sizeof line, "%lld %lld %lld %lld %.17g\n",
                  static_cast<long long>(t.jobs_released),
                  static_cast<long long>(t.jobs_completed),
                  static_cast<long long>(t.deadline_misses),
                  static_cast<long long>(t.max_response), t.avg_response);
    digest.add(line);
  }
  std::snprintf(
      line, sizeof line,
      "blockers %d lemma1 %lld mutex %lld work %lld ceiling %lld "
      "issued %lld completed %lld preempt %lld events %lld end %lld "
      "drained %d\n",
      res.max_lower_priority_blockers,
      static_cast<long long>(res.lemma1_violations),
      static_cast<long long>(res.mutual_exclusion_violations),
      static_cast<long long>(res.work_conserving_violations),
      static_cast<long long>(res.ceiling_violations),
      static_cast<long long>(res.global_requests_issued),
      static_cast<long long>(res.global_requests_completed),
      static_cast<long long>(res.preemptions),
      static_cast<long long>(res.events_processed),
      static_cast<long long>(res.end_time), res.drained ? 1 : 0);
  digest.add(line);
}

// ---------- property: ~200 generated task sets, both protocols ------------

TEST(SimGolden, TraceDigestOn200GeneratedTaskSets) {
  const auto corners = scenario_corners();
  Fnv1a digest;
  int ran = 0;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    for (int seed = 0; seed < 25; ++seed) {
      Rng rng(40'000 + 1'000 * static_cast<std::uint64_t>(c) +
              static_cast<std::uint64_t>(seed));
      GenParams params;
      params.scenario = corners[c];
      // Spread over the utilization range, including overloaded points
      // where deadline misses and backlogs appear.
      params.total_utilization = (0.25 + 0.07 * (seed % 8)) * corners[c].m;
      const auto ts = generate_taskset(rng, params);
      ASSERT_TRUE(ts.has_value());
      const auto part = initial_federated_partition(*ts, corners[c].m);
      if (!part) continue;  // infeasible corner draw

      SimConfig base;
      base.horizon = millis(20);
      base.hard_stop = millis(400);
      // Exercise the sporadic/scaled configurations on a third of the
      // seeds: jitter and execution scaling reschedule every event time.
      if (seed % 3 == 1) {
        base.release_jitter = micros(500);
        base.execution_scale = 0.6;
        base.seed = 99 + seed;
      }

      // DPCP-p needs a resource placement; skip draws WFD cannot place.
      Partition placed = *part;
      if (placement_strategy(PlacementKind::kWfd)
              .place_resources(*ts, placed)) {
        base.protocol = SimProtocol::kDpcpP;
        add_run(digest, run_traced(*ts, placed, base));
        ++ran;
      }

      // FIFO spin locks run on the unplaced partition (local execution).
      base.protocol = SimProtocol::kSpinFifo;
      add_run(digest, run_traced(*ts, *part, base));
      ++ran;
    }
  }
  // Infeasible draws are skipped, but the pin is weak if too many are:
  // insist most of the 200 configured runs actually executed.
  EXPECT_GE(ran, 150) << "too many infeasible draws; corners need retuning";
  // Recorded before the dense per-quantum clock was removed, when a
  // differential suite held this run set identical across both clocks.
  EXPECT_EQ(digest.h, 0xd00711e622aedf00ull)
      << std::hex << "digest 0x" << digest.h;
}

// ---------- property: light tasks on shared processors, both protocols ----

TEST(SimGolden, ResultDigestOnSharedProcessors) {
  // The heavy-only pin above runs on initial_federated_partition, so no
  // processor is ever shared.  Here 2-4 light tasks ride along and
  // Algorithm 1 (DPCP-p-EP) packs them onto shared processors: P-FP pass 3,
  // sequential light tasks and spinning on a shared processor all run.
  const auto corners = scenario_corners();
  const SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  Fnv1a digest;
  int runs = 0;
  int shared_runs = 0;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    for (int seed = 0; seed < 25; ++seed) {
      Rng rng(60'000 + 1'000 * static_cast<std::uint64_t>(c) +
              static_cast<std::uint64_t>(seed));
      GenParams params;
      params.scenario = corners[c];
      params.light_tasks = 2 + seed % 3;
      params.total_utilization = (0.15 + 0.05 * (seed % 4)) * corners[c].m;
      const auto ts = generate_taskset(rng, params);
      ASSERT_TRUE(ts.has_value());
      const PartitionOutcome outcome = ep.test(*ts, corners[c].m);
      if (!outcome.schedulable) continue;
      const Partition& part = outcome.partition;
      bool shared = false;
      for (ProcessorId p = 0; p < part.num_processors(); ++p)
        shared = shared || part.processor_shared(p);

      SimConfig base;
      base.horizon = millis(50);
      base.hard_stop = millis(1000);
      if (seed % 3 == 1) {
        base.release_jitter = micros(700);
        base.execution_scale = 0.7;
        base.seed = 7 + seed;
      }
      for (const SimProtocol protocol :
           {SimProtocol::kDpcpP, SimProtocol::kSpinFifo}) {
        base.protocol = protocol;
        const TracedRun traced = run_traced(*ts, part, base);
        digest.add(trace_to_string(traced.trace));
        add_result(digest, traced.res);
        add_result(digest, simulate(*ts, part, base));
        ++runs;
        if (shared) ++shared_runs;
      }
    }
  }
  // The pin is vacuous unless many runs really share a processor (48 of
  // 108 when it was recorded).
  EXPECT_GE(shared_runs, 40) << "of " << runs << " runs";
  // Recorded before the simulator's run state was flattened.
  EXPECT_EQ(digest.h, 0xf081159fbecc8dd1ull)
      << std::hex << "digest 0x" << digest.h;
}

// ---------- directed: the PR 3 shared-processor spin deadlock -------------

TEST(SimGolden, SharedProcessorSpinRegression) {
  // The PR 3 deadlock shape: proc 0 is shared by a high-priority spinner
  // (tau_0) and a low-priority task (tau_2); tau_1 on proc 1 is a pure
  // critical section holding the lock from t=0.  tau_0 requests while
  // tau_1 holds, and must spin non-preemptably until the FIFO handoff —
  // under the pre-fix semantics the spinner starved the holder's class
  // forever.  The run must drain cleanly and never preempt a holder.
  TaskSet ts(1);
  DagTask& a = ts.add_task(100, 100);  // high priority, spins
  a.add_vertex(6, {1});                // noncrit 2 + CS 4 + noncrit (plan)
  a.set_cs_length(0, 4);
  DagTask& b = ts.add_task(200, 200);  // pure CS, takes the lock at t=0
  b.add_vertex(10, {1});
  b.set_cs_length(0, 10);
  DagTask& c = ts.add_task(400, 400);  // low priority, shares proc 0
  c.add_vertex(3, {});
  ts.assign_rm_priorities();
  ts.finalize();

  Partition part(2, 3, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 1);
  part.add_processor_to_task(2, 0);  // tau_2 shares proc 0 with tau_0

  SimConfig cfg;
  cfg.protocol = SimProtocol::kSpinFifo;
  cfg.horizon = 99;

  const TracedRun run = run_traced(ts, part, cfg);
  EXPECT_TRUE(run.res.drained);
  EXPECT_EQ(run.res.total_deadline_misses(), 0);
  EXPECT_TRUE(run.res.all_invariants_hold());
  // tau_1 holds [0,10]; tau_0 spins from its request until the handoff,
  // then runs its CS in place — a lock holder is never preempted.
  for (const TraceEvent& e : run.trace) {
    if (e.kind == TraceKind::kVertexPreempt) {
      EXPECT_NE(e.task, 1) << "lock holder preempted at " << e.time;
    }
  }
  EXPECT_EQ(run.res.task[1].max_response, 10);
}

}  // namespace
}  // namespace dpcp
