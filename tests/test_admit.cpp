// Tests for the online admission layer: the mutable AnalysisSession
// contract (mutate-then-analyze must equal a fresh session on the mutated
// set, for every analysis), and the AdmissionController's escalation
// ladder, rollback, retry queue, departures, and soundness (an accepted
// workload must re-certify from scratch and survive a worst-case
// simulation of the certified partition).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <optional>
#include <vector>

#include "analysis/interface.hpp"
#include "analysis/prepared.hpp"
#include "analysis/session.hpp"
#include "exp/online.hpp"
#include "exp/validate.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "io/taskset_io.hpp"
#include "opt/admission.hpp"
#include "opt/snapshot.hpp"
#include "partition/federated.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "test_support.hpp"
#include "util/limits.hpp"
#include "util/rng.hpp"

namespace dpcp {
namespace {

/// Evaluates every task in priority order with the deadline-seeded hint
/// chain the optimizer and the admission controller both use.
std::vector<std::optional<Time>> chain_eval(PreparedAnalysis& oracle,
                                            const TaskSet& ts,
                                            const std::vector<int>& order,
                                            const Partition& part) {
  oracle.bind(part);
  std::vector<Time> hint(static_cast<std::size_t>(ts.size()));
  for (int i = 0; i < ts.size(); ++i)
    hint[static_cast<std::size_t>(i)] = ts.task(i).deadline();
  std::vector<std::optional<Time>> out(static_cast<std::size_t>(ts.size()));
  for (int i : order) {
    const std::size_t ui = static_cast<std::size_t>(i);
    out[ui] = oracle.wcrt(i, hint);
    if (out[ui] && *out[ui] <= ts.task(i).deadline()) hint[ui] = *out[ui];
  }
  return out;
}

/// Same bounds as a brand-new session over the same (mutated) task set.
void expect_equals_fresh(const TaskSet& ts, const Partition& part,
                         AnalysisKind kind,
                         const std::vector<std::optional<Time>>& mutated,
                         const char* where) {
  TaskSet copy = ts;
  AnalysisSession fresh(copy);
  const auto analysis = make_analysis(kind);
  const auto oracle = analysis->prepare(fresh);
  const auto expected = chain_eval(*oracle, copy, fresh.priority_order(), part);
  ASSERT_EQ(mutated.size(), expected.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(mutated[i], expected[i])
        << where << " task " << i << " kind " << static_cast<int>(kind);
}

// ---------- mutate-vs-fresh equality ---------------------------------------

// Remove a task (middle -> remap, last -> fast path), re-analyze, then
// re-add it; after every mutation the incrementally maintained session +
// oracle must reproduce a fresh session bit-for-bit, for all five
// analyses.  40 seeds x 5 kinds = 200 mutated-set comparisons, spread
// over the four fig2 scenario corners.
class MutateVsFreshTest : public ::testing::TestWithParam<int> {};

TEST_P(MutateVsFreshTest, RemoveThenReaddMatchesFreshSession) {
  const int seed = GetParam();
  Rng rng(9100 + seed);
  GenParams params;
  params.scenario = fig2_scenario("abcd"[seed % 4]);
  params.total_utilization = 0.4 * params.scenario.m;
  const auto generated = generate_taskset(rng, params);
  ASSERT_TRUE(generated.has_value());
  const auto base = baseline_partition(*generated, params.scenario.m);
  ASSERT_TRUE(base.has_value());

  for (AnalysisKind kind : all_analysis_kinds()) {
    TaskSet ts = *generated;
    Partition part = *base;
    AnalysisSession session(ts, AllowMutation{});
    const auto analysis = make_analysis(kind);
    const auto oracle = analysis->prepare(session);

    // Warm the caches on the unmutated set (and exercise the no-change
    // rebind diff once).
    chain_eval(*oracle, ts, session.priority_order(), part);
    chain_eval(*oracle, ts, session.priority_order(), part);

    // Remove: middle index on even seeds (remap), last on odd (fast path).
    const int victim = seed % 2 ? ts.size() - 1 : ts.size() / 2;
    DagTask removed = ts.task(victim);
    const std::vector<ProcessorId> cluster = part.cluster(victim);
    session.remove_task(victim);
    part.erase_task_slot(victim);
    const auto after_remove =
        chain_eval(*oracle, ts, session.priority_order(), part);
    expect_equals_fresh(ts, part, kind, after_remove, "after remove");

    // Re-add the same task; it lands at the end with a fresh id.
    const int idx = session.add_task(std::move(removed));
    ASSERT_EQ(idx, ts.size() - 1);
    part.append_task_slot();
    part.set_cluster(idx, cluster);
    const auto after_add =
        chain_eval(*oracle, ts, session.priority_order(), part);
    expect_equals_fresh(ts, part, kind, after_add, "after re-add");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutateVsFreshTest, ::testing::Range(0, 40));

TEST(Session, AddTaskOnImmutableSessionThrows) {
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  t.add_vertex(10);
  ts.assign_rm_priorities();
  ts.finalize();
  AnalysisSession session(ts);
  EXPECT_THROW(session.add_task(DagTask(0, 100, 100, 0)), std::logic_error);
}

// ---------- admission controller -------------------------------------------

/// A heavy task needing ceil((C-L*)/(D-L*)) = `need` dedicated processors:
/// a 10-unit head fanning out to (need+1) parallel 45-unit vertices, so
/// L* = 55, C = 10 + 45*(need+1), and ceil((C-L*)/(D-L*)) = need.  Its
/// federated bound on `need` processors is exactly the deadline.
DagTask heavy_task(int need, int num_resources) {
  DagTask t(0, 100, 100, num_resources);
  t.add_vertex(10);
  for (int k = 0; k <= need; ++k) {
    t.add_vertex(45);
    t.add_edge(0, k + 1);
  }
  t.finalize();
  return t;
}

TEST(Admission, FillPlatformThenRejectAndQueue) {
  AdmitOptions opt;
  opt.m = 4;
  opt.kind = AnalysisKind::kFedFp;
  AdmissionController ctrl(0, opt);

  const AdmitDecision a = ctrl.admit(heavy_task(2, 0));
  const AdmitDecision b = ctrl.admit(heavy_task(2, 0));
  EXPECT_TRUE(a.accepted);
  EXPECT_TRUE(b.accepted);
  EXPECT_EQ(a.rung, AdmitRung::kDelta);
  EXPECT_EQ(a.id, 0);
  EXPECT_EQ(b.id, 1);
  EXPECT_EQ(ctrl.resident(), 2);

  // Platform full: the third arrival fails every rung and parks.
  const AdmitDecision c = ctrl.admit(heavy_task(2, 0));
  EXPECT_FALSE(c.accepted);
  EXPECT_TRUE(c.queued);
  EXPECT_EQ(ctrl.resident(), 2);
  EXPECT_EQ(ctrl.retry_queue_size(), 1u);
  // Rollback restored the incumbent partition.
  EXPECT_FALSE(ctrl.partition().validate(ctrl.taskset()).has_value());

  // A departure frees capacity and the re-admission pass picks it up.
  const DepartOutcome gone = ctrl.depart(0);
  EXPECT_TRUE(gone.found);
  EXPECT_TRUE(gone.was_resident);
  ASSERT_EQ(gone.readmitted.size(), 1u);
  EXPECT_EQ(gone.readmitted[0].id, 2);
  EXPECT_TRUE(gone.readmitted[0].accepted);
  EXPECT_EQ(ctrl.resident(), 2);
  EXPECT_EQ(ctrl.retry_queue_size(), 0u);
  EXPECT_EQ(ctrl.index_of(0), -1);
  EXPECT_GE(ctrl.index_of(2), 0);
  EXPECT_EQ(ctrl.stats().readmits, 1);
  EXPECT_EQ(ctrl.stats().accepted, 3);
  EXPECT_EQ(ctrl.stats().rejected, 1);
}

TEST(Admission, RetryQueueIsBoundedAndDepartsFromQueue) {
  AdmitOptions opt;
  opt.m = 1;
  opt.kind = AnalysisKind::kFedFp;
  opt.retry_capacity = 2;
  AdmissionController ctrl(0, opt);

  // Nothing needing two processors fits on m=1; every arrival queues.
  for (int i = 0; i < 4; ++i) {
    const AdmitDecision d = ctrl.admit(heavy_task(2, 0));
    EXPECT_FALSE(d.accepted);
    EXPECT_TRUE(d.queued);
  }
  EXPECT_EQ(ctrl.retry_queue_size(), 2u);
  EXPECT_EQ(ctrl.stats().retry_evictions, 2);

  // Ids 0 and 1 were evicted; 2 and 3 wait.  Departing a queued id just
  // removes it.
  EXPECT_FALSE(ctrl.depart(0).found);
  const DepartOutcome q = ctrl.depart(3);
  EXPECT_TRUE(q.found);
  EXPECT_FALSE(q.was_resident);
  EXPECT_EQ(ctrl.retry_queue_size(), 1u);
}

TEST(Admission, StructurallyInfeasibleTaskIsNeverQueued) {
  AdmitOptions opt;
  opt.m = 8;
  opt.kind = AnalysisKind::kFedFp;
  AdmissionController ctrl(0, opt);
  DagTask t(0, 100, 50, 0);  // L* = 100 >= D = 50
  t.add_vertex(100);
  t.finalize();
  const AdmitDecision d = ctrl.admit(std::move(t));
  EXPECT_FALSE(d.accepted);
  EXPECT_FALSE(d.queued);
  EXPECT_EQ(ctrl.retry_queue_size(), 0u);
  EXPECT_EQ(ctrl.stats().rejected, 1);
}

/// Single finalized tasks out of generated task sets of one resource
/// arity, so a stream can share one controller.
TaskPool task_pool(const Scenario& scenario, int num_resources,
                   std::uint64_t seed) {
  GenParams refill;
  refill.scenario = scenario;
  refill.scenario.nr_min = refill.scenario.nr_max = num_resources;
  refill.total_utilization = 0.4 * scenario.m;
  return TaskPool(refill, Rng(seed));
}

// Every accept must (a) re-certify on a fresh session over the resident
// set with identical bounds — the controller's incremental state buys
// speed, never different answers — and (b) survive a worst-case
// simulation of the certified partition (zero sim-refuted accepts).
TEST(Admission, AcceptsRecertifyFreshAndSurviveSimulation) {
  const int kNumResources = 6;
  AdmitOptions opt;
  opt.m = fig2_scenario('a').m;
  opt.kind = AnalysisKind::kDpcpPEp;
  opt.repair_evals = 100;
  AdmissionController ctrl(kNumResources, opt);
  TaskPool pool = task_pool(fig2_scenario('a'), kNumResources, 4242);

  Rng sim_rng(777);
  SimBackendOptions sim_opt;
  const auto protocol = sim_protocol_for(opt.kind);
  ASSERT_TRUE(protocol.has_value());

  int accepts = 0;
  Rng stream(31);
  for (int ev = 0; ev < 40; ++ev) {
    const bool depart =
        ctrl.resident() > 2 && stream.canonical() < 0.3;
    if (depart) {
      const int victim = stream.uniform_int(0, ctrl.resident() - 1);
      ASSERT_TRUE(ctrl.depart(ctrl.external_id(victim)).found);
      continue;
    }
    const AdmitDecision d = ctrl.admit(pool.next());
    if (!d.accepted) continue;
    ++accepts;

    // (a) fresh re-certification, identical bounds.
    TaskSet copy = ctrl.taskset();
    AnalysisSession fresh(copy);
    const auto analysis = make_analysis(opt.kind);
    const auto oracle = analysis->prepare(fresh);
    const auto bounds = chain_eval(*oracle, copy, fresh.priority_order(),
                                   ctrl.partition());
    ASSERT_EQ(bounds.size(), ctrl.wcrt().size());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      ASSERT_TRUE(bounds[i].has_value()) << "task " << i;
      EXPECT_LE(*bounds[i], copy.task(static_cast<int>(i)).deadline());
      EXPECT_EQ(*bounds[i], ctrl.wcrt()[i]) << "task " << i;
    }

    // (b) the simulator must not refute the accept.
    PartitionOutcome outcome;
    outcome.schedulable = true;
    outcome.partition = ctrl.partition();
    outcome.wcrt = ctrl.wcrt();
    SimConfig config = sample_sim_config(sim_opt, copy, sim_rng);
    config.protocol = *protocol;
    const CrossCheckResult check = cross_check_accept(
        outcome, simulate(copy, outcome.partition, config));
    EXPECT_FALSE(check.unsound)
        << "event " << ev << " task " << check.worst_task << " observed "
        << check.worst_observed << " bound " << check.worst_bound;
  }
  EXPECT_GE(accepts, 5);  // the stream actually exercised the ladder
}

// Replaying the same event stream twice reproduces every decision and
// counter exactly (the property the server transcript and the online
// driver's thread-count gate build on).
TEST(Admission, ReplayIsDeterministic) {
  const int kNumResources = 4;
  auto run = [&] {
    AdmitOptions opt;
    opt.m = 8;
    opt.kind = AnalysisKind::kDpcpPEn;
    opt.repair_evals = 60;
    AdmissionController ctrl(kNumResources, opt);
    TaskPool pool = task_pool(fig2_scenario('b'), kNumResources, 99);
    std::vector<std::int64_t> trace;
    Rng stream(5);
    for (int ev = 0; ev < 25; ++ev) {
      if (ctrl.resident() > 1 && stream.canonical() < 0.25) {
        const DepartOutcome out =
            ctrl.depart(ctrl.external_id(stream.uniform_int(
                0, ctrl.resident() - 1)));
        trace.push_back(-1 - out.cost);
        continue;
      }
      const AdmitDecision d = ctrl.admit(pool.next());
      trace.push_back(d.accepted ? d.cost : -d.cost);
      trace.push_back(static_cast<std::int64_t>(d.rung));
    }
    trace.push_back(ctrl.stats().oracle_calls);
    trace.push_back(ctrl.stats().tasks_reused);
    trace.push_back(ctrl.stats().accepted);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// Sanitizer builds replace malloc, which mallinfo2() cannot see.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
TEST(Admission, HeapStaysFlatUnderAdmitDepartChurn) {
  // A long-lived controller (one per server session) must not grow with
  // the events it has served: a departed task's analysis state is freed.
  const int kNumResources = 4;
  AdmitOptions opt;
  opt.repair_evals = 0;
  AdmissionController ctrl(kNumResources, opt);
  GenParams params;
  params.scenario = fig2_scenario('a');
  params.scenario.nr_min = params.scenario.nr_max = kNumResources;
  params.total_utilization = 0.2 * params.scenario.m;
  std::vector<DagTask> tasks;
  Rng rng(2026);
  for (std::uint64_t k = 0; tasks.size() < 64; ++k) {
    Rng fork = rng.fork(k);
    if (const auto ts = generate_taskset(fork, params))
      tasks.insert(tasks.end(), ts->tasks().begin(), ts->tasks().end());
  }

  Rng stream(3);
  std::size_t next = 0;
  const auto event = [&] {
    if (ctrl.resident() >= 5 ||
        (ctrl.resident() > 0 && stream.canonical() < 0.5)) {
      const int victim = stream.uniform_int(0, ctrl.resident() - 1);
      ASSERT_TRUE(ctrl.depart(ctrl.external_id(victim)).found);
    } else {
      ctrl.admit(tasks[next++ % tasks.size()]);
    }
  };
  for (int ev = 0; ev < 100; ++ev) event();
  const std::size_t before = heap_in_use();
  for (int ev = 0; ev < 1000; ++ev) event();
  const std::size_t after = heap_in_use();

  EXPECT_GT(ctrl.stats().accepted, 100);  // the stream kept tasks resident
  EXPECT_LT(after, before + (256u << 10))
      << "heap grew by " << (after - before) << " bytes";
}
#endif

// ---------- retry-queue eviction surfacing ---------------------------------

TEST(Admission, EvictionSurfacesTheEvictedId) {
  AdmitOptions opt;
  opt.m = 1;
  opt.kind = AnalysisKind::kFedFp;
  opt.retry_capacity = 1;
  AdmissionController ctrl(0, opt);

  // Nothing needing two processors fits on m=1: the first arrival queues
  // without evicting, the second queues and pushes the first out.
  const AdmitDecision a = ctrl.admit(heavy_task(2, 0));
  EXPECT_TRUE(a.queued);
  EXPECT_EQ(a.evicted_id, -1);
  const AdmitDecision b = ctrl.admit(heavy_task(2, 0));
  EXPECT_TRUE(b.queued);
  EXPECT_EQ(b.evicted_id, 0);
  EXPECT_EQ(ctrl.retry_queue_size(), 1u);
  EXPECT_EQ(ctrl.stats().retry_evictions, 1);
  EXPECT_FALSE(ctrl.depart(0).found);  // the evicted task is really gone
}

// ---------- SLO layer ------------------------------------------------------

TEST(Admission, SloDegradationDisablesRepairDeterministically) {
  const int kNumResources = 4;
  auto run = [&](bool slo) {
    AdmitOptions opt;
    opt.m = 8;
    opt.kind = AnalysisKind::kDpcpPEn;
    opt.repair_evals = 60;
    AdmissionController ctrl(kNumResources, opt);
    if (slo) ctrl.set_slo(50, 0);  // rolling median > 0 calls => degrade
    TaskPool pool = task_pool(fig2_scenario('b'), kNumResources, 99);
    std::vector<std::int64_t> trace;
    Rng stream(5);
    for (int ev = 0; ev < 25; ++ev) {
      if (ctrl.resident() > 1 && stream.canonical() < 0.25) {
        ctrl.depart(ctrl.external_id(static_cast<int>(
            stream.uniform_int(0, ctrl.resident() - 1))));
        continue;
      }
      const AdmitDecision d = ctrl.admit(pool.next());
      trace.push_back(d.accepted ? d.cost : -d.cost);
    }
    trace.push_back(ctrl.stats().degraded_admits);
    trace.push_back(ctrl.stats().oracle_calls);
    EXPECT_EQ(ctrl.cost_histogram().count() > 0, true);
    return trace;
  };
  // Deterministic either way.
  EXPECT_EQ(run(false), run(false));
  EXPECT_EQ(run(true), run(true));
  // With a zero budget every post-warmup admission runs degraded.
  const auto degraded = run(true);
  EXPECT_GT(degraded[degraded.size() - 2], 0);
  // Without an SLO nothing degrades.
  const auto normal = run(false);
  EXPECT_EQ(normal[normal.size() - 2], 0);
}

// ---------- snapshot / restore ---------------------------------------------

// At every fig2 scenario corner: replay a stream, snapshot mid-way,
// round-trip the snapshot through text, restore, then drive the original
// and the restored controller through the same scripted continuation —
// every decision field, the certified bounds, and the lifetime counters
// must match bit-for-bit (the failover contract of docs/architecture.md).
class SnapshotCornerTest : public ::testing::TestWithParam<char> {};

TEST_P(SnapshotCornerTest, RestoreReplaysBitForBit) {
  const Scenario scenario = fig2_scenario(GetParam());
  const int kNumResources = 4;
  AdmitOptions opt;
  opt.m = scenario.m;
  opt.kind = AnalysisKind::kDpcpPEp;
  opt.repair_evals = 40;
  opt.retry_capacity = 4;
  opt.seed = 7;
  AdmissionController original(kNumResources, opt);
  TaskPool pool = task_pool(scenario, kNumResources, 4242);

  // Phase 1: warm the controller (arrivals, departures, maybe a queue).
  Rng stream(11);
  for (int ev = 0; ev < 14; ++ev) {
    if (original.resident() > 2 && stream.canonical() < 0.3) {
      original.depart(original.external_id(static_cast<int>(
          stream.uniform_int(0, original.resident() - 1))));
    } else {
      original.admit(pool.next());
    }
  }
  original.set_slo(99, 2000);

  // Snapshot -> text -> parse -> restore.  The text round-trip is exact.
  const ControllerSnapshot snap = original.snapshot();
  const std::string text = snapshot_to_text(snap);
  std::string error;
  const auto parsed = snapshot_from_text(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(snapshot_to_text(*parsed), text);
  AdmissionController restored(*parsed);

  ASSERT_EQ(restored.resident(), original.resident());
  EXPECT_EQ(restored.retry_queue_size(), original.retry_queue_size());
  EXPECT_EQ(restored.wcrt(), original.wcrt());

  // Phase 2: identical scripted continuation on both sides.
  std::vector<DagTask> arrivals;
  for (int k = 0; k < 10; ++k) arrivals.push_back(pool.next());
  auto drive = [&](AdmissionController& ctrl) {
    std::vector<std::int64_t> trace;
    std::size_t next_arrival = 0;
    for (int ev = 0; ev < 14; ++ev) {
      if (ev % 3 == 2 && ctrl.resident() > 1) {
        // Newest-resident departure: both sides share the same state, so
        // the scripted victim is the same external id on both.
        const DepartOutcome out =
            ctrl.depart(ctrl.external_id(ctrl.resident() - 1));
        trace.push_back(-1000 - out.cost);
        trace.push_back(static_cast<std::int64_t>(out.readmitted.size()));
        continue;
      }
      if (next_arrival >= arrivals.size()) break;
      const AdmitDecision d = ctrl.admit(arrivals[next_arrival++]);
      trace.push_back(d.id);
      trace.push_back(d.accepted ? 1 : 0);
      trace.push_back(static_cast<std::int64_t>(d.rung));
      trace.push_back(d.cost);
      trace.push_back(d.queued ? 1 : 0);
      trace.push_back(d.evicted_id);
    }
    const AdmissionStats& s = ctrl.stats();
    for (std::int64_t v :
         {s.submitted, s.accepted, s.rejected, s.departed, s.delta_accepts,
          s.replace_accepts, s.repair_accepts, s.readmits,
          s.retry_evictions, s.degraded_admits, s.oracle_calls,
          s.tasks_reused})
      trace.push_back(v);
    return trace;
  };
  EXPECT_EQ(drive(original), drive(restored));
  EXPECT_EQ(original.wcrt(), restored.wcrt());
}

INSTANTIATE_TEST_SUITE_P(Corners, SnapshotCornerTest,
                         ::testing::Values('a', 'b', 'c', 'd'));

TEST(Snapshot, RejectsInconsistentState) {
  AdmitOptions opt;
  opt.m = 4;
  opt.kind = AnalysisKind::kFedFp;
  AdmissionController ctrl(0, opt);
  ASSERT_TRUE(ctrl.admit(heavy_task(2, 0)).accepted);
  ControllerSnapshot snap = ctrl.snapshot();

  {
    ControllerSnapshot bad = snap;
    bad.ext_ids.clear();  // arity mismatch with the resident set
    EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  }
  {
    ControllerSnapshot bad = snap;
    bad.next_ext = 0;  // resident id 0 >= next_ext
    EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  }
  {
    ControllerSnapshot bad = snap;
    bad.options.m = 2;  // partition no longer matches the platform
    EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  }
}

TEST(Snapshot, TextParserRejectsTruncation) {
  AdmitOptions opt;
  opt.m = 4;
  opt.kind = AnalysisKind::kFedFp;
  AdmissionController ctrl(0, opt);
  ASSERT_TRUE(ctrl.admit(heavy_task(1, 0)).accepted);
  const std::string text = snapshot_to_text(ctrl.snapshot());
  // Chopping anywhere must fail cleanly, never crash or half-parse.
  for (std::size_t cut : {std::size_t{0}, text.size() / 4, text.size() / 2,
                          text.size() - 2}) {
    std::string error;
    EXPECT_FALSE(snapshot_from_text(text.substr(0, cut), &error).has_value())
        << "cut at " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Snapshot, TextParserRejectsNumbersBeyondTheFieldRange) {
  AdmitOptions opt;
  opt.m = 4;
  opt.kind = AnalysisKind::kFedFp;
  AdmissionController ctrl(0, opt);
  ASSERT_TRUE(ctrl.admit(heavy_task(1, 0)).accepted);
  const std::string text = snapshot_to_text(ctrl.snapshot());
  const auto above = [](std::int64_t bound) {
    return std::to_string(bound + 1);
  };
  // strtoull/strtoll clamped both to the type's maximum, so the restore
  // succeeded with a different seed / path cap than the text said.
  const std::string cases[][4] = {
      {"seed", "42", "99999999999999999999999", "bad 'seed'"},
      {"max-paths", "100000", "9223372036854775808", "bad 'max-paths'"},
      // Both budgets must be at least 1.
      {"max-paths", "100000", "0", "bad 'max-paths'"},
      {"max-signatures", "20000", "0", "bad 'max-signatures'"},
      // depart() always re-admits from the retry queue.
      {"readmit-on-depart", "1", "0", "bad 'readmit-on-depart'"},
      // One past the bound a flag or the task-set parser enforces: the
      // counts sized allocations that died of std::bad_alloc, and the
      // repair budget overflowed the search's proposal cap.
      {"m", "4", above(kMaxProcessors), "bad 'm'"},
      {"repair-evals", "200", above(kMaxRepairEvals), "bad 'repair-evals'"},
      {"processors", "4", above(kMaxProcessors), "expected 'processors"},
      {"tasks", "1", above(kMaxTasksetCells), "expected 'tasks"},
      {"nresources", "0", above(kMaxTasksetResources),
       "expected 'nresources"}};
  for (const auto& [key, value, beyond, message] : cases) {
    const std::string line = "\n" + key + " " + value + "\n";
    std::string mangled = text;
    const auto at = mangled.find(line);
    ASSERT_NE(at, std::string::npos) << line;
    mangled.replace(at, line.size(), "\n" + key + " " + beyond + "\n");
    std::string error;
    EXPECT_FALSE(snapshot_from_text(mangled, &error).has_value()) << beyond;
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
}

// ---------- server protocol fixes ------------------------------------------

std::string serve(const std::string& input, const ServeOptions& options) {
  std::istringstream in(input);
  std::ostringstream out;
  run_server(in, out, options);
  return out.str();
}

const char* kTinyWorkload =
    "load\n"
    "dpcp-taskset v1\n"
    "resources 0\n"
    "task period 10 deadline 10\n"
    "  vertex 1\n"
    "end\n"
    ".\n";

TEST(Server, DepartAcceptsFullInt32RangeAndRejectsOverflow) {
  ServeOptions options;
  options.m = 2;
  options.kind = AnalysisKind::kFedFp;
  // INT32_MIN parses as an id (strict util/parse, not the old
  // negate-after-accumulate loop that overflowed on it) and is then
  // simply unknown.
  const std::string out = serve(
      std::string(kTinyWorkload) + "depart -2147483648\nquit\n", options);
  EXPECT_NE(out.find("error unknown id -2147483648\n"), std::string::npos)
      << out;
  // One past INT32_MAX is not an id at all.
  const std::string over =
      serve(std::string(kTinyWorkload) + "depart 2147483648\nquit\n",
            options);
  EXPECT_NE(over.find("error usage: depart <id>\n"), std::string::npos)
      << over;
}

TEST(Server, PeriodNearInt64MaxKeepsTheBlockingJobInTheBound) {
  // One job of the lower-priority task can block the period-100 task
  // (cs 2), so its bound is 10 + 2 = 12 whatever the blocker's period.
  // The job count ceil(w / T) overflowed int64 at T = INT64_MAX and
  // dropped the blocking term, certifying wcrt=10.
  ServeOptions options;
  options.m = 4;
  const std::string out = serve(
      "load\n"
      "dpcp-taskset v1\n"
      "resources 1\n"
      "task period 9223372036854775807 deadline 100\n"
      "  cs 0 2\n"
      "  vertex 10 requests 0:1\n"
      "end\n"
      "task period 100 deadline 100\n"
      "  cs 0 2\n"
      "  vertex 10 requests 0:1\n"
      "end\n"
      ".\n"
      "query\n"
      "quit\n",
      options);
  EXPECT_NE(out.find("task id=1 period=100 deadline=100 wcrt=12 "),
            std::string::npos)
      << out;
}

TEST(Server, UnterminatedAdmitPayloadBeforeLoadIsAFramingError) {
  ServeOptions options;
  options.kind = AnalysisKind::kFedFp;
  // EOF inside the announced payload block: the framing error wins (the
  // old server read the block, ignored that it was unterminated, and
  // answered 'no workload loaded').
  const std::string out = serve("admit\ndpcp-taskset v1\n", options);
  EXPECT_NE(out.find("error unterminated payload (expected '.')\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("no workload loaded"), std::string::npos) << out;
  // A terminated block before any load still gets the workload error.
  const std::string loaded = serve("admit\nanything\n.\nquit\n", options);
  EXPECT_NE(loaded.find("error no workload loaded (use 'load')\n"),
            std::string::npos)
      << loaded;
}

TEST(Server, EvictionIsNotifiedInline) {
  ServeOptions options;
  options.m = 1;
  options.kind = AnalysisKind::kFedFp;
  options.retry_capacity = 1;
  // heavy_task(2, 0) as taskset text: nothing needing 2 processors fits
  // on m=1, so both arrivals queue and the second evicts the first.
  const char* heavy =
      "dpcp-taskset v1\n"
      "resources 0\n"
      "task period 100 deadline 100\n"
      "  vertex 10\n"
      "  vertex 45\n"
      "  vertex 45\n"
      "  vertex 45\n"
      "  edge 0 1\n"
      "  edge 0 2\n"
      "  edge 0 3\n"
      "end\n"
      ".\n";
  const std::string out = serve(
      "load\ndpcp-taskset v1\nresources 0\n.\n"  // empty workload
      "admit\n" + std::string(heavy) + "admit\n" + std::string(heavy) +
          "stats\nquit\n",
      options);
  EXPECT_NE(out.find("admit id=1 rejected rung=- calls=0 queued=1\n"
                     "evict id=0\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("evictions=1"), std::string::npos) << out;
}

TEST(Server, SnapshotRestoreRoundTripsOverTheWire) {
  ServeOptions options;
  options.m = 2;
  options.kind = AnalysisKind::kFedFp;
  const std::string out =
      serve(std::string(kTinyWorkload) + "snapshot\nquit\n", options);
  const auto begin = out.find("snapshot begin\n");
  ASSERT_NE(begin, std::string::npos) << out;
  const auto payload_start = begin + std::string("snapshot begin\n").size();
  const auto end = out.find("\n.\n", payload_start);
  ASSERT_NE(end, std::string::npos) << out;
  const std::string payload =
      out.substr(payload_start, end + 1 - payload_start);

  const std::string restored =
      serve("restore\n" + payload + ".\nquery\nquit\n", options);
  EXPECT_NE(restored.find("ok restore resident=1 retry=0\n"),
            std::string::npos)
      << restored;
  EXPECT_NE(restored.find("task id=0 period=10 deadline=10"),
            std::string::npos)
      << restored;

  // Garbage payloads and strict mode: in-band error, exit 2.
  ServeOptions strict = options;
  strict.strict = true;
  std::istringstream bad_in("restore\nnot a snapshot\n.\nquit\n");
  std::ostringstream bad_out;
  EXPECT_EQ(run_server(bad_in, bad_out, strict), 2);
  EXPECT_NE(bad_out.str().find("error parse:"), std::string::npos)
      << bad_out.str();
}

TEST(Server, SloCommandValidatesAndReportsCostLine) {
  ServeOptions options;
  options.m = 2;
  options.kind = AnalysisKind::kFedFp;
  const std::string out = serve(
      std::string(kTinyWorkload) + "slo 99 10\nstats\nquit\n", options);
  EXPECT_NE(out.find("ok slo percentile=99 budget=10\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("cost p50="), std::string::npos) << out;

  // Without an SLO the stats reply keeps its original single line.
  const std::string plain =
      serve(std::string(kTinyWorkload) + "stats\nquit\n", options);
  EXPECT_EQ(plain.find("cost p50="), std::string::npos) << plain;

  ServeOptions strict = options;
  strict.strict = true;
  std::istringstream bad_in("slo 101 5\nquit\n");
  std::ostringstream bad_out;
  EXPECT_EQ(run_server(bad_in, bad_out, strict), 2);
}

// A committed transcript or golden under tests/data, line by line.
std::vector<std::string> data_lines(const std::string& name) {
  std::ifstream in(std::string(DPCP_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in.is_open()) << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The commands of a transcript that are `command`, each with its payload
// through the "." line.
std::vector<std::string> payload_commands(
    const std::vector<std::string>& lines, const std::string& command) {
  std::vector<std::string> blocks;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] != command) continue;
    std::string block;
    for (; i < lines.size(); ++i) {
      block += lines[i] + "\n";
      if (lines[i] == ".") break;
    }
    blocks.push_back(block);
  }
  return blocks;
}

// --strict exits 2 on every input limit: each over-limit input, fed alone
// to the server loop, gets the `error parse:` reply its golden holds, and
// reading stops there.
TEST(Server, StrictExitsTwoOnEveryInputLimit) {
  struct Case {
    std::string input, reply;
  };
  std::vector<Case> cases;
  // The committed inputs, paired in order with their goldens' parse
  // errors: the resource count's load, and the five restores past the
  // tasks, nresources, m, processors and repair-evals bounds.
  const std::pair<std::string, std::string> sessions[] = {
      {"resource_cap_session", "load"}, {"restore_bounds_session", "restore"}};
  for (const auto& [session, command] : sessions) {
    const std::vector<std::string> inputs =
        payload_commands(data_lines(session + ".txt"), command);
    std::vector<std::string> replies;
    for (const std::string& line : data_lines(session + ".golden"))
      if (line.rfind("error parse:", 0) == 0) replies.push_back(line);
    ASSERT_EQ(inputs.size(), replies.size()) << session;
    for (std::size_t k = 0; k < inputs.size(); ++k)
      cases.push_back({inputs[k], replies[k]});
  }
  // A load whose tasks x resources passes kMaxTasksetCells at its first
  // task past the cap (payload line 3 + 3 per earlier task).
  const std::int64_t tasks = kMaxTasksetCells / kMaxTasksetResources + 1;
  std::string load = "load\ndpcp-taskset v1\nresources " +
                     std::to_string(kMaxTasksetResources) + "\n";
  for (std::int64_t k = 0; k < tasks; ++k)
    load += "task period 10 deadline 10\nvertex 1\nend\n";
  cases.push_back({load + ".\n",
                   "error parse: line " + std::to_string(3 * tasks) +
                       ": tasks x resources exceeds " +
                       std::to_string(kMaxTasksetCells)});
  ASSERT_EQ(cases.size(), 7u);

  ServeOptions strict;
  strict.strict = true;
  for (const Case& c : cases) {
    std::istringstream in(c.input + "query\nquit\n");
    std::ostringstream out;
    EXPECT_EQ(run_server(in, out, strict), 2) << c.reply;
    EXPECT_EQ(out.str(), c.reply + "\n");
  }
}

// ---------- mux front --------------------------------------------------------

TEST(Router, StrictStopsReadingAtTheFirstFramingError) {
  // The framing error comes out first, reading stops there, and the
  // sessions opened before it still run: session 1 is never created.
  MuxOptions options;
  options.serve.strict = true;
  options.shards = 2;
  std::istringstream in("@0 stats\nbogus line\n@1 quit\n");
  std::ostringstream out;
  EXPECT_EQ(run_mux_server(in, out, options), 2);
  EXPECT_EQ(out.str(),
            "error expected '@<session> <line>', got 'bogus line'\n"
            "@0 error no workload loaded (use 'load')\n");
}

TEST(Router, MuxOutputIsIdenticalAcrossShardAndThreadCounts) {
  const std::string input =
      "@3 load\n"
      "@3 dpcp-taskset v1\n"
      "@0 load\n"
      "@3 resources 0\n"
      "@0 dpcp-taskset v1\n"
      "@3 task period 20 deadline 20\n"
      "@0 resources 0\n"
      "@3   vertex 2\n"
      "@0 task period 10 deadline 10\n"
      "@3 end\n"
      "@0   vertex 1\n"
      "@0 end\n"
      "@3 .\n"
      "@0 .\n"
      "@0 query\n"
      "@3 stats\n"
      "@3 quit\n";
  auto run = [&](int shards, int threads) {
    MuxOptions options;
    options.serve.m = 2;
    options.serve.kind = AnalysisKind::kFedFp;
    options.shards = shards;
    options.threads = threads;
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(run_mux_server(in, out, options), 0);
    return out.str();
  };
  const std::string reference = run(1, 1);
  EXPECT_NE(reference.find("@0 ok load"), std::string::npos) << reference;
  EXPECT_NE(reference.find("@3 ok quit"), std::string::npos) << reference;
  for (int shards : {2, 4, 8})
    for (int threads : {1, 4, 8})
      EXPECT_EQ(run(shards, threads), reference)
          << "shards " << shards << " threads " << threads;
}

// ---------- online replay (exp/online) --------------------------------------

TEST(OnlineReplay, OversizedThreadCountMatchesOneThread) {
  // At most one worker per replay starts, so 1024 threads for two streams
  // neither spawns idle workers nor changes a byte of either report.
  OnlineOptions options;
  options.scenarios = {fig2_scenario('a')};
  options.streams = 2;
  options.events = 10;
  options.admit.repair_evals = 10;
  auto run = [&options](int threads) {
    options.threads = threads;
    const auto results = run_online(options);
    std::ostringstream csv;
    write_online_csv(results, options, csv);
    return csv.str() + merge_online_metrics(results).to_json();
  };
  EXPECT_EQ(run(1024), run(1));
}

TEST(OnlineReplay, MetricsJsonPinned) {
  // The admission service's cost counters -- memo hits and misses, result
  // hits, oracle calls, slab reuse and rebuild counts -- pinned byte for
  // byte, so a change that makes one oracle call cheaper cannot also move
  // how many calls or memo probes an event costs.  A query the result memo
  // answers makes no probe: the probe counts are those of the queries
  // that miss it.
  OnlineOptions options;
  options.scenarios = {fig2_scenario('a')};
  options.streams = 2;
  options.events = 40;
  options.admit.repair_evals = 20;
  const std::string json = merge_online_metrics(run_online(options)).to_json();
  Fnv1a digest;
  digest.add(json);
  EXPECT_EQ(json.size(), 870u) << json;
  EXPECT_EQ(digest.h, 0x5d6af0b8cc8adcfcull) << std::hex << digest.h;
}

}  // namespace
}  // namespace dpcp
