// Tests for the two-phase analysis pipeline: AnalysisSession caching,
// PreparedAnalysis fingerprint/invalidation machinery, equivalence of the
// prepared path with the historical stateless oracle, and the cross-round
// re-analysis skipping of partition_and_analyze().
#include <gtest/gtest.h>

#include "analysis/dpcp_p.hpp"
#include "analysis/interface.hpp"
#include "analysis/prepared.hpp"
#include "analysis/session.hpp"
#include "gen/taskset_gen.hpp"
#include "partition/federated.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"

namespace dpcp {
namespace {

// ---------- session caches -------------------------------------------------

TEST(Session, PathEnumerationRunsOncePerTask) {
  TaskSet ts(1);
  DagTask& t = ts.add_task(1000, 1000);
  t.add_vertex(5, {1});
  t.add_vertex(5, {0});
  t.add_vertex(5, {0});
  t.add_vertex(5, {0});
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  t.set_cs_length(0, 1);
  ts.assign_rm_priorities();
  ts.finalize();

  AnalysisSession session(ts);
  const PathEnumResult& first = session.paths(0, 1000);
  EXPECT_EQ(&session.paths(0, 1000), &first);  // cached, not recomputed
  EXPECT_EQ(session.path_enumerations(), 1);

  // Another budget enumerates again and replaces the task's one entry.
  session.paths(0, 2000);
  EXPECT_EQ(session.path_enumerations(), 2);
  const PathEnumResult& cached = session.paths(0, 2000);
  EXPECT_EQ(session.path_enumerations(), 2);

  // The entry matches a direct enumeration.
  const PathEnumResult direct = enumerate_path_signatures(ts.task(0), 2000);
  EXPECT_EQ(cached.lengths, direct.lengths);
  EXPECT_EQ(cached.requests, direct.requests);
  EXPECT_EQ(cached.resource_index, direct.resource_index);
  EXPECT_EQ(cached.paths_visited, direct.paths_visited);
  EXPECT_EQ(cached.truncated, direct.truncated);
}

// Sanitizer builds replace malloc, which mallinfo2() cannot see.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
TEST(Session, HeapStaysFlatUnderAddEnumerateRemoveChurn) {
  // A long-lived mutable session must free what a departed task held:
  // each cycle adds a task, enumerates every resident task's paths and
  // removes one task (the middle or the last, so both the renumbering and
  // the fast path run).  Only the added task may enumerate: a survivor's
  // entry follows it when the indices shift.
  Rng rng(11);
  GenParams params;
  params.scenario = fig2_scenario('a');
  params.total_utilization = 0.4 * params.scenario.m;
  const auto pool = generate_taskset(rng, params);
  ASSERT_TRUE(pool.has_value());
  ASSERT_GE(pool->size(), 4);

  TaskSet ts(pool->num_resources());
  AnalysisSession session(ts, AllowMutation{});
  for (int k = 0; k < 3; ++k) session.add_task(pool->task(k));
  session.priority_order();
  std::int64_t added = 3;
  const auto cycle = [&](int c) {
    session.add_task(pool->task(c % pool->size()));
    ++added;
    for (int i = 0; i < ts.size(); ++i) session.paths(i, 200'000);
    session.remove_task(c % 2 == 0 ? 1 : ts.size() - 1);
  };
  for (int c = 0; c < 100; ++c) cycle(c);
  const std::size_t before = heap_in_use();
  for (int c = 0; c < 2000; ++c) cycle(c);
  const std::size_t after = heap_in_use();

  EXPECT_EQ(session.path_enumerations(), added);
  EXPECT_EQ(ts.size(), 3);
  EXPECT_LT(after, before + (64u << 10))
      << "heap grew by " << (after - before) << " bytes";
}
#endif

TEST(Session, PriorityOrderMatchesPartitioner) {
  Rng rng(7);
  GenParams params;
  params.scenario.m = 16;
  params.total_utilization = 4.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  AnalysisSession session(*ts);
  EXPECT_EQ(session.priority_order(), analysis_priority_order(*ts));
}

// Memo probes are counted in every build.  The workload: EP
// queries on fig. 2(b) task sets (p_r = 1), where some tasks re-probe the
// Lemma-2 memo across many path classes and must register hits.
TEST(Session, PreparedEpQueriesCountMemoHits) {
  GenParams params;
  params.scenario = fig2_scenario('b');
  params.total_utilization = 0.2 * params.scenario.m;
  const SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  CacheStats total;
  for (std::uint64_t s = 0; s < 20; ++s) {
    Rng rng = Rng(2024).fork(s);
    const auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    const auto part = baseline_partition(*ts, params.scenario.m);
    if (!part) continue;
    AnalysisSession session(*ts);
    const auto prepared = ep.prepare(session);
    prepared->bind(*part);
    std::vector<Time> hint;
    for (int i = 0; i < ts->size(); ++i)
      hint.push_back(ts->task(i).deadline());
    // Two Algorithm-1 style passes: the second re-queries with the first
    // pass's bounds as hints.
    for (int pass = 0; pass < 2; ++pass)
      for (int i : session.priority_order())
        if (const auto r = prepared->wcrt(i, hint))
          hint[static_cast<std::size_t>(i)] = *r;
    total.memo_hits += session.stats().memo_hits;
    total.memo_misses += session.stats().memo_misses;
  }
  EXPECT_GT(total.memo_hits, 0u);
  EXPECT_GT(total.memo_misses, 0u);
}

// ---------- prepared == stateless ------------------------------------------

// The prepared pipeline (session caches + per-partition tables + cross-
// round skipping) must reproduce the stateless per-call oracle exactly:
// same schedulability, same per-task WCRTs, same rounds, same partition.
class PreparedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PreparedEquivalenceTest, OutcomeIdenticalToStatelessOracle) {
  Rng rng(1300 + GetParam());
  GenParams params;
  params.scenario = fig2_scenario(GetParam() % 2 ? 'a' : 'c');
  params.total_utilization = 0.45 * params.scenario.m;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());

  for (AnalysisKind kind : all_analysis_kinds()) {
    const auto analysis = make_analysis(kind);

    AnalysisSession session(*ts);
    const PartitionOutcome via_prepared =
        analysis->test(session, params.scenario.m);

    // Pre-refactor semantics: a fresh stateless wcrt() per call, no
    // caches, no skipping.
    LambdaOracle stateless(*ts, [&](const TaskSet& t, const Partition& p,
                                    int i, const std::vector<Time>& hint) {
      return analysis->wcrt(t, p, i, hint);
    });
    PartitionOptions options;
    options.placement = analysis->placement();
    const PartitionOutcome via_stateless =
        partition_and_analyze(*ts, params.scenario.m, stateless, options);

    EXPECT_EQ(via_prepared.schedulable, via_stateless.schedulable)
        << analysis->name();
    EXPECT_EQ(via_prepared.wcrt, via_stateless.wcrt) << analysis->name();
    EXPECT_EQ(via_prepared.rounds, via_stateless.rounds) << analysis->name();
    EXPECT_EQ(via_prepared.partition.to_string(),
              via_stateless.partition.to_string())
        << analysis->name();
    // Skipping may only ever reduce the number of oracle queries.
    EXPECT_LE(via_prepared.oracle_calls, via_stateless.oracle_calls)
        << analysis->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedEquivalenceTest,
                         ::testing::Range(0, 8));

// ---------- cross-round skipping -------------------------------------------

/// Scripted oracle over the PreparedAnalysis base: fingerprints only the
/// task's own cluster, passes the high-priority task with a constant
/// bound, and fails the low-priority task until its cluster reaches
/// `needed` processors.  Lets the test observe exactly which tasks the
/// partitioning loop re-queries across rounds.
class ScriptedOracle final : public PreparedAnalysis {
 public:
  ScriptedOracle(AnalysisSession& session, int needed)
      : PreparedAnalysis(session),
        needed_(needed),
        calls_(static_cast<std::size_t>(session.taskset().size()), 0) {}

  std::optional<Time> wcrt(int task, const std::vector<Time>&) override {
    ++calls_[static_cast<std::size_t>(task)];
    if (task == 0)  // the low-priority task in the fixture below
      return partition().cluster_size(task) >= needed_
                 ? std::optional<Time>(1)
                 : std::nullopt;
    return 1;
  }

  int calls(int task) const {
    return calls_[static_cast<std::size_t>(task)];
  }

 protected:
  void partition_inputs(const Partition& part, int task,
                        std::vector<Time>* out) const override {
    append_cluster(part, task, out);
  }

  void on_taskset_changed(bool /*remap*/) override {
    calls_.assign(static_cast<std::size_t>(ts_.size()), 0);
  }

 private:
  int needed_;
  std::vector<int> calls_;
};

TEST(Partitioner, SkipsTasksWithUnchangedInputsAcrossRounds) {
  TaskSet ts(0);
  // Two heavy tasks; task 1 has the shorter period -> higher priority.
  DagTask& a = ts.add_task(30, 30);
  a.add_vertex(10);
  a.add_vertex(10);
  DagTask& b = ts.add_task(15, 15);
  b.add_vertex(4);
  b.add_vertex(4);
  ts.assign_rm_priorities();
  ts.finalize();

  AnalysisSession session(ts);
  ScriptedOracle oracle(session, /*needed=*/3);
  PartitionOptions options;
  options.placement = ResourcePlacement::kNone;
  const PartitionOutcome out = partition_and_analyze(ts, 8, oracle, options);

  ASSERT_TRUE(out.schedulable);
  EXPECT_EQ(out.rounds, 3);  // low task grows 1 -> 2 -> 3 processors
  // The low-priority task's cluster changed every round: re-queried 3x.
  EXPECT_EQ(oracle.calls(0), 3);
  // The high-priority task's cluster never changed and its bound matched
  // the previous round, so rounds 2 and 3 skipped it.
  EXPECT_EQ(oracle.calls(1), 1);
  EXPECT_EQ(out.oracle_calls, 4);
}

TEST(Partitioner, FunctionOracleNeverSkips) {
  // An oracle that never reports task_unchanged() is re-queried for every
  // task every round: the historical call pattern, exactly.
  TaskSet ts(0);
  DagTask& a = ts.add_task(30, 30);
  a.add_vertex(10);
  a.add_vertex(10);
  DagTask& b = ts.add_task(15, 15);
  b.add_vertex(4);
  b.add_vertex(4);
  ts.assign_rm_priorities();
  ts.finalize();

  int calls = 0;
  LambdaOracle oracle(ts, [&](const TaskSet&, const Partition& p, int i,
                              const std::vector<Time>&) -> std::optional<Time> {
    ++calls;
    if (i == 0)
      return p.cluster_size(i) >= 3 ? std::optional<Time>(1) : std::nullopt;
    return 1;
  });
  const PartitionOutcome out =
      partition_and_analyze(ts, 8, oracle, {ResourcePlacement::kNone});
  ASSERT_TRUE(out.schedulable);
  EXPECT_EQ(out.rounds, 3);
  EXPECT_EQ(calls, 6);  // 2 tasks x 3 rounds, no skipping
  EXPECT_EQ(out.oracle_calls, 6);
}

}  // namespace
}  // namespace dpcp
