// Unit tests for the task model: DAG algorithms, task aggregates,
// task-set classification and complete-path signature enumeration.
#include <gtest/gtest.h>

#include <algorithm>

#include "model/dag.hpp"
#include "model/paths.hpp"
#include "model/task.hpp"
#include "model/taskset.hpp"

namespace dpcp {
namespace {

// ---------- Dag -------------------------------------------------------------

Dag make_dag(int n, const std::vector<Edge>& edges) {
  return Dag(n, edges.data(), edges.size());
}

std::vector<VertexId> ids(Slab<const VertexId> s) {
  return {s.begin(), s.end()};
}

TEST(Dag, EmptyGraph) {
  Dag d;
  EXPECT_EQ(d.size(), 0);
  EXPECT_TRUE(d.is_acyclic());
  EXPECT_TRUE(d.heads().empty());
}

TEST(Dag, AddVertexAndEdges) {
  const Dag d = make_dag(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(ids(d.successors(0)), std::vector<VertexId>{1});
  EXPECT_TRUE(d.successors(2).empty());
  EXPECT_EQ(d.in_degree(0), 0);
  EXPECT_EQ(d.in_degree(2), 1);
  EXPECT_EQ(ids(d.heads()), std::vector<VertexId>{0});
}

TEST(Dag, DuplicateEdgesIgnored) {
  const Dag d = make_dag(2, {{0, 1}, {0, 1}});
  EXPECT_EQ(d.successors(0).size(), 1u);
  EXPECT_EQ(d.in_degree(1), 1);
  // Successors keep edge-list order; a repeat keeps its first position.
  const Dag fan = make_dag(4, {{0, 3}, {0, 1}, {0, 3}, {0, 2}});
  EXPECT_EQ(ids(fan.successors(0)), (std::vector<VertexId>{3, 1, 2}));
  EXPECT_EQ(fan.in_degree(3), 1);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag d = make_dag(5, {{0, 2}, {1, 2}, {2, 3}, {2, 4}});
  const auto order = ids(d.topological_order());
  ASSERT_EQ(order.size(), 5u);
  auto pos = [&](VertexId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(2));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(2), pos(4));
  // Kahn's order: heads in id order, then vertices as they are freed.
  const Dag back = make_dag(4, {{3, 1}, {2, 1}, {1, 0}});
  EXPECT_EQ(ids(back.topological_order()), (std::vector<VertexId>{2, 3, 1, 0}));
}

TEST(Dag, CycleDetection) {
  EXPECT_TRUE(make_dag(3, {{0, 1}, {1, 2}}).is_acyclic());
  const Dag cycle = make_dag(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(cycle.is_acyclic());
  EXPECT_TRUE(cycle.topological_order().empty());
  // A self-loop is a cycle too.  The path algorithms answer 0 on a cyclic
  // graph, so a parsed cycle reaches validation.
  const Dag loop = make_dag(2, {{0, 1}, {1, 1}});
  EXPECT_FALSE(loop.is_acyclic());
  const std::vector<Time> w{1, 1};
  EXPECT_EQ(loop.longest_path_weight({w.data(), w.size()}), 0);
  EXPECT_EQ(loop.count_complete_paths(), 0);
}

TEST(Dag, LongestPathWeight) {
  // Diamond: 0 -> {1,2} -> 3 with weights 2, 3, 4, 2.
  const Dag d = make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const std::vector<Time> w{2, 3, 4, 2};
  EXPECT_EQ(d.longest_path_weight({w.data(), w.size()}), 2 + 4 + 2);
}

TEST(Dag, LongestPathOnDisconnectedVertices) {
  const Dag d = make_dag(3, {});  // no edges: the heaviest vertex
  const std::vector<Time> w{5, 9, 1};
  EXPECT_EQ(d.longest_path_weight({w.data(), w.size()}), 9);
}

TEST(Dag, CountCompletePaths) {
  const Dag diamond = make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(diamond.count_complete_paths(), 2);
  EXPECT_EQ(make_dag(3, {{0, 1}, {1, 2}}).count_complete_paths(), 1);
  EXPECT_EQ(make_dag(3, {}).count_complete_paths(), 3);
}

/// A ladder of `diamonds` diamonds, 2^diamonds complete paths: junction
/// 3k branches to 3k+1 (one request to resource 0) and 3k+2, which meet
/// at junction 3k+3.
DagTask diamond_ladder(int diamonds) {
  DagTask t(0, 1'000'000, 1'000'000, 1);
  t.add_vertex(1);
  for (int k = 0; k < diamonds; ++k) {
    const VertexId j = 3 * k;
    t.add_vertex(2, {1});
    t.add_vertex(1);
    t.add_vertex(1);
    t.add_edge(j, j + 1);
    t.add_edge(j, j + 2);
    t.add_edge(j + 1, j + 3);
    t.add_edge(j + 2, j + 3);
  }
  t.set_cs_length(0, 1);
  t.finalize();
  return t;
}

TEST(Dag, CountCompletePathsSaturatesAtCap) {
  const DagTask ten = diamond_ladder(10);
  EXPECT_EQ(ten.graph().count_complete_paths(), 1 << 10);
  EXPECT_EQ(ten.graph().count_complete_paths(100), 100);
  EXPECT_EQ(ten.graph().count_complete_paths(1 << 10), 1 << 10);

  // 64 diamonds: 193 vertices and 2^64 complete paths.  At cap INT64_MAX
  // the count must saturate without overflowing int64, and the
  // enumeration must report the task truncated.
  const DagTask ladder = diamond_ladder(64);
  ASSERT_EQ(ladder.vertex_count(), 193);
  EXPECT_EQ(ladder.graph().count_complete_paths(INT64_MAX), INT64_MAX);
  EXPECT_EQ(ladder.graph().count_complete_paths(INT64_MAX - 1), INT64_MAX - 1);
  EXPECT_TRUE(enumerate_path_signatures(ladder, INT64_MAX).truncated);

  // 62 diamonds: 2^62 paths fit the budget, so the class-merging DP runs
  // and counts them exactly without walking them: one class per number
  // of requesting branches taken.
  const DagTask below = diamond_ladder(62);
  EXPECT_EQ(below.graph().count_complete_paths(INT64_MAX),
            std::int64_t{1} << 62);
  const auto r = enumerate_path_signatures(below, INT64_MAX);
  ASSERT_FALSE(r.truncated);
  EXPECT_EQ(r.paths_visited, std::int64_t{1} << 62);
  EXPECT_EQ(r.size(), 63u);
  for (const auto& sig : r.signatures())
    EXPECT_EQ(sig.length, 2 * 62 + 1 + sig.requests[0]);
}

// ---------- DagTask ---------------------------------------------------------

DagTask make_fig1_task_gi() {
  // Fig. 1(a) of the paper, task G_i: 8 vertices, L* = 10 via
  // (v1, v5, v7, v8); resource usage is irrelevant here.
  DagTask t(0, 100, 100, 2);
  const Time wcet[] = {2, 3, 2, 2, 4, 2, 2, 2};
  for (Time c : wcet) t.add_vertex(c);
  t.add_edge(0, 1);  // v_{i,1} -> v_{i,2}
  t.add_edge(0, 2);
  t.add_edge(0, 3);
  t.add_edge(0, 4);  // -> v_{i,5}
  t.add_edge(1, 5);
  t.add_edge(2, 5);
  t.add_edge(3, 6);
  t.add_edge(4, 6);  // v_{i,5} -> v_{i,7}
  t.add_edge(5, 7);
  t.add_edge(6, 7);
  t.finalize();
  return t;
}

TEST(DagTask, AggregatesMatchPaperExample) {
  DagTask t = make_fig1_task_gi();
  EXPECT_EQ(t.wcet(), 2 + 3 + 2 + 2 + 4 + 2 + 2 + 2);
  EXPECT_EQ(t.longest_path_length(), 10);  // (v1, v5, v7, v8) in the paper
  EXPECT_EQ(t.vertex_count(), 8);
  // finalize() again is harmless, and a later one also freezes what was
  // added since, behind the edges frozen before.
  t.finalize();
  EXPECT_EQ(t.longest_path_length(), 10);
  t.add_vertex(5);
  t.add_edge(0, 8);
  t.add_edge(7, 8);
  t.finalize();
  EXPECT_EQ(t.longest_path_length(), 15);
  EXPECT_EQ(ids(t.graph().successors(0)),
            (std::vector<VertexId>{1, 2, 3, 4, 8}));
  EXPECT_EQ(t.graph().in_degree(8), 2);
}

TEST(DagTask, RequestAggregation) {
  DagTask t(0, 1000, 1000, 2);
  t.add_vertex(10, {2, 0});
  t.add_vertex(10, {1, 3});
  t.set_cs_length(0, 2);
  t.set_cs_length(1, 1);
  t.finalize();
  EXPECT_EQ(t.usage(0).max_requests, 3);
  EXPECT_EQ(t.usage(1).max_requests, 3);
  EXPECT_TRUE(t.uses(0));
  EXPECT_EQ(t.cs_demand(), 3 * 2 + 3 * 1);
  EXPECT_EQ(t.noncrit_wcet(), 20 - 9);
  EXPECT_EQ(t.vertex_noncrit_wcet(0), 10 - 4);
  EXPECT_EQ(t.vertex_noncrit_wcet(1), 10 - 2 - 3);
  EXPECT_EQ(t.used_resources(), (std::vector<ResourceId>{0, 1}));
}

TEST(DagTask, UtilizationAndValidation) {
  DagTask t(0, 100, 100, 0);
  t.add_vertex(30);
  t.add_vertex(30);
  t.finalize();
  EXPECT_DOUBLE_EQ(t.utilization(), 0.6);
  EXPECT_FALSE(t.validate().has_value());
}

TEST(DagTask, ValidateRejectsCsOverflowingVertex) {
  DagTask t(0, 100, 100, 1);
  t.add_vertex(5, {3});   // 3 requests x 2 = 6 > 5
  t.set_cs_length(0, 2);
  t.finalize();
  const auto err = t.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("critical-section demand"), std::string::npos);
}

TEST(DagTask, ValidateRejectsBadDeadline) {
  DagTask t(0, 100, 150, 0);  // D > T violates the constrained model
  t.add_vertex(5);
  t.finalize();
  EXPECT_TRUE(t.validate().has_value());
}

TEST(DagTask, ValidateRejectsCycle) {
  DagTask t(0, 100, 100, 0);
  t.add_vertex(5);
  t.add_vertex(5);
  t.add_edge(0, 1);
  t.add_edge(1, 0);
  t.finalize();
  const auto err = t.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("cycle"), std::string::npos) << *err;
}

// ---------- TaskSet ---------------------------------------------------------

TaskSet make_two_task_set() {
  TaskSet ts(3);
  DagTask& a = ts.add_task(100, 100);
  a.add_vertex(10, {1, 0, 0});
  a.add_vertex(10, {0, 1, 0});
  a.set_cs_length(0, 2);
  a.set_cs_length(1, 2);
  DagTask& b = ts.add_task(50, 50);
  b.add_vertex(10, {1, 0, 0});
  b.set_cs_length(0, 3);
  ts.assign_rm_priorities();
  ts.finalize();
  return ts;
}

TEST(TaskSet, LocalGlobalClassification) {
  TaskSet ts = make_two_task_set();
  EXPECT_TRUE(ts.is_global(0));   // used by both tasks
  EXPECT_TRUE(ts.is_local(1));    // used by task 0 only
  EXPECT_TRUE(ts.is_local(2));    // unused
  EXPECT_EQ(ts.global_resources(), std::vector<ResourceId>{0});
  EXPECT_EQ(ts.local_resources(), std::vector<ResourceId>{1});
}

TEST(TaskSet, RmPrioritiesShorterPeriodHigher) {
  TaskSet ts = make_two_task_set();
  EXPECT_GT(ts.task(1).priority(), ts.task(0).priority());  // T=50 < T=100
  EXPECT_FALSE(ts.validate().has_value());
}

TEST(TaskSet, ResourceUtilization) {
  TaskSet ts = make_two_task_set();
  // l_0: task0 1x2/100 + task1 1x3/50 = 0.02 + 0.06
  EXPECT_NEAR(ts.resource_utilization(0), 0.08, 1e-12);
  EXPECT_NEAR(ts.resource_utilization(1), 0.02, 1e-12);
}

TEST(TaskSet, CeilingPriority) {
  TaskSet ts = make_two_task_set();
  EXPECT_EQ(ts.ceiling_priority(0), ts.task(1).priority());  // highest user
  EXPECT_EQ(ts.ceiling_priority(1), ts.task(0).priority());
}

TEST(TaskSet, AdoptTaskRewritesId) {
  TaskSet ts(1);
  DagTask t(-1, 100, 100, 1);
  t.add_vertex(10);
  t.finalize();
  const DagTask& adopted = ts.adopt_task(std::move(t));
  EXPECT_EQ(adopted.id(), 0);
  EXPECT_EQ(ts.size(), 1);
}

// ---------- path signatures -------------------------------------------------

TEST(Paths, ChainHasSingleSignature) {
  DagTask t(0, 1000, 1000, 2);
  t.add_vertex(5, {1, 0});
  t.add_vertex(5, {0, 2});
  t.add_vertex(5, {1, 0});
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.set_cs_length(0, 1);
  t.set_cs_length(1, 1);
  t.finalize();
  const auto r = enumerate_path_signatures(t);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.paths_visited, 1);
  const auto sigs = r.signatures();
  EXPECT_EQ(sigs[0].length, 15);
  EXPECT_EQ(r.resource_index, (std::vector<ResourceId>{0, 1}));
  EXPECT_EQ(sigs[0].requests, (std::vector<int>{2, 2}));
  EXPECT_FALSE(r.truncated);
}

TEST(Paths, DiamondDistinguishesRequestVectors) {
  DagTask t(0, 1000, 1000, 1);
  t.add_vertex(5, {0});  // head
  t.add_vertex(7, {1});  // branch A: 1 request
  t.add_vertex(3, {0});  // branch B: no requests
  t.add_vertex(5, {0});  // tail
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  t.set_cs_length(0, 1);
  t.finalize();
  const auto r = enumerate_path_signatures(t);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.paths_visited, 2);
  // Signature with one request has length 17; signature without, 13.
  for (const auto& sig : r.signatures()) {
    if (sig.requests[0] == 1)
      EXPECT_EQ(sig.length, 17);
    else
      EXPECT_EQ(sig.length, 13);
  }
}

TEST(Paths, EqualVectorsMergeKeepingMaxLength) {
  // Two branches, same request vector, different lengths: one class, max L.
  DagTask t(0, 1000, 1000, 1);
  t.add_vertex(5, {1});
  t.add_vertex(7, {0});
  t.add_vertex(3, {0});
  t.add_vertex(5, {0});
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  t.set_cs_length(0, 1);
  t.finalize();
  const auto r = enumerate_path_signatures(t);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.paths_visited, 2);
  const auto sigs = r.signatures();
  EXPECT_EQ(sigs[0].length, 17);
  EXPECT_EQ(sigs[0].requests, std::vector<int>{1});
}

TEST(Paths, TruncationFlagOnPathExplosion) {
  // 12 stacked diamonds: 2^12 = 4096 paths; cap at 100.
  DagTask t(0, 100'000, 100'000, 1);
  const int diamonds = 12;
  int prev_tail = -1;
  for (int k = 0; k < diamonds; ++k) {
    const VertexId head =
        prev_tail >= 0 ? prev_tail : t.add_vertex(1, {0});
    const VertexId a = t.add_vertex(1, {1});  // distinct vectors per branch
    const VertexId b = t.add_vertex(1, {0});
    const VertexId tail = t.add_vertex(1, {0});
    t.add_edge(head, a);
    t.add_edge(head, b);
    t.add_edge(a, tail);
    t.add_edge(b, tail);
    prev_tail = tail;
  }
  t.set_cs_length(0, 1);
  t.finalize();
  const auto r = enumerate_path_signatures(t, 100);
  EXPECT_TRUE(r.truncated);
  EXPECT_LE(r.paths_visited, 100);
  const auto full = enumerate_path_signatures(t, 1 << 20);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.paths_visited, 1 << diamonds);
  // Distinct signatures: one per on-path branch count 0..12.
  EXPECT_EQ(full.size(), static_cast<std::size_t>(diamonds + 1));
}

TEST(Paths, TruncationBoundaryIsExactlyMaxPaths) {
  // Diamond: exactly 2 complete paths.  The budget marks a task truncated
  // iff its path count REACHES max_paths (decided by the saturating
  // count): a budget equal to the path count truncates, one above does
  // not.
  DagTask t(0, 1000, 1000, 1);
  t.add_vertex(5, {1});
  t.add_vertex(7, {0});
  t.add_vertex(3, {1});
  t.add_vertex(5, {0});
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  t.set_cs_length(0, 1);
  t.finalize();

  const auto at_cap = enumerate_path_signatures(t, 2);
  EXPECT_TRUE(at_cap.truncated);

  const auto above_cap = enumerate_path_signatures(t, 3);
  EXPECT_FALSE(above_cap.truncated);
  EXPECT_EQ(above_cap.paths_visited, 2);
  ASSERT_EQ(above_cap.size(), 2u);
  for (const auto& sig : above_cap.signatures()) {
    if (sig.requests[0] == 2)
      EXPECT_EQ(sig.length, 13);  // head + requesting branch (3) + tail
    else
      EXPECT_EQ(sig.length, 17);  // head + long branch (7) + tail
  }
}

TEST(Paths, DiamondSharedAndDistinctSignaturesMixed) {
  // Two stacked diamonds: the first pair of branches shares a signature
  // (merged, max length kept), the second distinguishes request vectors —
  // 1 x 2 = 2 classes from 4 complete paths.
  DagTask t(0, 10'000, 10'000, 2);
  const VertexId h = t.add_vertex(1, {0, 0});
  const VertexId a1 = t.add_vertex(9, {1, 0});
  const VertexId a2 = t.add_vertex(4, {1, 0});  // same vector, shorter
  const VertexId m = t.add_vertex(1, {0, 0});
  const VertexId b1 = t.add_vertex(2, {0, 1});
  const VertexId b2 = t.add_vertex(6, {0, 0});
  const VertexId tl = t.add_vertex(1, {0, 0});
  t.add_edge(h, a1);
  t.add_edge(h, a2);
  t.add_edge(a1, m);
  t.add_edge(a2, m);
  t.add_edge(m, b1);
  t.add_edge(m, b2);
  t.add_edge(b1, tl);
  t.add_edge(b2, tl);
  t.set_cs_length(0, 1);
  t.set_cs_length(1, 1);
  t.finalize();

  const auto r = enumerate_path_signatures(t);
  EXPECT_EQ(r.paths_visited, 4);
  ASSERT_EQ(r.size(), 2u);
  for (const auto& sig : r.signatures()) {
    ASSERT_EQ(sig.requests.size(), 2u);
    EXPECT_EQ(sig.requests[0], 1);  // both classes pass one upper branch
    if (sig.requests[1] == 1)
      EXPECT_EQ(sig.length, 1 + 9 + 1 + 2 + 1);  // via a1 (max) and b1
    else
      EXPECT_EQ(sig.length, 1 + 9 + 1 + 6 + 1);  // via a1 (max) and b2
  }
}

TEST(Paths, WideTasksUseTheGenericEnumerator) {
  // 17 resources take three words of 8-bit lanes, one more than any
  // generated task.
  const int nr = 17;
  DagTask t(0, 10'000, 10'000, nr);
  std::vector<int> head_reqs(nr, 0);
  head_reqs[16] = 3;
  t.add_vertex(5, head_reqs);
  std::vector<int> a_reqs(nr, 0);
  a_reqs[0] = 1;
  t.add_vertex(7, a_reqs);
  t.add_vertex(3);
  t.add_vertex(5);
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  for (ResourceId q = 0; q < nr; ++q) t.set_cs_length(q, 1);
  t.finalize();

  const auto r = enumerate_path_signatures(t);
  EXPECT_EQ(r.paths_visited, 2);
  ASSERT_EQ(r.size(), 2u);
  ASSERT_EQ(r.resource_index, (std::vector<ResourceId>{0, 16}));
  for (const auto& sig : r.signatures()) {
    EXPECT_EQ(sig.requests[1], 3);  // the head's requests are on any path
    EXPECT_EQ(sig.length, sig.requests[0] == 1 ? 17 : 13);
  }
}

TEST(Paths, LargeRequestCountsUseTheGenericEnumerator) {
  // Per-resource counts above 255 take 16-bit lanes.
  DagTask t(0, 100'000, 100'000, 1);
  t.add_vertex(1000, {300});
  t.add_vertex(500, {1});
  t.add_vertex(400, {0});
  t.add_vertex(100, {0});
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  t.set_cs_length(0, 1);
  t.finalize();

  const auto r = enumerate_path_signatures(t);
  EXPECT_EQ(r.paths_visited, 2);
  ASSERT_EQ(r.size(), 2u);
  for (const auto& sig : r.signatures()) {
    if (sig.requests[0] == 301)
      EXPECT_EQ(sig.length, 1600);
    else
      EXPECT_EQ(sig.length, 1500);
  }
}

TEST(Paths, MultiHeadMultiTail) {
  DagTask t(0, 1000, 1000, 0);
  t.add_vertex(2);
  t.add_vertex(3);
  t.add_vertex(4);
  t.add_edge(0, 2);
  t.add_edge(1, 2);
  t.finalize();
  const auto r = enumerate_path_signatures(t);
  EXPECT_EQ(r.paths_visited, 2);  // 0->2 and 1->2
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.signatures()[0].length, 7);  // max(2,3)+4
}

}  // namespace
}  // namespace dpcp
