// Tests for the schedulability analyses: hand-computed DPCP-p bounds
// (Lemmas 2-6 / Theorem 1), the EP-dominates-EN property, baseline
// formulas, and cross-analysis consistency on resource-free task sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <tuple>

#include "analysis/dpcp_p.hpp"
#include "analysis/fed_fp.hpp"
#include "analysis/interface.hpp"
#include "analysis/lpp.hpp"
#include "analysis/rta_common.hpp"
#include "analysis/spin_son.hpp"
#include "exp/engine.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "opt/optimizer.hpp"
#include "partition/federated.hpp"
#include "partition/placement.hpp"
#include "test_support.hpp"
#include "util/workers.hpp"

namespace dpcp {
namespace {

// ---------- eta / contention tables ------------------------------------------

TEST(RtaCommon, EtaJobCountBound) {
  // eta(L) = ceil((L + R) / T).
  EXPECT_EQ(eta(0, 50, 100), 1);
  EXPECT_EQ(eta(100, 50, 100), 2);
  EXPECT_EQ(eta(101, 100, 100), 3);
  EXPECT_EQ(eta(-5, 50, 100), 1);  // clamped window
}

/// Two-task fixture with one global resource hosted on the low-priority
/// task's processor; all numbers small enough to verify by hand.
struct HandFixture {
  TaskSet ts{1};
  Partition part{3, 2, 1};
  std::vector<Time> hints;

  HandFixture() {
    // tau_0, high priority (T=D=100): chain v0 (C=10, one request to l_0,
    // CS 2) -> v1 (C=10).  C=20, L*=20.
    DagTask& t0 = ts.add_task(100, 100);
    t0.add_vertex(10, {1});
    t0.add_vertex(10, {0});
    t0.add_edge(0, 1);
    t0.set_cs_length(0, 2);
    // tau_1, low priority (T=D=200): one vertex (C=10, one request, CS 4).
    DagTask& t1 = ts.add_task(200, 200);
    t1.add_vertex(10, {1});
    t1.set_cs_length(0, 4);
    ts.assign_rm_priorities();
    ts.finalize();

    part.add_processor_to_task(0, 0);
    part.add_processor_to_task(1, 1);
    part.assign_resource(0, 1);  // l_0 on tau_1's processor
    hints = {100, 200};          // D_j defaults
  }
};

/// Request records as comparable tuples: (q, slot, N_{i,q}, L_{i,q}).
using RequestRow = std::tuple<ResourceId, std::uint32_t, int, Time>;
std::vector<RequestRow> request_rows(
    const ContentionTables::Request* begin,
    const ContentionTables::Request* end) {
  std::vector<RequestRow> out;
  for (const auto* r = begin; r != end; ++r)
    out.emplace_back(r->q, r->slot, r->max_requests, r->cs_length);
  return out;
}
std::vector<RequestRow> request_rows(
    const std::vector<ContentionTables::Request>& records) {
  return request_rows(records.data(), records.data() + records.size());
}

TEST(RtaCommon, ContentionTablesMatchHandComputation) {
  HandFixture f;
  PlacedGlobals placed;
  placed.build(f.ts, f.part);
  EXPECT_EQ(placed.hosts, std::vector<ProcessorId>{1});
  EXPECT_EQ(placed.slot_of, (std::vector<int>{-1, 0, -1}));
  EXPECT_EQ(placed.users, std::vector<int>{2});
  EXPECT_EQ(placed.ceiling, std::vector<int>{f.ts.task(0).priority()});
  EXPECT_EQ(placed.demand, (std::vector<Time>{2, 4}));  // N x L per task
  ASSERT_EQ(placed.boff, (std::vector<std::uint32_t>{0, 2}));

  // View of tau_0.
  ContentionTables t0;
  t0.fill(f.ts, f.part, placed, 0);
  ASSERT_EQ(t0.procs.size(), 1u);  // only processor 1 hosts a global
  const ContentionTables::Proc& pc0 = t0.procs[0];
  EXPECT_EQ(pc0.proc, 1);
  // tau_0's one request there: l_0 at slot 0, N = 1, L = 2.
  EXPECT_EQ(request_rows(t0.requests.data() + pc0.rbeg,
                         t0.requests.data() + pc0.rend),
            (std::vector<RequestRow>{{0, 0u, 1, 2}}));
  EXPECT_EQ(t0.slot_cs, std::vector<Time>{2});
  EXPECT_EQ(pc0.beta, 4);        // tau_1's CS, ceiling >= pi_0
  EXPECT_EQ(pc0.own_demand, 2);  // 1 x 2
  EXPECT_EQ(pc0.hbeg, pc0.hend);
  ASSERT_EQ(pc0.oend - pc0.obeg, 1u);
  EXPECT_EQ(t0.other.task[pc0.obeg], 1);
  EXPECT_EQ(t0.other.demand[pc0.obeg], 4);
  EXPECT_EQ(t0.other.period[pc0.obeg], 200);
  EXPECT_TRUE(t0.cluster_requests.empty());  // l_0 is not on processor 0
  EXPECT_TRUE(t0.locals.empty());

  // View of tau_1: the higher-priority tau_0 contributes gamma demand.
  ContentionTables t1;
  t1.fill(f.ts, f.part, placed, 1);
  ASSERT_EQ(t1.procs.size(), 1u);
  const ContentionTables::Proc& pc1 = t1.procs[0];
  EXPECT_EQ(pc1.beta, 0);  // nobody below tau_1
  EXPECT_EQ(pc1.own_demand, 4);
  EXPECT_EQ(request_rows(t1.requests.data() + pc1.rbeg,
                         t1.requests.data() + pc1.rend),
            (std::vector<RequestRow>{{0, 0u, 1, 4}}));
  ASSERT_EQ(pc1.hend - pc1.hbeg, 1u);
  EXPECT_EQ(t1.hp.task[pc1.hbeg], 0);
  EXPECT_EQ(t1.hp.demand[pc1.hbeg], 2);
  // l_0 sits in tau_1's own cluster (Phi^p(tau_1)).
  EXPECT_EQ(request_rows(t1.cluster_requests),
            (std::vector<RequestRow>{{0, 0u, 1, 4}}));
  EXPECT_TRUE(t1.locals.empty());
  // gamma over a window of 8 with R_0 hint 100: ceil(108/100)*2 = 4.
  EXPECT_EQ(window_demand(t1.hp.task.data() + pc1.hbeg,
                          t1.hp.demand.data() + pc1.hbeg,
                          t1.hp.period.data() + pc1.hbeg,
                          pc1.hend - pc1.hbeg, {100, 200}, 8),
            4);
}

/// A partition of `ts` over `m` processors shaped like the ones Algorithm
/// 1 builds, drawn from `rng`: each task takes 1-3 dedicated processors
/// or (one in three) joins a shared single-processor slot, and what is
/// left stays spare.  Each resource goes to a random processor or (one in
/// four) stays unplaced, globals included, so fill() sees unplaced
/// globals and placed locals too.
Partition random_partition(const TaskSet& ts, int m, Rng& rng) {
  Partition part(m, ts.size(), ts.num_resources());
  std::vector<ProcessorId> free(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p) free[static_cast<std::size_t>(p)] = p;
  for (std::size_t k = free.size(); k > 1; --k)
    std::swap(free[k - 1], free[rng.index(k)]);
  ProcessorId shared = Partition::kUnassigned;
  for (int i = 0; i < ts.size(); ++i) {
    const std::size_t want = 1 + rng.index(3);
    if (rng.index(3) == 0 || free.size() < want + 2) {
      if (shared == Partition::kUnassigned || rng.index(4) == 0) {
        assert(!free.empty());
        shared = free.back();
        free.pop_back();
      }
      part.add_processor_to_task(i, shared);
      continue;
    }
    for (std::size_t k = 0; k < want; ++k) {
      part.add_processor_to_task(i, free.back());
      free.pop_back();
    }
  }
  for (ResourceId q = 0; q < ts.num_resources(); ++q)
    if (rng.index(4) != 0)
      part.assign_resource(
          q, static_cast<ProcessorId>(rng.index(static_cast<std::size_t>(m))));
  return part;
}

/// Generated task sets with light tasks, over random partitions with
/// shared and spare processors.
std::vector<std::pair<TaskSet, Partition>> generated_partitions() {
  std::vector<std::pair<TaskSet, Partition>> out;
  Rng rng(2025);
  for (const Scenario& scenario : scenario_corners()) {
    GenParams params;
    params.scenario = scenario;
    params.total_utilization = 3.0;
    params.light_tasks = 3;
    for (int sample = 0; sample < 4; ++sample) {
      const std::optional<TaskSet> ts = generate_taskset(rng, params);
      if (!ts) continue;
      const int m = ts->size() * 3 + 4;
      Partition part = random_partition(*ts, m, rng);
      out.emplace_back(*ts, std::move(part));
    }
  }
  return out;
}

// fill() from the per-bind PlacedGlobals against a per-task recount that
// reads only the task set and the partition, the way fill() did before
// the per-bind tables: every processor hosting a placed global, in
// increasing order, with beta, tau_i's own demand and requests there, and
// the hp / other demand lists; then the requested cluster globals, the
// locals and L per slot.
TEST(RtaCommon, FillMatchesPerTaskRecount) {
  const auto cases = generated_partitions();
  ASSERT_GE(cases.size(), 12u);
  std::size_t procs_seen = 0, locals_seen = 0, cluster_seen = 0, beta_seen = 0;
  for (const auto& [ts, part] : cases) {
    PlacedGlobals placed;
    placed.build(ts, part);
    ContentionTables tables;  // reused across tasks, like a rebuild's
    for (int i = 0; i < ts.size(); ++i) {
      tables.fill(ts, part, placed, i);
      const DagTask& ti = ts.task(i);
      const std::vector<ResourceId>& used = ti.used_resources();
      const auto record = [&](ResourceId q) {
        const auto slot = static_cast<std::uint32_t>(
            std::find(used.begin(), used.end(), q) - used.begin());
        return RequestRow{q, slot, ti.usage(q).max_requests,
                          ti.usage(q).cs_length};
      };

      std::size_t k = 0;
      for (ProcessorId p = 0; p < part.num_processors(); ++p) {
        std::vector<ResourceId> globals;
        for (ResourceId q = 0; q < ts.num_resources(); ++q)
          if (ts.is_global(q) && part.processor_of_resource(q) == p)
            globals.push_back(q);
        if (globals.empty()) continue;
        ASSERT_LT(k, tables.procs.size());
        const ContentionTables::Proc& pc = tables.procs[k++];
        EXPECT_EQ(pc.proc, p);
        Time beta = 0, own = 0;
        std::vector<RequestRow> own_requests;
        for (ResourceId q : globals) {
          own += ti.usage(q).demand();
          if (ti.uses(q)) own_requests.push_back(record(q));
          for (int j = 0; j < ts.size(); ++j)
            if (j != i && ts.task(j).uses(q) &&
                ts.task(j).priority() < ti.priority() &&
                ts.ceiling_priority(q) >= ti.priority())
              beta = std::max(beta, ts.task(j).usage(q).cs_length);
        }
        EXPECT_EQ(pc.beta, beta);
        EXPECT_EQ(pc.own_demand, own);
        EXPECT_EQ(request_rows(tables.requests.data() + pc.rbeg,
                               tables.requests.data() + pc.rend),
                  own_requests);
        std::vector<std::tuple<int, Time, Time>> hp, other;
        for (int j = 0; j < ts.size(); ++j) {
          Time demand = 0;
          for (ResourceId q : globals) demand += ts.task(j).usage(q).demand();
          if (j == i || demand == 0) continue;
          other.emplace_back(j, demand, ts.task(j).period());
          if (ts.task(j).priority() > ti.priority())
            hp.emplace_back(j, demand, ts.task(j).period());
        }
        const auto range = [](const DemandSoA& soa, std::uint32_t b,
                              std::uint32_t e) {
          std::vector<std::tuple<int, Time, Time>> rows;
          for (std::uint32_t x = b; x < e; ++x)
            rows.emplace_back(soa.task[x], soa.demand[x], soa.period[x]);
          return rows;
        };
        EXPECT_EQ(range(tables.hp, pc.hbeg, pc.hend), hp);
        EXPECT_EQ(range(tables.other, pc.obeg, pc.oend), other);
        beta_seen += beta > 0;
      }
      EXPECT_EQ(tables.procs.size(), k);
      procs_seen += k;

      std::vector<RequestRow> cluster, locals;
      std::vector<Time> slot_cs;
      const std::vector<ProcessorId>& c = part.cluster(i);
      for (ResourceId q : used) {
        slot_cs.push_back(ti.usage(q).cs_length);
        if (ts.is_local(q)) locals.push_back(record(q));
        if (ts.is_global(q) &&
            std::find(c.begin(), c.end(), part.processor_of_resource(q)) !=
                c.end())
          cluster.push_back(record(q));
      }
      EXPECT_EQ(request_rows(tables.cluster_requests), cluster);
      EXPECT_EQ(request_rows(tables.locals), locals);
      EXPECT_EQ(tables.slot_cs, slot_cs);
      locals_seen += locals.size();
      cluster_seen += cluster.size();
    }
  }
  // The inputs reach every branch: contention processors with blocking,
  // locals, and globals inside the analysed task's own cluster.
  EXPECT_GT(procs_seen, 0u);
  EXPECT_GT(beta_seen, 0u);
  EXPECT_GT(locals_seen, 0u);
  EXPECT_GT(cluster_seen, 0u);
}

// ---------- host index ------------------------------------------------------

/// Opens a PreparedAnalysis's host index and token helpers to the test.
class HostIndexProbe final : public PreparedAnalysis {
 public:
  explicit HostIndexProbe(AnalysisSession& session)
      : PreparedAnalysis(session) {}
  using PreparedAnalysis::hosts;
  using PreparedAnalysis::preemption_demand;
  using PreparedAnalysis::shares_processor;
  std::vector<Time> cohosted(const Partition& part, int i) const {
    std::vector<Time> out;
    append_cohosted(part, i, &out);
    return out;
  }
  std::optional<Time> wcrt(int, const std::vector<Time>&) override {
    return std::nullopt;
  }

 protected:
  void partition_inputs(const Partition& part, int task,
                        std::vector<Time>* out) const override {
    append_cohosted(part, task, out);
  }
  void on_taskset_changed(bool) override {}
};

// The co-hosted tokens as the per-task cluster scan wrote them.
std::vector<Time> cohosted_by_scan(const Partition& part, int i) {
  std::vector<Time> out;
  for (ProcessorId p : part.cluster(i)) {
    const std::size_t count_at = out.size();
    out.push_back(0);
    for (int j = 0; j < part.num_tasks(); ++j) {
      const std::vector<ProcessorId>& c = part.cluster(j);
      if (std::find(c.begin(), c.end(), p) != c.end()) out.push_back(j);
    }
    out[count_at] = static_cast<Time>(out.size() - count_at - 1);
  }
  return out;
}

// The preemption demand as the per-task scan built it: co-hosted
// higher-priority tasks, first occurrence first.
std::vector<std::tuple<int, Time, Time>> preemption_by_scan(
    const TaskSet& ts, const Partition& part, int i) {
  std::vector<std::tuple<int, Time, Time>> out;
  std::vector<char> seen(static_cast<std::size_t>(ts.size()), 0);
  for (ProcessorId p : part.cluster(i))
    for (int j : part.tasks_on_processor(p)) {
      if (j == i || seen[static_cast<std::size_t>(j)]) continue;
      seen[static_cast<std::size_t>(j)] = 1;
      if (ts.task(j).priority() > ts.task(i).priority())
        out.emplace_back(j, ts.task(j).wcet(), ts.task(j).period());
    }
  return out;
}

// The host index bind() builds against the Partition scans it replaces,
// on partitions with shared and spare processors, before and after a
// mid-set departure renumbers the tasks behind it.
TEST(Prepared, HostIndexMatchesPartitionScans) {
  auto cases = generated_partitions();
  ASSERT_GE(cases.size(), 12u);
  std::size_t shared = 0, spare = 0, preempted = 0;
  for (auto& [ts, part] : cases) {
    AnalysisSession session(ts, AllowMutation{});
    HostIndexProbe probe(session);
    const auto check = [&] {
      probe.bind(part);
      for (ProcessorId p = 0; p < part.num_processors(); ++p) {
        const Slab<const int> on_p = probe.hosts(p);
        EXPECT_EQ(std::vector<int>(on_p.begin(), on_p.end()),
                  part.tasks_on_processor(p));
        spare += on_p.empty();
      }
      DemandSoA preempt;
      for (int i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(probe.shares_processor(i), part.task_shares_processor(i));
        EXPECT_EQ(probe.cohosted(part, i), cohosted_by_scan(part, i));
        probe.preemption_demand(i, &preempt);
        std::vector<std::tuple<int, Time, Time>> rows;
        for (std::size_t k = 0; k < preempt.size(); ++k)
          rows.emplace_back(preempt.task[k], preempt.demand[k],
                            preempt.period[k]);
        EXPECT_EQ(rows, preemption_by_scan(ts, part, i));
        shared += part.task_shares_processor(i);
        preempted += !rows.empty();
      }
    };
    check();
    const int victim = ts.size() / 2;
    session.remove_task(victim);
    part.erase_task_slot(victim);
    check();
  }
  EXPECT_GT(shared, 0u);
  EXPECT_GT(spare, 0u);
  EXPECT_GT(preempted, 0u);
}

// ---------- DPCP-p hand-computed bounds ---------------------------------------

TEST(DpcpP, HighPriorityTaskBoundMatchesHand) {
  HandFixture f;
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  // Hand: W = 2 + beta(4) = 6; B = min(eps=4, zeta=eta_1(r)*4) = 4;
  // b = 0; I_intra = 0; I_A = 0 (no global on tau_0's cluster).
  // r = 20 + 4 = 24.
  const auto r = ep.wcrt(f.ts, f.part, 0, f.hints);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 24);
}

TEST(DpcpP, HighPriorityEnvelopeIsLooser) {
  HandFixture f;
  SchedAnalysis en(AnalysisKind::kDpcpPEn);
  // Envelope: b^G gains the off-path demand (N*L = 2): r = 20 + 4 + 2 = 26.
  const auto r = en.wcrt(f.ts, f.part, 0, f.hints);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 26);
}

TEST(DpcpP, LowPriorityTaskPaysAgentInterference) {
  HandFixture f;
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  // Hand: W = 8 (inner fixed point with gamma); eps = gamma(W) = 4;
  // B = min(4, zeta) = 4; l_0 lives on tau_1's own processor, so agent
  // interference I_A = eta_0(r)*2 = 4 at r=18; r = 10 + 4 + 4 = 18.
  const auto r = ep.wcrt(f.ts, f.part, 1, f.hints);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 18);
}

TEST(DpcpP, ResponseHintsTightenTheBound) {
  HandFixture f;
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  // With tau_0's computed bound (24) instead of D_0=100 as hint, tau_1's
  // eta terms cannot grow and the bound must not increase.
  const auto loose = ep.wcrt(f.ts, f.part, 1, {100, 200});
  const auto tight = ep.wcrt(f.ts, f.part, 1, {24, 200});
  ASSERT_TRUE(loose && tight);
  EXPECT_LE(*tight, *loose);
}

TEST(DpcpP, NoResourcesReducesToFederatedBound) {
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  t.add_vertex(30);
  t.add_vertex(30);
  t.add_vertex(30);
  t.add_edge(0, 1);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(4, 1, 0);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);

  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  SchedAnalysis en(AnalysisKind::kDpcpPEn);
  SchedAnalysis fed(AnalysisKind::kFedFp);
  const std::vector<Time> hints{100};
  const Time expected = federated_wcrt_bound(ts.task(0), 2);  // 60+ceil(30/2)
  EXPECT_EQ(ep.wcrt(ts, part, 0, hints), std::optional<Time>(expected));
  EXPECT_EQ(en.wcrt(ts, part, 0, hints), std::optional<Time>(expected));
  EXPECT_EQ(fed.wcrt(ts, part, 0, hints), std::optional<Time>(expected));
}

TEST(DpcpP, DeadlineExceededYieldsNullopt) {
  HandFixture f;
  // Shrink tau_0's deadline below the hand bound of 24.
  TaskSet ts(1);
  DagTask& t0 = ts.add_task(23, 23);
  t0.add_vertex(10, {1});
  t0.add_vertex(10, {0});
  t0.add_edge(0, 1);
  t0.set_cs_length(0, 2);
  DagTask& t1 = ts.add_task(200, 200);
  t1.add_vertex(10, {1});
  t1.set_cs_length(0, 4);
  ts.assign_rm_priorities();
  ts.finalize();
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  EXPECT_FALSE(ep.wcrt(ts, f.part, 0, {23, 200}).has_value());
}

// ---------- EP dominates EN (randomised property) ------------------------------

class EpDominatesEnTest : public ::testing::TestWithParam<int> {};

TEST_P(EpDominatesEnTest, PerTaskBoundNeverWorse) {
  Rng rng(500 + GetParam());
  GenParams params;
  params.scenario.m = 16;
  params.total_utilization = 5.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  auto part0 = initial_federated_partition(*ts, 16);
  ASSERT_TRUE(part0.has_value());
  Partition part = *part0;
  if (!placement_strategy(PlacementKind::kWfd).place_resources(*ts, part))
    GTEST_SKIP();

  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  SchedAnalysis en(AnalysisKind::kDpcpPEn);
  std::vector<Time> hints;
  for (int i = 0; i < ts->size(); ++i)
    hints.push_back(ts->task(i).deadline());

  for (int i = 0; i < ts->size(); ++i) {
    const auto r_en = en.wcrt(*ts, part, i, hints);
    const auto r_ep = ep.wcrt(*ts, part, i, hints);
    if (r_en) {
      ASSERT_TRUE(r_ep.has_value())
          << "EN bounded task " << i << " but EP did not";
      EXPECT_LE(*r_ep, *r_en) << "task " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpDominatesEnTest, ::testing::Range(0, 12));

TEST(DpcpP, EnSchedulableImpliesEpSchedulable) {
  SchedAnalysis ep(AnalysisKind::kDpcpPEp);
  SchedAnalysis en(AnalysisKind::kDpcpPEn);
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(900 + seed);
    GenParams params;
    params.scenario.m = 16;
    params.total_utilization = 6.0;
    const auto ts = generate_taskset(rng, params);
    ASSERT_TRUE(ts.has_value());
    if (en.test(*ts, 16).schedulable) {
      EXPECT_TRUE(ep.test(*ts, 16).schedulable) << "seed " << seed;
    }
  }
}

TEST(DpcpP, PathBudgetFallbackIsEnvelope) {
  // With a 1-path budget EP must fall back to exactly the EN bound.
  HandFixture f;
  AnalysisOptions tiny;
  tiny.max_paths = 1;
  SchedAnalysis ep_tiny(AnalysisKind::kDpcpPEp, tiny);
  SchedAnalysis en(AnalysisKind::kDpcpPEn);
  // tau_0 has one complete path, so cap=1 triggers truncation only if
  // paths > 1; use a diamond task instead.
  TaskSet ts(1);
  DagTask& t = ts.add_task(1000, 1000);
  t.add_vertex(10, {1});
  t.add_vertex(10, {0});
  t.add_vertex(10, {0});
  t.add_vertex(10, {0});
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(1, 3);
  t.add_edge(2, 3);
  t.set_cs_length(0, 2);
  DagTask& other = ts.add_task(2000, 2000);
  other.add_vertex(10, {1});
  other.set_cs_length(0, 3);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(3, 2, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(1, 1);
  part.assign_resource(0, 1);
  const std::vector<Time> hints{1000, 2000};
  EXPECT_EQ(ep_tiny.wcrt(ts, part, 0, hints), en.wcrt(ts, part, 0, hints));
}

// Behaviour pin of the DPCP-p oracle: every EP and EN outcome Algorithm 1
// returns over the 216-scenario grid (1 set per point, seeded as the sweep
// engine seeds them) plus the Fig. 2 scenarios with two light tasks, so the
// shared-processor path runs.  Each outcome folds in its verdict, every
// per-task bound, its round and oracle-call counts, its failure text and
// its partition, so a change to any bound, to the cross-round skip, or to
// the partition queries the oracle tokenizes moves the digest.  The
// sessions' Lemma-2 memo hits and misses and their result-memo hits are
// summed and pinned beside it: a query the result memo answers makes no
// probe, so the probe counts are those of the queries that miss it, and
// a change that makes a probe cheaper must not move any of the three.
// Scenarios run on 4 workers; their texts fold in scenario order.
TEST(DpcpP, BoundsDigestPinnedOverTheGrid) {
  std::vector<std::pair<std::uint64_t, GenParams>> items;
  const std::vector<Scenario> scenarios = all_scenarios();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    GenParams params;
    params.scenario = scenarios[s];
    items.emplace_back(scenario_seed(42, s), params);
  }
  for (const char fig : {'a', 'b', 'c', 'd'}) {
    GenParams params;
    params.scenario = fig2_scenario(fig);
    params.light_tasks = 2;
    items.emplace_back(4200 + static_cast<std::uint64_t>(fig), params);
  }

  std::vector<std::string> texts(items.size());
  std::atomic<bool> shared{false};
  std::atomic<std::uint64_t> memo_hits{0}, memo_misses{0}, result_hits{0};
  std::atomic<std::size_t> next{0};
  run_workers(4, [&] {
    const std::unique_ptr<SchedAnalysis> analyses[] = {
        make_analysis(AnalysisKind::kDpcpPEp),
        make_analysis(AnalysisKind::kDpcpPEn)};
    for (std::size_t k; (k = next.fetch_add(1)) < items.size();) {
      const auto& [seed, base] = items[k];
      const std::vector<double> grid = utilization_grid(base.scenario);
      for (std::size_t point = 0; point < grid.size(); ++point) {
        GenParams params = base;
        params.total_utilization = grid[point];
        Rng rng = Rng(seed).fork(point << 20);
        const auto ts = generate_taskset(rng, params);
        if (!ts) continue;
        AnalysisSession session(*ts);
        for (const auto& analysis : analyses) {
          const PartitionOutcome out =
              analysis->test(session, base.scenario.m);
          std::string& text = texts[k];
          text += out.schedulable ? "1" : "0";
          for (Time w : out.wcrt) text += ' ' + std::to_string(w);
          text += ' ' + std::to_string(out.rounds) + ' ' +
                  std::to_string(out.oracle_calls) + ' ' + out.failure + ' ' +
                  out.partition.to_string() + '\n';
          for (int i = 0; i < ts->size(); ++i)
            if (out.partition.task_shares_processor(i)) shared = true;
        }
        memo_hits += session.stats().memo_hits;
        memo_misses += session.stats().memo_misses;
        result_hits += session.stats().result_hits;
      }
    }
  });
  Fnv1a digest;
  for (const std::string& text : texts) digest.add(text);
  EXPECT_TRUE(shared) << "no light task shared a processor";
  EXPECT_EQ(digest.h, 0xe428223863a728f2ull) << std::hex << digest.h;
  EXPECT_EQ(memo_hits.load(), 18219438u);
  EXPECT_EQ(memo_misses.load(), 622360u);
  EXPECT_EQ(result_hits.load(), 458u);
}

/// Forwards every query to one prepared analysis on a mutable session and
/// counts the answers that differ from an analysis freshly prepared, on
/// an immutable session of its own, for the same task set, partition and
/// hint.  A fresh analysis has an empty result memo, so it computes.
class FreshCheckedOracle final : public WcrtOracle {
 public:
  FreshCheckedOracle(const SchedAnalysis& analysis, AnalysisSession& session)
      : analysis_(analysis),
        session_(session),
        inner_(analysis.prepare(session)) {}

  void bind(const Partition& part) override {
    WcrtOracle::bind(part);
    inner_->bind(part);
  }
  bool task_unchanged(int task) const override {
    return inner_->task_unchanged(task);
  }
  std::optional<Time> wcrt(int task, const std::vector<Time>& hint) override {
    const std::optional<Time> got = inner_->wcrt(task, hint);
    if (!fresh_session_ || fresh_seq_ != session_.mutation_seq()) {
      fresh_session_ = std::make_unique<AnalysisSession>(session_.taskset());
      fresh_seq_ = session_.mutation_seq();
    }
    const std::unique_ptr<PreparedAnalysis> fresh =
        analysis_.prepare(*fresh_session_);
    fresh->bind(partition());
    wrong += got != fresh->wcrt(task, hint);
    ++queries;
    shared += partition().task_shares_processor(task);
    return got;
  }

  std::int64_t queries = 0, wrong = 0, shared = 0;

 private:
  const SchedAnalysis& analysis_;
  AnalysisSession& session_;
  const std::unique_ptr<PreparedAnalysis> inner_;
  std::unique_ptr<AnalysisSession> fresh_session_;  // of the current set
  std::uint64_t fresh_seq_ = 0;
};

// DPCP-p's result memo against fresh analyses: EP and EN on a mutable
// session, driven through Algorithm 1 under every seed strategy and the
// search at its default budget (optimize_partition()) across an append,
// a mid-set removal, and a removal of the last task followed by an
// append that reuses its index, over a heavy-only set and a set whose
// light tasks share processors.  The index reuse is also built by hand:
// every task is queried under one partition, the last task is replaced
// by a copy whose critical sections are one unit long (which leaves its
// memo key as it was), and every task is queried again.  A memo that
// outlived a task-set change, or a key without the hints, answers some
// query with a stale bound.
TEST(DpcpP, ResultMemoMatchesAFreshOracle) {
  std::int64_t queries = 0, wrong = 0, shared = 0, replaced = 0;
  std::uint64_t result_hits = 0;
  Rng gen(3);
  for (const int light : {0, 2}) {
    GenParams params;
    params.scenario = fig2_scenario('a');
    params.scenario.nr_min = params.scenario.nr_max = 6;  // one arity
    params.total_utilization = 0.4 * params.scenario.m;
    params.light_tasks = light;
    std::optional<TaskSet> base, extra;
    while (!base) base = generate_taskset(gen, params);
    while (!extra) extra = generate_taskset(gen, params);
    for (const AnalysisKind kind :
         {AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn}) {
      const std::unique_ptr<SchedAnalysis> analysis = make_analysis(kind);
      TaskSet ts = *base;
      AnalysisSession session(ts, AllowMutation{});
      FreshCheckedOracle oracle(*analysis, session);
      Partition last;
      std::uint64_t searches = 0;
      const auto search = [&] {
        last = optimize_partition(session, params.scenario.m, oracle,
                                  all_placement_kinds(),
                                  Rng(7).fork(searches++))
                   .outcome.partition;
      };
      const auto query_all = [&] {
        oracle.bind(last);
        std::vector<Time> hint;
        for (int i = 0; i < ts.size(); ++i)
          hint.push_back(ts.task(i).deadline());
        std::vector<std::optional<Time>> out;
        for (int i = 0; i < ts.size(); ++i) out.push_back(oracle.wcrt(i, hint));
        return out;
      };

      search();
      session.add_task(extra->task(0));
      search();
      session.remove_task(ts.size() / 2);
      search();
      ASSERT_EQ(last.validate(ts), std::nullopt);
      const std::vector<std::optional<Time>> before = query_all();
      DagTask copy = ts.task(ts.size() - 1);
      for (ResourceId q : copy.used_resources()) copy.set_cs_length(q, 1);
      session.remove_task(ts.size() - 1);
      session.add_task(copy);
      const std::vector<std::optional<Time>> after = query_all();
      replaced += before.back() != after.back();
      search();

      queries += oracle.queries;
      wrong += oracle.wrong;
      shared += oracle.shared;
      result_hits += session.stats().result_hits;
    }
  }
  EXPECT_EQ(wrong, 0) << "of " << queries << " queries";
  EXPECT_GT(result_hits, 0u);
  EXPECT_GT(replaced, 0) << "no replaced task changed its bound";
  EXPECT_GT(shared, 0) << "no query of a task on a shared processor";
}

// Sanitizer builds replace malloc, which mallinfo2() cannot see.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
TEST(DpcpP, ResultMemoMemoryStaysBoundedThroughALongSearch) {
  // A sweep's session never changes its task set, so nothing clears the
  // result memo during a search but its own cap of 2^20 key words.  The
  // first Fig. 2(b) set at U = 0.6m (seed 42) is a unanimous reject, so
  // the search spends its whole budget, and each candidate adds keys:
  // 2,000 evaluations grew the heap by 14 MB with the cap and by 55 MB
  // without it.
  GenParams params;
  params.scenario = fig2_scenario('b');
  params.total_utilization = 0.6 * params.scenario.m;
  Rng rng = Rng(42).fork(0);
  const std::optional<TaskSet> ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  AnalysisSession session(*ts);
  const std::unique_ptr<PreparedAnalysis> oracle =
      make_analysis(AnalysisKind::kDpcpPEp)->prepare(session);
  OptOptions opt;
  opt.max_evals = 2000;
  const std::size_t before = heap_in_use();
  const OptimizeOutcome out =
      optimize_partition(session, params.scenario.m, *oracle,
                         all_placement_kinds(), rng.fork(1), opt);
  const std::size_t after = heap_in_use();
  EXPECT_FALSE(out.seed_schedulable);
  EXPECT_EQ(out.stats.evals, opt.max_evals);
  EXPECT_LT(after, before + (24u << 20))
      << "heap grew by " << (after - before) << " bytes";
}
#endif

// ---------- SPIN-SON ---------------------------------------------------------

TEST(SpinSon, SpinDelayFormula) {
  HandFixture f;
  // tau_0 requesting l_0: one remote contender (tau_1, min(m=1, N=1)=1
  // slot x CS 4) and no intra-task contention (N_0=1).
  EXPECT_EQ(spin_delay(f.ts, f.part, 0, 0), 4);
  // tau_1 requesting l_0: tau_0 contributes min(1, 1) * 2.
  EXPECT_EQ(spin_delay(f.ts, f.part, 1, 0), 2);
}

TEST(SpinSon, WcrtAddsSpinToPath) {
  HandFixture f;
  SchedAnalysis spin(AnalysisKind::kSpinSon);
  // tau_0: L*=20, C=20, m=1, total spin = 1 request x 4 = 4:
  // r = 20 + 4 + ceil((20 - 20)/1) = 24 (joint N^lambda maximum puts all
  // spin on the path, none in the interfering workload).
  EXPECT_EQ(spin.wcrt(f.ts, f.part, 0, f.hints), std::optional<Time>(24));
}

TEST(SpinSon, IntraTaskSpinNeedsSecondProcessor) {
  // One task, two concurrent vertices requesting the same local... the spin
  // model treats every resource uniformly; with m_i = 2 and N = 2 the
  // intra-task term contributes min(1, 1) * L.
  TaskSet ts(1);
  DagTask& t = ts.add_task(1000, 1000);
  t.add_vertex(100, {1});
  t.add_vertex(100, {1});
  t.set_cs_length(0, 10);
  ts.assign_rm_priorities();
  ts.finalize();
  Partition part(2, 1, 1);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);
  EXPECT_EQ(spin_delay(ts, part, 0, 0), 10);
  Partition single(1, 1, 1);
  single.add_processor_to_task(0, 0);
  EXPECT_EQ(spin_delay(ts, single, 0, 0), 0);
}

// ---------- LPP ---------------------------------------------------------------

TEST(Lpp, RequestResponseHand) {
  HandFixture f;
  // tau_0's request: own CS 2 + lower-priority beta 4, no higher tasks.
  EXPECT_EQ(lpp_request_response(f.ts, 0, 0, f.hints),
            std::optional<Time>(6));
  // tau_1's request: own CS 4 + higher-priority eta-window over tau_0:
  // X = 4 + ceil((X+100)/100)*2 -> X = 8.
  EXPECT_EQ(lpp_request_response(f.ts, 1, 0, f.hints),
            std::optional<Time>(8));
}

TEST(Lpp, WcrtHand) {
  HandFixture f;
  SchedAnalysis lpp(AnalysisKind::kLpp);
  // tau_0: L*=20, one request: path wait = X - L = 4 (window cap does not
  // bind: tau_1 releases >= 4 units), intra = 0, interference =
  // ceil((20-20)/1) = 0, plus the half-weight suspension charge
  // ceil(4/2) = 2 -> r = 26.
  EXPECT_EQ(lpp.wcrt(f.ts, f.part, 0, f.hints), std::optional<Time>(26));
  // tau_1: L*=10, wait = 8-4 = 4, suspension charge 2 -> r = 16.
  EXPECT_EQ(lpp.wcrt(f.ts, f.part, 1, f.hints), std::optional<Time>(16));
}

// ---------- FED-FP and the registry -------------------------------------------

TEST(FedFp, IgnoresResources) {
  HandFixture f;
  SchedAnalysis fed(AnalysisKind::kFedFp);
  EXPECT_EQ(fed.wcrt(f.ts, f.part, 0, f.hints), std::optional<Time>(20));
  EXPECT_EQ(fed.wcrt(f.ts, f.part, 1, f.hints), std::optional<Time>(10));
}

TEST(Registry, AllFiveAnalysesConstructible) {
  const auto kinds = all_analysis_kinds();
  ASSERT_EQ(kinds.size(), 5u);
  std::set<std::string> names;
  for (AnalysisKind k : kinds) {
    auto a = make_analysis(k);
    ASSERT_NE(a, nullptr);
    names.insert(a->name());
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_TRUE(names.count("DPCP-p-EP"));
  EXPECT_TRUE(names.count("DPCP-p-EN"));
  EXPECT_TRUE(names.count("SPIN-SON"));
  EXPECT_TRUE(names.count("LPP"));
  EXPECT_TRUE(names.count("FED-FP"));
}

TEST(Registry, PlacementPolicies) {
  EXPECT_EQ(make_analysis(AnalysisKind::kDpcpPEp)->placement(),
            ResourcePlacement::kWfd);
  EXPECT_EQ(make_analysis(AnalysisKind::kDpcpPEn)->placement(),
            ResourcePlacement::kWfd);
  EXPECT_EQ(make_analysis(AnalysisKind::kSpinSon)->placement(),
            ResourcePlacement::kNone);
  EXPECT_EQ(make_analysis(AnalysisKind::kLpp)->placement(),
            ResourcePlacement::kNone);
  EXPECT_EQ(make_analysis(AnalysisKind::kFedFp)->placement(),
            ResourcePlacement::kNone);
}

TEST(Registry, EndToEndTestOnGeneratedSet) {
  Rng rng(42);
  GenParams params;
  params.scenario.m = 16;
  params.total_utilization = 3.0;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  for (AnalysisKind k : all_analysis_kinds()) {
    const auto outcome = make_analysis(k)->test(*ts, 16);
    if (outcome.schedulable) {
      for (int i = 0; i < ts->size(); ++i) {
        EXPECT_LE(outcome.wcrt[i], ts->task(i).deadline());
        EXPECT_GE(outcome.wcrt[i], ts->task(i).longest_path_length());
      }
    }
  }
}

// ---------- analysis spec parsing ---------------------------------------------

TEST(AnalysisSpec, ParsesListsAndAliases) {
  EXPECT_EQ(analyses_from_spec("paper"), all_analysis_kinds());
  EXPECT_EQ(analyses_from_spec("locking"),
            (std::vector<AnalysisKind>{
                AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn,
                AnalysisKind::kSpinSon, AnalysisKind::kLpp}));
  EXPECT_EQ(analyses_from_spec("fed,ep"),
            (std::vector<AnalysisKind>{AnalysisKind::kFedFp,
                                       AnalysisKind::kDpcpPEp}));
}

TEST(AnalysisSpec, RepeatedTokensYieldOneColumnEach) {
  // Each analysis appears once, at its first occurrence; an alias expands
  // in place and absorbs analyses already listed.
  EXPECT_EQ(analyses_from_spec("ep,ep"),
            std::vector<AnalysisKind>{AnalysisKind::kDpcpPEp});
  EXPECT_EQ(analyses_from_spec("paper,ep"), all_analysis_kinds());
  EXPECT_EQ(analyses_from_spec("fed,locking,fed"),
            (std::vector<AnalysisKind>{
                AnalysisKind::kFedFp, AnalysisKind::kDpcpPEp,
                AnalysisKind::kDpcpPEn, AnalysisKind::kSpinSon,
                AnalysisKind::kLpp}));
}

TEST(AnalysisSpec, UnknownTokenIsAHardErrorWithAMessage) {
  std::string error;
  EXPECT_FALSE(analyses_from_spec("ep,bogus", &error).has_value());
  EXPECT_EQ(error, "unknown analysis 'bogus'");
  error.clear();
  EXPECT_FALSE(analyses_from_spec("", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace dpcp
