// Tests for the unified telemetry layer (src/obs/): the metrics registry
// contract (add by kind, merge-equals-single-stream determinism, render
// goldens), the IntHistogram / RollingQuantile merge semantics the
// registry builds on, the bounded decision-trace ring, the Chrome
// trace-event exporter (validated by an in-test JSON parser), the
// simulator's trace-memory guard, the AdmissionController's registry
// (pinned against AdmissionStats, including across snapshot/restore),
// and the server's `metrics`/`trace` command grammar.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/decision_trace.hpp"
#include "obs/metrics.hpp"
#include "opt/admission.hpp"
#include "opt/snapshot.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dpcp {
namespace {

// ---------- metrics registry ------------------------------------------------

TEST(MetricsRegistry, AddSumsCountersAndKindsConflict) {
  MetricsRegistry reg;
  reg.add("dpcp_x_total", 1);
  reg.add("dpcp_x_total", 4);
  EXPECT_EQ(reg.counter_value("dpcp_x_total"), 5);
  EXPECT_EQ(reg.counter_value("no_such_counter"), 0);

  reg.add("dpcp_h", IntHistogram{});
  reg.add("dpcp_w", RollingQuantile(4));
  EXPECT_EQ(reg.counter_value("dpcp_h"), 0);  // not a counter
  EXPECT_THROW(reg.add("dpcp_x_total", IntHistogram{}), std::logic_error);
  EXPECT_THROW(reg.add("dpcp_h", 1), std::logic_error);
  EXPECT_THROW(reg.add("dpcp_h", RollingQuantile(4)), std::logic_error);
  EXPECT_EQ(reg.num_metrics(), 3u);
}

TEST(MetricsRegistry, WindowCapacityIsFixedAtFirstRegistration) {
  MetricsRegistry reg;
  RollingQuantile first(2), again(99);
  first.add(1);
  for (int v : {2, 3}) again.add(v);
  reg.add("dpcp_w", first);
  reg.add("dpcp_w", again);  // appended into the first add's 2 slots
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"histograms\":{},\"windows\":{\"dpcp_w\":"
            "{\"count\":2,\"sum\":5,\"p50\":2,\"p90\":3,\"p99\":3,\"max\":3}}}");
}

// Merging per-shard registries in a fixed order must render byte-identically
// to one registry that saw the whole stream — the property that makes the
// sharded `metrics` output thread-count independent.
TEST(MetricsRegistry, MergeEqualsSingleStream) {
  // `single` adds every event on its own; a shard adds its part whole.
  MetricsRegistry single, shard1, shard2;
  const auto add_events = [&single](MetricsRegistry& shard,
                                    const std::vector<int>& values) {
    IntHistogram h;
    RollingQuantile w(8);
    for (int v : values) {
      IntHistogram one;
      one.add(v);
      RollingQuantile last(8);
      last.add(v);
      single.add("c", 1);
      single.add("h", one);
      single.add("w", last);
      h.add(v);
      w.add(v);
    }
    shard.add("c", static_cast<std::int64_t>(values.size()));
    shard.add("h", h);
    shard.add("w", w);
  };
  add_events(shard1, {3, 1, 4, 1, 5});
  add_events(shard2, {9, 2, 6});
  shard2.add("only_in_shard2", 0);  // disjoint names concatenate
  single.add("only_in_shard2", 0);

  MetricsRegistry merged;
  merged.merge(shard1);
  merged.merge(shard2);
  EXPECT_EQ(merged.to_prometheus(), single.to_prometheus());
  EXPECT_EQ(merged.to_json(), single.to_json());
  EXPECT_EQ(merged.counter_value("c"), 8);
  EXPECT_EQ(merged.counter_value("only_in_shard2"), 0);
}

TEST(MetricsRegistry, RenderGoldens) {
  MetricsRegistry reg;
  reg.add("dpcp_b_total", 7);
  IntHistogram h;
  for (int v : {1, 1, 3}) h.add(v);
  reg.add("dpcp_a_hist", h);

  // Names iterate sorted: the histogram renders before the counter.
  EXPECT_EQ(reg.to_prometheus(),
            "# TYPE dpcp_a_hist summary\n"
            "dpcp_a_hist{quantile=\"0.5\"} 1\n"
            "dpcp_a_hist{quantile=\"0.9\"} 3\n"
            "dpcp_a_hist{quantile=\"0.99\"} 3\n"
            "dpcp_a_hist{quantile=\"1\"} 3\n"
            "dpcp_a_hist_sum 5\n"
            "dpcp_a_hist_count 3\n"
            "# TYPE dpcp_b_total counter\n"
            "dpcp_b_total 7\n");
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"dpcp_b_total\":7},"
            "\"histograms\":{\"dpcp_a_hist\":"
            "{\"count\":3,\"sum\":5,\"p50\":1,\"p90\":3,\"p99\":3,\"max\":3}},"
            "\"windows\":{}}");
}

// ---------- histogram / window merge semantics ------------------------------

TEST(IntHistogram, MergeEqualsSingleStream) {
  IntHistogram a, b, single;
  for (int v : {1, 2, 2}) {
    a.add(v);
    single.add(v);
  }
  for (int v : {2, 5}) {
    b.add(v);
    single.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.cells(), single.cells());
  EXPECT_EQ(a.count(), single.count());
  for (int pct : {1, 50, 90, 99, 100})
    EXPECT_EQ(a.percentile(pct), single.percentile(pct)) << pct;
}

TEST(IntHistogram, EmptyAndSelfMerges) {
  IntHistogram a, empty;
  a.add(3, 2);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  empty.merge(a);
  EXPECT_EQ(empty.cells(), a.cells());

  IntHistogram self;
  self.add(1);
  self.add(4);
  self.merge(self);  // doubles every cell, never corrupts
  EXPECT_EQ(self.count(), 4);
  EXPECT_EQ(self.cells().at(1), 2);
  EXPECT_EQ(self.cells().at(4), 2);
}

TEST(RollingQuantile, MergeEqualsSingleStream) {
  // `other` has not overflowed, so its retained window is its whole
  // stream and merge == feeding both streams into one window.
  RollingQuantile a(8), other(8), single(8);
  for (int v : {3, 1, 4}) {
    a.add(v);
    single.add(v);
  }
  for (int v : {1, 5}) {
    other.add(v);
    single.add(v);
  }
  a.merge(other);
  EXPECT_EQ(a.samples_in_order(), single.samples_in_order());
  for (int pct : {1, 50, 99, 100})
    EXPECT_EQ(a.percentile(pct), single.percentile(pct)) << pct;
}

TEST(RollingQuantile, MergeReplaysOnlyTheRetainedWindow) {
  RollingQuantile a(4), overflowed(2);
  for (int v : {1, 2, 3, 4, 5}) overflowed.add(v);  // retains {4, 5}
  a.add(9);
  a.merge(overflowed);
  EXPECT_EQ(a.samples_in_order(), (std::vector<std::int64_t>{9, 4, 5}));

  RollingQuantile empty(4);
  a.merge(empty);  // no-op
  EXPECT_EQ(a.size(), 3u);

  RollingQuantile self(4);
  self.add(7);
  self.add(8);
  self.merge(self);  // replays a copy of its own window: safe
  EXPECT_EQ(self.samples_in_order(), (std::vector<std::int64_t>{7, 8, 7, 8}));
}

// ---------- decision trace ring ---------------------------------------------

TEST(DecisionTrace, RingKeepsTheLastCapacityRecords) {
  DecisionTrace trace(3);
  for (int k = 1; k <= 5; ++k) {
    DecisionRecord r;
    r.seq = k;
    trace.push(r);
  }
  EXPECT_EQ(trace.capacity(), 3u);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.recorded(), 5);

  const auto all = trace.last(99);  // oldest first
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 3);
  EXPECT_EQ(all[2].seq, 5);
  const auto two = trace.last(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].seq, 4);
  EXPECT_EQ(two[1].seq, 5);
  EXPECT_TRUE(trace.last(0).empty());
}

TEST(DecisionTrace, RecordLineIsStable) {
  DecisionRecord r;
  r.seq = 7;
  r.kind = "admit";
  r.id = 3;
  r.accepted = true;
  r.rung = "repair";
  r.cost = 12;
  r.reused = 4;
  r.streak_reset = true;
  r.queued = false;
  r.evicted_id = 1;
  r.readmitted = 0;
  EXPECT_EQ(decision_record_line(r),
            "seq=7 kind=admit id=3 ok=1 rung=repair cost=12 reused=4 "
            "reset=1 degraded=0 queued=0 evicted=1 readmitted=0");
}

// ---------- Chrome trace-event exporter -------------------------------------

/// Minimal recursive-descent JSON parser — just enough structure to
/// validate the exporter's output the way Perfetto's loader would: the
/// file must parse, the top level must be an object with a traceEvents
/// array, and every event must carry the fields its phase requires.
class JsonParser {
 public:
  struct Value {
    enum class Type { kObject, kArray, kString, kNumber } type;
    std::map<std::string, Value> object;
    std::vector<Value> array;
    std::string string;
    double number = 0.0;
  };

  static bool parse(const std::string& text, Value* out) {
    JsonParser p(text);
    if (!p.value(out)) return false;
    p.skip_ws();
    return p.pos_ == text.size();
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return false;  // exporter never escapes
      out->push_back(text_[pos_++]);
    }
    return consume('"');
  }
  bool value(Value* out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Value::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      do {
        std::string key;
        if (!string(&key) || !consume(':')) return false;
        Value v;
        if (!value(&v)) return false;
        out->object.emplace(std::move(key), std::move(v));
      } while (consume(','));
      return consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = Value::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      do {
        Value v;
        if (!value(&v)) return false;
        out->array.push_back(std::move(v));
      } while (consume(','));
      return consume(']');
    }
    if (c == '"') {
      out->type = Value::Type::kString;
      return string(&out->string);
    }
    out->type = Value::Type::kNumber;
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E'))
      ++end;
    if (end == pos_) return false;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Schema check shared by the synthetic and the real-simulator trace.
void expect_valid_chrome_trace(const std::string& json, int min_spans) {
  JsonParser::Value root;
  ASSERT_TRUE(JsonParser::parse(json, &root)) << json.substr(0, 400);
  ASSERT_EQ(root.type, JsonParser::Value::Type::kObject);
  ASSERT_EQ(root.object.count("traceEvents"), 1u);
  ASSERT_EQ(root.object.count("displayTimeUnit"), 1u);
  const auto& events = root.object.at("traceEvents");
  ASSERT_EQ(events.type, JsonParser::Value::Type::kArray);

  int spans = 0;
  for (const auto& e : events.array) {
    ASSERT_EQ(e.type, JsonParser::Value::Type::kObject);
    ASSERT_EQ(e.object.count("ph"), 1u);
    const std::string& ph = e.object.at("ph").string;
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    EXPECT_EQ(e.object.count("name"), 1u);
    EXPECT_EQ(e.object.count("pid"), 1u);
    if (ph == "M") continue;
    EXPECT_EQ(e.object.count("ts"), 1u);
    EXPECT_EQ(e.object.count("tid"), 1u);
    EXPECT_EQ(e.object.count("cat"), 1u);
    EXPECT_EQ(e.object.count("args"), 1u);
    if (ph == "X") {
      ++spans;
      ASSERT_EQ(e.object.count("dur"), 1u);
      EXPECT_GE(e.object.at("dur").number, 0.0);
    }
  }
  EXPECT_GE(spans, min_spans);
}

TEST(ChromeTrace, SyntheticSpansInstantsAndLockClassification) {
  std::vector<TraceEvent> trace;
  const auto ev = [&](Time t, TraceKind kind, int task, std::int64_t job,
                      int vertex, int proc, int res) {
    trace.push_back(TraceEvent{t, kind, task, job, vertex, proc, res});
  };
  ev(0, TraceKind::kJobRelease, 0, 1, -1, -1, -1);
  ev(0, TraceKind::kVertexDispatch, 0, 1, 0, 2, -1);
  ev(1000, TraceKind::kSegmentEnd, 0, 1, 0, 2, -1);
  // A critical vertex dispatched without owning the lock spins...
  ev(1000, TraceKind::kVertexDispatch, 0, 1, 1, 2, 5);
  // ...then acquires it and is re-dispatched in place: the exporter
  // closes the spin span and opens a hold span on the same track.
  ev(1500, TraceKind::kLocalLock, 0, 1, 1, 2, 5);
  ev(1500, TraceKind::kVertexDispatch, 0, 1, 1, 2, 5);
  ev(2500, TraceKind::kLocalUnlock, 0, 1, 1, 2, 5);
  ev(2500, TraceKind::kSegmentEnd, 0, 1, 1, 2, 5);
  ev(2500, TraceKind::kJobComplete, 0, 1, -1, -1, -1);

  const std::string json = chrome_trace_json(trace);
  expect_valid_chrome_trace(json, /*min_spans=*/3);
  EXPECT_NE(json.find("\"name\":\"T0 v1 spin r5\",\"cat\":\"spin\","
                      "\"ts\":1.000,\"dur\":0.500"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"T0 v1 hold r5\",\"cat\":\"hold\","
                      "\"ts\":1.500,\"dur\":1.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"release T0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cpu 2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"task 0\""), std::string::npos);
}

/// One generated task set, simulated with trace recording under both
/// protocols; the exported JSON must satisfy the Perfetto-facing schema.
TEST(ChromeTrace, RealSimulatorTracesAreStructurallyValid) {
  Rng rng(71);
  GenParams params;
  params.scenario = fig2_scenario('a');
  params.total_utilization = 0.3 * params.scenario.m;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());
  const auto part = baseline_partition(*ts, params.scenario.m);
  ASSERT_TRUE(part.has_value());

  for (SimProtocol protocol :
       {SimProtocol::kDpcpP, SimProtocol::kSpinFifo}) {
    SimConfig cfg;
    cfg.protocol = protocol;
    cfg.horizon = millis(5);
    std::vector<TraceEvent> trace;
    simulate(*ts, *part, cfg, &trace);
    ASSERT_FALSE(trace.empty());
    expect_valid_chrome_trace(chrome_trace_json(trace),
                              /*min_spans=*/1);
  }
}

// ---------- simulator trace guard -------------------------------------------

TEST(SimConfigTraceGuard, ThrowsDescriptivelyAndZeroMeansUnlimited) {
  TaskSet ts(0);
  DagTask& t = ts.add_task(100, 100);
  t.add_vertex(10);
  ts.assign_rm_priorities();
  ts.finalize();
  const auto part = baseline_partition(ts, 2);
  ASSERT_TRUE(part.has_value());

  SimConfig cfg;
  cfg.horizon = millis(1);
  cfg.max_trace_entries = 3;
  std::vector<TraceEvent> trace;
  try {
    simulate(ts, *part, cfg, &trace);
    FAIL() << "expected the trace guard to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace guard"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("max_trace_entries"),
              std::string::npos)
        << e.what();
  }

  cfg.max_trace_entries = 0;  // unlimited
  std::vector<TraceEvent> unlimited;
  simulate(ts, *part, cfg, &unlimited);
  EXPECT_GT(unlimited.size(), 3u);

  // The guard never fires when the trace is not recorded at all.
  cfg.max_trace_entries = 3;
  EXPECT_TRUE(simulate(ts, *part, cfg).drained);
}

// ---------- admission controller telemetry ----------------------------------

/// A heavy task needing `need` dedicated processors (same shape as
/// tests/test_admit.cpp): federated bound on `need` processors is exactly
/// the deadline.
DagTask heavy_task(int need) {
  DagTask t(0, 100, 100, 0);
  t.add_vertex(10);
  for (int k = 0; k <= need; ++k) {
    t.add_vertex(45);
    t.add_edge(0, k + 1);
  }
  t.finalize();
  return t;
}

void expect_metrics_mirror_stats(const AdmissionController& ctrl) {
  const AdmissionStats& s = ctrl.stats();
  const MetricsRegistry& m = ctrl.metrics();
  EXPECT_EQ(m.counter_value("dpcp_admit_submitted_total"), s.submitted);
  EXPECT_EQ(m.counter_value("dpcp_admit_accepted_total"), s.accepted);
  EXPECT_EQ(m.counter_value("dpcp_admit_rejected_total"), s.rejected);
  EXPECT_EQ(m.counter_value("dpcp_admit_departed_total"), s.departed);
  EXPECT_EQ(m.counter_value("dpcp_admit_delta_total"), s.delta_accepts);
  EXPECT_EQ(m.counter_value("dpcp_admit_replace_total"), s.replace_accepts);
  EXPECT_EQ(m.counter_value("dpcp_admit_repair_total"), s.repair_accepts);
  EXPECT_EQ(m.counter_value("dpcp_admit_readmit_total"), s.readmits);
  EXPECT_EQ(m.counter_value("dpcp_admit_evictions_total"),
            s.retry_evictions);
  EXPECT_EQ(m.counter_value("dpcp_admit_degraded_total"), s.degraded_admits);
  EXPECT_EQ(m.counter_value("dpcp_oracle_calls_total"), s.oracle_calls);
  EXPECT_EQ(m.counter_value("dpcp_oracle_reused_total"), s.tasks_reused);
  EXPECT_EQ(m.counter_value("dpcp_resident_tasks"), ctrl.resident());
  EXPECT_EQ(m.counter_value("dpcp_retry_queue_depth"),
            static_cast<std::int64_t>(ctrl.retry_queue_size()));
  // The cost histogram renders the controller's lifetime histogram.
  EXPECT_NE(m.to_prometheus().find(
                "\ndpcp_admit_cost_count " +
                std::to_string(ctrl.cost_histogram().count()) + "\n"),
            std::string::npos);
}

TEST(AdmissionTelemetry, RegistryMirrorsStatsAndTraceRecordsDecisions) {
  AdmitOptions opt;
  opt.m = 4;
  opt.kind = AnalysisKind::kFedFp;
  opt.retry_capacity = 1;
  AdmissionController ctrl(0, opt);

  ASSERT_TRUE(ctrl.admit(heavy_task(2)).accepted);
  ASSERT_TRUE(ctrl.admit(heavy_task(2)).accepted);
  const AdmitDecision rejected = ctrl.admit(heavy_task(2));  // platform full
  ASSERT_FALSE(rejected.accepted);
  ASSERT_TRUE(rejected.queued);
  const AdmitDecision evicting = ctrl.admit(heavy_task(2));  // evicts id 2
  ASSERT_EQ(evicting.evicted_id, 2);
  const DepartOutcome out = ctrl.depart(0);  // frees room -> readmit pass
  ASSERT_TRUE(out.found);
  ASSERT_EQ(out.readmitted.size(), 1u);

  expect_metrics_mirror_stats(ctrl);

  // One record per decision event: 4 admits + 1 readmit + 1 depart.
  const DecisionTrace& trace = ctrl.decision_trace();
  EXPECT_EQ(trace.recorded(), 6);
  const auto records = trace.last(trace.capacity());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_STREQ(records[0].kind, "admit");
  EXPECT_TRUE(records[0].accepted);
  EXPECT_EQ(records[0].id, 0);
  EXPECT_STREQ(records[2].kind, "admit");
  EXPECT_TRUE(records[2].queued);
  EXPECT_EQ(records[3].evicted_id, 2);
  EXPECT_STREQ(records[4].kind, "readmit");
  EXPECT_TRUE(records[4].accepted);
  EXPECT_EQ(records[4].id, 3);
  EXPECT_STREQ(records[5].kind, "depart");
  EXPECT_EQ(records[5].id, 0);
  EXPECT_EQ(records[5].readmitted, 1);
  // seq is monotone in push order.
  for (std::size_t k = 1; k < records.size(); ++k)
    EXPECT_EQ(records[k].seq, records[k - 1].seq + 1);
}

TEST(AdmissionTelemetry, GeneratedStreamKeepsRegistryAndStatsInLockstep) {
  Rng rng(4242);
  GenParams params;
  params.scenario = fig2_scenario('b');
  params.total_utilization = 0.5 * params.scenario.m;
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());

  AdmitOptions opt;
  opt.m = params.scenario.m;
  opt.kind = AnalysisKind::kDpcpPEp;
  opt.repair_evals = 30;
  AdmissionController ctrl((ts->num_resources()), opt);
  Rng events(7);
  for (int i = 0; i < ts->size(); ++i) {
    ctrl.admit(ts->task(i));
    if (ctrl.resident() > 2 && events.bernoulli(0.3))
      ctrl.depart(ctrl.external_id(
          static_cast<int>(events.uniform_int(0, ctrl.resident() - 1))));
    expect_metrics_mirror_stats(ctrl);  // lockstep after every event
  }
}

TEST(AdmissionTelemetry, RestoreReseedsCountersAndStartsAnEmptyRing) {
  AdmitOptions opt;
  opt.m = 4;
  opt.kind = AnalysisKind::kFedFp;
  AdmissionController ctrl(0, opt);
  ASSERT_TRUE(ctrl.admit(heavy_task(2)).accepted);
  ASSERT_TRUE(ctrl.admit(heavy_task(2)).accepted);
  ctrl.depart(0);

  AdmissionController restored(ctrl.snapshot());
  expect_metrics_mirror_stats(restored);
  EXPECT_EQ(restored.metrics().counter_value("dpcp_admit_submitted_total"),
            ctrl.stats().submitted);
  // The ring is deliberately not part of the snapshot.
  EXPECT_EQ(restored.decision_trace().recorded(), 0);
  // The restored registry renders the original report except for
  // streak_resets, which is pure telemetry outside AdmissionStats and so
  // (like the ring) restarts at zero on a failover.
  EXPECT_GT(ctrl.metrics().counter_value("dpcp_admit_streak_resets_total"),
            0);
  EXPECT_EQ(
      restored.metrics().counter_value("dpcp_admit_streak_resets_total"), 0);
  std::string expected = ctrl.metrics().to_prometheus();
  const std::string live =
      "dpcp_admit_streak_resets_total " +
      std::to_string(
          ctrl.metrics().counter_value("dpcp_admit_streak_resets_total"));
  const auto pos = expected.find(live);
  ASSERT_NE(pos, std::string::npos);
  expected.replace(pos, live.size(), "dpcp_admit_streak_resets_total 0");
  EXPECT_EQ(restored.metrics().to_prometheus(), expected);
}

// ---------- server command grammar ------------------------------------------

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

TEST(ServerTelemetry, MetricsAndTraceGrammar) {
  ServeOptions options;
  options.m = 2;
  options.kind = AnalysisKind::kFedFp;

  // Both commands require a workload.
  const std::string unloaded = serve("metrics\ntrace\nquit\n", options);
  EXPECT_NE(unloaded.find("error no workload loaded (use 'load')\n"),
            std::string::npos)
      << unloaded;

  const std::string bad = serve(std::string(kTinyWorkload) +
                                    "metrics bogus\nmetrics json extra\n"
                                    "trace x\ntrace 1 2\nquit\n",
                                options);
  EXPECT_NE(bad.find("error usage: metrics [json]\n"), std::string::npos)
      << bad;
  EXPECT_NE(bad.find("error usage: trace [n]\n"), std::string::npos) << bad;

  const std::string ok =
      serve(std::string(kTinyWorkload) + "metrics\nmetrics json\n"
                                         "trace\ntrace 0\nquit\n",
            options);
  EXPECT_NE(ok.find("# TYPE dpcp_admit_submitted_total counter\n"
                    "dpcp_admit_submitted_total 1\n"),
            std::string::npos)
      << ok;
  EXPECT_NE(ok.find("{\"counters\":{"), std::string::npos) << ok;
  EXPECT_NE(ok.find("ok metrics count=17\n"), std::string::npos) << ok;
  EXPECT_NE(ok.find("trace seq=1 kind=admit id=0 ok=1 rung=delta "),
            std::string::npos)
      << ok;
  EXPECT_NE(ok.find("ok trace shown=1 recorded=1 capacity=64\n"),
            std::string::npos)
      << ok;
  EXPECT_NE(ok.find("ok trace shown=0 recorded=1 capacity=64\n"),
            std::string::npos)
      << ok;
  // The analysis cache counters stay off the wire: the server's registry
  // holds decision counts only (the golden transcripts pin its bytes).
  EXPECT_EQ(ok.find("dpcp_analysis_"), std::string::npos) << ok;
}

TEST(ServerTelemetry, DeterministicAcrossIdenticalSessions) {
  ServeOptions options;
  options.m = 2;
  options.kind = AnalysisKind::kFedFp;
  const std::string script = std::string(kTinyWorkload) +
                             "metrics\ntrace\nmetrics json\nquit\n";
  EXPECT_EQ(serve(script, options), serve(script, options));
}

}  // namespace
}  // namespace dpcp
