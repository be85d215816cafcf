// Tests for the parallel experiment engine (src/exp/): thread-count
// determinism, hand-checked aggregation, grid construction, scenario-spec
// parsing, and CSV/JSON emission.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"

namespace dpcp {
namespace {

// Two small m=8 scenarios with few utilization points keep engine runs
// cheap; every analysis still exercises the full generation + test path.
std::vector<Scenario> tiny_scenarios() {
  Scenario a;
  a.m = 8;
  a.nr_min = 2;
  a.nr_max = 4;
  Scenario b = a;
  b.p_r = 1.0;
  return {a, b};
}

SweepOptions tiny_options(int threads) {
  SweepOptions options;
  options.samples_per_point = 6;
  options.seed = 12345;
  options.threads = threads;
  options.norm_utilizations = {0.3, 0.5};
  return options;
}

const std::vector<AnalysisKind> kTinyKinds{AnalysisKind::kDpcpPEp,
                                           AnalysisKind::kFedFp};

// ---------- engine determinism --------------------------------------------

TEST(Engine, IdenticalResultsAtOneAndEightThreads) {
  const auto scenarios = tiny_scenarios();
  const SweepResult one = run_sweep(scenarios, kTinyKinds, tiny_options(1));
  const SweepResult eight = run_sweep(scenarios, kTinyKinds, tiny_options(8));

  ASSERT_EQ(one.curves.size(), eight.curves.size());
  for (std::size_t s = 0; s < one.curves.size(); ++s) {
    EXPECT_EQ(one.curves[s].utilization, eight.curves[s].utilization);
    EXPECT_EQ(one.curves[s].samples, eight.curves[s].samples);
    EXPECT_EQ(one.curves[s].accepted, eight.curves[s].accepted);
  }
  // The emitted artifacts must be byte-identical too.
  EXPECT_EQ(sweep_to_csv(one), sweep_to_csv(eight));
  EXPECT_EQ(sweep_to_json(one), sweep_to_json(eight));
}

TEST(Engine, OversizedThreadCountMatchesOneThread) {
  // The pool starts at most one worker per work item, so a thread count
  // far beyond the grid (and beyond what the host may let a process
  // start) neither aborts nor changes a byte.
  const auto scenarios = tiny_scenarios();
  const SweepResult one = run_sweep(scenarios, kTinyKinds, tiny_options(1));
  const SweepResult huge =
      run_sweep(scenarios, kTinyKinds, tiny_options(1 << 16));
  EXPECT_EQ(sweep_to_csv(one), sweep_to_csv(huge));
}

TEST(Engine, ScenarioSeedDerivation) {
  EXPECT_EQ(scenario_seed(42, 0), 42u);  // single-scenario sweeps == legacy
  EXPECT_EQ(scenario_seed(42, 1), 42u + 1000003u);
  EXPECT_NE(scenario_seed(1, 5), scenario_seed(2, 5));
}

TEST(Engine, ProgressReportsEveryScenarioOnce) {
  const auto scenarios = tiny_scenarios();
  SweepOptions options = tiny_options(4);
  std::vector<std::size_t> done_values;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, scenarios.size());
    done_values.push_back(done);
  };
  run_sweep(scenarios, kTinyKinds, options);
  ASSERT_EQ(done_values.size(), scenarios.size());
  // Serialized, monotonically increasing completion counts.
  for (std::size_t i = 0; i < done_values.size(); ++i)
    EXPECT_EQ(done_values[i], i + 1);
}

TEST(Engine, CustomUtilizationPointsScaleWithM) {
  const auto scenarios = tiny_scenarios();  // m = 8
  const SweepResult result =
      run_sweep(scenarios, kTinyKinds, tiny_options(1));
  ASSERT_EQ(result.curves[0].utilization.size(), 2u);
  EXPECT_DOUBLE_EQ(result.curves[0].utilization[0], 0.3 * 8);
  EXPECT_DOUBLE_EQ(result.curves[0].utilization[1], 0.5 * 8);
}

// ---------- aggregation ----------------------------------------------------

// Hand-built two-scenario result:
//   scenario 0: 2 points, 10 samples each; analysis ratios (0.8, 0.4)
//   scenario 1: 2 points, 10 samples each; analysis ratios (1.0, 0.0)
// => totals 12/20 and 10/20; per-scenario means 0.6 and 0.5.
TEST(Summarize, HandCheckedGrid) {
  SweepResult result;
  result.curves.resize(2);
  for (AcceptanceCurve& curve : result.curves) {
    curve.names = {"A"};
    curve.utilization = {1.0, 2.0};
    curve.samples = {10, 10};
  }
  result.curves[0].accepted = {{8, 4}};
  result.curves[1].accepted = {{10, 0}};

  const SweepSummary summary = summarize(result);
  ASSERT_EQ(summary.names.size(), 1u);
  EXPECT_EQ(summary.totals[0].accepted(), 22);
  EXPECT_EQ(summary.totals[0].total(), 40);
  EXPECT_DOUBLE_EQ(summary.totals[0].ratio(), 0.55);
  EXPECT_EQ(summary.scenario_ratio[0].count(), 2);
  EXPECT_DOUBLE_EQ(summary.scenario_ratio[0].mean(), 0.55);
  EXPECT_DOUBLE_EQ(summary.scenario_ratio[0].min(), 0.5);
  EXPECT_DOUBLE_EQ(summary.scenario_ratio[0].max(), 0.6);

  const std::string text = summary.to_text();
  EXPECT_NE(text.find("A"), std::string::npos);
  EXPECT_NE(text.find("0.550"), std::string::npos);
}

TEST(Summarize, EmptyResultIsEmptySummary) {
  const SweepSummary summary = summarize(SweepResult{});
  EXPECT_TRUE(summary.names.empty());
  EXPECT_TRUE(summary.totals.empty());
}

// ---------- generator stats ------------------------------------------------

TEST(Engine, GenStatsAreSweepLevel) {
  const auto scenarios = tiny_scenarios();
  const SweepResult result =
      run_sweep(scenarios, kTinyKinds, tiny_options(2));
  // Generation happened, so the sweep-level counters moved ...
  EXPECT_GT(result.gen_stats.rfs.attempts, 0);
  // ... and summarize() reports them.
  EXPECT_EQ(summarize(result).gen_stats.rfs.attempts,
            result.gen_stats.rfs.attempts);
}

TEST(Report, JsonCarriesGenStats) {
  const SweepResult result =
      run_sweep(tiny_scenarios(), kTinyKinds, tiny_options(2));
  const std::string json = sweep_to_json(result);
  EXPECT_NE(json.find("\"gen_stats\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
}

// ---------- grid -----------------------------------------------------------

TEST(Grid, ScenarioSpecParsing) {
  EXPECT_EQ(scenarios_from_spec("all")->size(), 216u);
  EXPECT_EQ(scenarios_from_spec("fig2")->size(), 4u);
  EXPECT_EQ(scenarios_from_spec("first:5")->size(), 5u);
  EXPECT_EQ(scenarios_from_spec("a,b")->size(), 2u);
  EXPECT_EQ(scenarios_from_spec("a")->front().name(),
            fig2_scenario('a').name());

  std::string error;
  EXPECT_FALSE(scenarios_from_spec("bogus", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(scenarios_from_spec("first:0", &error).has_value());
  // Beyond long long: strtol clamped this to LONG_MAX, i.e. every scenario.
  EXPECT_FALSE(
      scenarios_from_spec("first:99999999999999999999", &error).has_value());
  EXPECT_NE(error.find("bad scenario count"), std::string::npos);
}

// ---------- report ---------------------------------------------------------

TEST(Report, CsvShapeAndContent) {
  const auto scenarios = tiny_scenarios();
  const SweepResult result =
      run_sweep(scenarios, kTinyKinds, tiny_options(2));
  const std::string csv = sweep_to_csv(result);

  // Header + one row per (scenario, point, analysis).
  const std::size_t rows =
      static_cast<std::size_t>(
          std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1 + 2 * 2 * kTinyKinds.size());
  EXPECT_NE(csv.find("scenario,m,nr_min"), std::string::npos);
  EXPECT_NE(csv.find("DPCP-p-EP"), std::string::npos);
}

TEST(Report, JsonEscapeHandlesControlCharacters) {
  // Control characters must never reach the JSON output raw: a stray tab
  // or ESC in a name silently invalidates the whole document.
  EXPECT_EQ(json_escape("plain ascii"), "plain ascii");
  EXPECT_EQ(json_escape("quote\" back\\slash"), "quote\\\" back\\\\slash");
  EXPECT_EQ(json_escape("a\tb\nc\rd\be\ff"), "a\\tb\\nc\\rd\\be\\ff");
  EXPECT_EQ(json_escape(std::string("nul\x01mid") + '\x1f'),
            "nul\\u0001mid\\u001f");
  // An embedded NUL is a control character like any other.
  EXPECT_EQ(json_escape(std::string("x\0y", 3)), "x\\u0000y");
  // Bytes >= 0x20 (including UTF-8 continuation bytes) pass through.
  EXPECT_EQ(json_escape("\xc3\xa9"), "\xc3\xa9");
}

TEST(Report, JsonMentionsEveryScenarioAndAnalysis) {
  const auto scenarios = tiny_scenarios();
  const SweepResult result =
      run_sweep(scenarios, kTinyKinds, tiny_options(2));
  const std::string json = sweep_to_json(result);
  for (const AcceptanceCurve& curve : result.curves)
    EXPECT_NE(json.find(curve.scenario.name()), std::string::npos);
  EXPECT_NE(json.find("\"analyses\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

}  // namespace
}  // namespace dpcp
