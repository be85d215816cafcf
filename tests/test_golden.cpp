// Golden-value regression tests pinning the experiment pipeline's exact
// output, so refactors of the analysis/partition stack (e.g. the
// prepared-analysis pipeline) cannot silently drift behavior: the numbers
// below were produced by the pre-refactor stateless oracle stack and must
// never change for the default seed.
#include <gtest/gtest.h>

#include <cstdint>

#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "gen/scenario.hpp"

namespace dpcp {
namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// 3 scenarios x 2 utilization points x all 5 analyses at seed 42,
// 8 samples/point.  Counts recorded from the pre-refactor implementation
// (commit bc24c1f); indices: accepted[analysis][point].
TEST(Golden, AcceptanceCountsThreeScenariosAllAnalyses) {
  const std::vector<Scenario> scenarios{
      fig2_scenario('a'), fig2_scenario('b'), fig2_scenario('c')};
  SweepOptions options;
  options.samples_per_point = 8;
  options.seed = 42;
  options.norm_utilizations = {0.4, 0.6};
  const SweepResult result =
      run_sweep(scenarios, all_analysis_kinds(), options);

  ASSERT_EQ(result.curves.size(), 3u);
  for (const AcceptanceCurve& curve : result.curves) {
    ASSERT_EQ(curve.samples, (std::vector<std::int64_t>{8, 8}));
    ASSERT_EQ(curve.names.size(), 5u);
  }
  using Grid = std::vector<std::vector<std::int64_t>>;
  // Analysis order: DPCP-p-EP, DPCP-p-EN, SPIN-SON, LPP, FED-FP.
  EXPECT_EQ(result.curves[0].accepted,
            (Grid{{3, 0}, {2, 0}, {3, 0}, {2, 0}, {8, 5}}));
  EXPECT_EQ(result.curves[1].accepted,
            (Grid{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {8, 8}}));
  EXPECT_EQ(result.curves[2].accepted,
            (Grid{{7, 1}, {3, 1}, {4, 1}, {4, 1}, {8, 7}}));
}

// One small sweep per placement strategy, pinned: DPCP-p-EP over the
// Fig. 2(a)/(c) scenarios at utilization points where the strategies
// actually diverge (WFD != FFD != BFD != sync here), so a silent change
// to any strategy's choice rule shows up as a count shift.  Counts
// recorded from the strategies' introducing commit.
TEST(Golden, PerPlacementStrategyAcceptanceCounts) {
  SweepOptions options;
  options.samples_per_point = 10;
  options.seed = 42;
  options.norm_utilizations = {0.5, 0.55};
  options.placements = all_placement_kinds();
  const SweepResult result =
      run_sweep({fig2_scenario('a'), fig2_scenario('c')},
                {AnalysisKind::kDpcpPEp}, options);

  ASSERT_EQ(result.curves.size(), 2u);
  ASSERT_EQ(result.curves[0].names,
            (std::vector<std::string>{"DPCP-p-EP@wfd", "DPCP-p-EP@ffd",
                                      "DPCP-p-EP@bfd", "DPCP-p-EP@sync"}));
  using Grid = std::vector<std::vector<std::int64_t>>;
  // accepted[strategy][point]; strategy order wfd, ffd, bfd, sync.
  EXPECT_EQ(result.curves[0].accepted,
            (Grid{{2, 3}, {1, 2}, {0, 1}, {2, 4}}));
  EXPECT_EQ(result.curves[1].accepted,
            (Grid{{2, 0}, {1, 1}, {2, 0}, {3, 0}}));
}

// Optimizer column pinned at two diverging utilization points: DPCP-p-EP
// over the Fig. 2(a)/(c) scenarios where the opt@200 column's accepts
// split into both of its mechanisms — all-strategy seeding (scenario (c)
// point 0: 7 vs. WFD's 3, found by a non-WFD seed) and genuine local
// search (scenario (a) point 1: one accept no seed strategy finds).
// Counts recorded from the optimizer's introducing commit; a drift in
// the move vocabulary, proposal stream, restart schedule, or seed order
// shows up here as a count shift.
TEST(Golden, OptimizerColumnAcceptanceCounts) {
  SweepOptions options;
  options.samples_per_point = 10;
  options.seed = 42;
  options.norm_utilizations = {0.45, 0.5};
  options.optimize_evals = 200;
  const SweepResult result =
      run_sweep({fig2_scenario('a'), fig2_scenario('c')},
                {AnalysisKind::kDpcpPEp}, options);

  ASSERT_EQ(result.curves.size(), 2u);
  ASSERT_EQ(result.curves[0].names,
            (std::vector<std::string>{"DPCP-p-EP", "DPCP-p-EP@opt200"}));
  using Grid = std::vector<std::vector<std::int64_t>>;
  // accepted[column][point]; columns: one-shot WFD, opt@200.
  EXPECT_EQ(result.curves[0].accepted, (Grid{{0, 4}, {0, 5}}));
  EXPECT_EQ(result.curves[1].accepted, (Grid{{3, 2}, {7, 3}}));
  // The opt column's accept split: seed accepts vs. accepts only the
  // local search reached.
  ASSERT_EQ(result.opt_stats.size(), 2u);
  EXPECT_EQ(result.opt_stats[0][1][1].seed_accepts, 4);
  EXPECT_EQ(result.opt_stats[0][1][1].search_accepts, 1);
  EXPECT_EQ(result.opt_stats[1][1][0].seed_accepts, 7);
  EXPECT_EQ(result.opt_stats[1][1][0].search_accepts, 0);
}

// A full --sim --validate sweep — the sim observation column, the
// cross-check verdicts, the response-ratio gap statistics — pinned by size
// and hash of its CSV and JSON (recorded while a second, dense per-quantum
// simulator clock still reproduced them byte for byte), and identical at
// 1 and 8 worker threads: results are keyed by (scenario, point, sample)
// sub-streams, never by scheduling order.
TEST(Golden, SimValidateSweepBytesPinnedAtOneAndEightThreads) {
  auto run_with = [](int threads) {
    SweepOptions options;
    options.samples_per_point = 4;
    options.seed = 42;
    options.threads = threads;
    options.norm_utilizations = {0.4, 0.6};
    options.sim.enabled = true;
    options.sim.validate = true;
    options.sim.horizon = millis(20);
    options.sim.mode = SimSweepMode::kRandom;  // jitter/scaling paths too
    const SweepResult result = run_sweep(
        {fig2_scenario('a'), fig2_scenario('c')},
        {AnalysisKind::kDpcpPEp, AnalysisKind::kSpinSon}, options);
    return std::make_pair(sweep_to_csv(result), sweep_to_json(result));
  };

  const auto eight = run_with(8);
  const auto single = run_with(1);
  EXPECT_EQ(eight.first, single.first) << "CSV differs across thread counts";
  EXPECT_EQ(eight.second, single.second)
      << "JSON differs across thread counts";

  EXPECT_EQ(single.first.size(), 1857u);
  EXPECT_EQ(fnv1a64(single.first), 0x0c878d9f428096c7ull);
  EXPECT_EQ(single.second.size(), 2543u);
  EXPECT_EQ(fnv1a64(single.second), 0xaf1a998d85c36f03ull);
}

// The full 216-scenario grid at 1 sample/point, seed 42: the long-format
// CSV must stay byte-identical to the pre-refactor output (hash and size
// recorded from commit bc24c1f).  This is the bit-exactness contract of
// the prepared-analysis refactor: caching and cross-round skipping may
// only remove redundant work, never change a number.
TEST(Golden, FullGridCsvByteIdentical) {
  SweepOptions options;
  options.samples_per_point = 1;
  options.seed = 42;
  const SweepResult result =
      run_sweep(all_scenarios(), all_analysis_kinds(), options);
  const std::string csv = sweep_to_csv(result);
  EXPECT_EQ(csv.size(), 2442712u);
  EXPECT_EQ(fnv1a64(csv), 0x561251f54cfd1607ull);
}

}  // namespace
}  // namespace dpcp
