// Integration tests for the experiment harness: acceptance-ratio sweeps
// (determinism, thread independence, paired comparison), the dominance /
// outperformance relations of Tables 2-3, and end-to-end consistency of
// the paper's headline claims on a reduced sweep.
#include <gtest/gtest.h>

#include "exp/dominance.hpp"
#include "exp/engine.hpp"

namespace dpcp {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.m = 8;
  s.nr_min = 2;
  s.nr_max = 4;
  s.u_avg = 1.5;
  s.p_r = 0.5;
  s.n_req_max = 25;
  s.cs_min = micros(15);
  s.cs_max = micros(50);
  return s;
}

TEST(Acceptance, CurveShapeAndBookkeeping) {
  SweepOptions options;
  options.samples_per_point = 8;
  options.seed = 3;
  const auto kinds = all_analysis_kinds();
  const AcceptanceCurve curve =
      run_sweep({small_scenario()}, kinds, options).curves.front();

  ASSERT_EQ(curve.names.size(), kinds.size());
  ASSERT_EQ(curve.accepted.size(), kinds.size());
  ASSERT_EQ(curve.utilization.size(), curve.samples.size());
  for (std::size_t p = 0; p < curve.samples.size(); ++p) {
    EXPECT_LE(curve.samples[p], options.samples_per_point);
    for (std::size_t a = 0; a < kinds.size(); ++a) {
      EXPECT_GE(curve.accepted[a][p], 0);
      EXPECT_LE(curve.accepted[a][p], curve.samples[p]);
      EXPECT_GE(curve.ratio(a, p), 0.0);
      EXPECT_LE(curve.ratio(a, p), 1.0);
    }
  }
  // Acceptance at the lowest utilization must be >= at the highest.
  for (std::size_t a = 0; a < kinds.size(); ++a)
    EXPECT_GE(curve.ratio(a, 0), curve.ratio(a, curve.utilization.size() - 1));
}

TEST(Acceptance, DeterministicAcrossRunsAndThreadCounts) {
  SweepOptions o1;
  o1.samples_per_point = 6;
  o1.seed = 11;
  o1.threads = 1;
  SweepOptions o4 = o1;
  o4.threads = 4;
  const std::vector<AnalysisKind> kinds{AnalysisKind::kDpcpPEn,
                                        AnalysisKind::kFedFp};
  const AcceptanceCurve c1 =
      run_sweep({small_scenario()}, kinds, o1).curves.front();
  const AcceptanceCurve c4 =
      run_sweep({small_scenario()}, kinds, o4).curves.front();
  EXPECT_EQ(c1.accepted, c4.accepted);
  EXPECT_EQ(c1.samples, c4.samples);
}

TEST(Acceptance, PairedComparisonKeepsHeadlineOrdering) {
  // On a reduced sweep: EP accepts at least as many sets as EN at every
  // point (EP dominates EN by construction), and FED-FP is an upper bound
  // for all locking protocols.
  SweepOptions options;
  options.samples_per_point = 8;
  options.seed = 5;
  const std::vector<AnalysisKind> kinds{
      AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn, AnalysisKind::kSpinSon,
      AnalysisKind::kLpp, AnalysisKind::kFedFp};
  const AcceptanceCurve curve =
      run_sweep({small_scenario()}, kinds, options).curves.front();
  for (std::size_t p = 0; p < curve.utilization.size(); ++p) {
    EXPECT_GE(curve.accepted[0][p], curve.accepted[1][p]) << "point " << p;
    for (std::size_t a = 0; a + 1 < kinds.size(); ++a)
      EXPECT_GE(curve.accepted[4][p], curve.accepted[a][p]) << "point " << p;
  }
}

// ---------- dominance / outperformance ----------------------------------------

AcceptanceCurve synthetic_curve(std::vector<std::vector<std::int64_t>> accepted,
                                std::int64_t samples) {
  AcceptanceCurve c;
  c.names = {"A", "B"};
  const std::size_t points = accepted[0].size();
  c.utilization.resize(points);
  for (std::size_t p = 0; p < points; ++p)
    c.utilization[p] = 1.0 + static_cast<double>(p);
  c.accepted = std::move(accepted);
  c.samples.assign(points, samples);
  c.scenario.m = 8;
  return c;
}

TEST(Dominance, StrictDominanceRequiresStrictPointAndNoLoss) {
  // A >= B everywhere, strictly better at point 1.
  const auto c = synthetic_curve({{10, 8, 4}, {10, 6, 4}}, 10);
  EXPECT_TRUE(dominates(c, 0, 1));
  EXPECT_FALSE(dominates(c, 1, 0));
}

TEST(Dominance, EqualCurvesDominateNeither) {
  const auto c = synthetic_curve({{10, 8, 4}, {10, 8, 4}}, 10);
  EXPECT_FALSE(dominates(c, 0, 1));
  EXPECT_FALSE(dominates(c, 1, 0));
}

TEST(Dominance, CrossingCurvesDominateNeitherButMayOutperform) {
  const auto c = synthetic_curve({{10, 2, 2}, {8, 8, 0}}, 10);
  EXPECT_FALSE(dominates(c, 0, 1));
  EXPECT_FALSE(dominates(c, 1, 0));
  EXPECT_FALSE(outperforms(c, 0, 1));  // 14 vs 16
  EXPECT_TRUE(outperforms(c, 1, 0));
}

TEST(Dominance, PairwiseAggregation) {
  std::vector<AcceptanceCurve> curves;
  curves.push_back(synthetic_curve({{10, 8, 4}, {10, 6, 4}}, 10));  // A dom B
  curves.push_back(synthetic_curve({{10, 2, 2}, {8, 8, 0}}, 10));   // B outp A
  curves.push_back(synthetic_curve({{5, 5, 5}, {5, 5, 5}}, 10));    // tie
  const PairwiseStats stats = compute_pairwise(curves);
  EXPECT_EQ(stats.scenarios, 3);
  EXPECT_EQ(stats.dominance[0][1], 1);
  EXPECT_EQ(stats.dominance[1][0], 0);
  EXPECT_EQ(stats.outperformance[0][1], 1);  // scenario 1 only
  EXPECT_EQ(stats.outperformance[1][0], 1);  // scenario 2 only
  const std::string table = stats.to_table(true);
  EXPECT_NE(table.find("1(33.3%)"), std::string::npos);
  EXPECT_NE(table.find("N/A"), std::string::npos);
}

TEST(Dominance, RealSweepEpDominatesEnAndOutperformsAll) {
  SweepOptions options;
  options.samples_per_point = 8;
  options.seed = 21;
  const std::vector<AnalysisKind> kinds{
      AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn, AnalysisKind::kSpinSon,
      AnalysisKind::kLpp};
  std::vector<AcceptanceCurve> curves;
  Scenario a = small_scenario();
  Scenario b = small_scenario();
  b.p_r = 1.0;
  b.cs_min = micros(50);
  b.cs_max = micros(100);
  // One sweep per scenario, so both draw the seed-21 stream.
  curves.push_back(run_sweep({a}, kinds, options).curves.front());
  curves.push_back(run_sweep({b}, kinds, options).curves.front());
  const PairwiseStats stats = compute_pairwise(curves);
  // EP never loses to anyone (the paper's headline claim).
  for (std::size_t other = 1; other < kinds.size(); ++other) {
    EXPECT_EQ(stats.dominance[other][0], 0);
    EXPECT_EQ(stats.outperformance[other][0], 0);
  }
}

TEST(Acceptance, TableRendering) {
  SweepOptions options;
  options.samples_per_point = 4;
  const AcceptanceCurve curve =
      run_sweep({small_scenario()}, {AnalysisKind::kFedFp}, options)
          .curves.front();
  const std::string table = curve.to_table();
  EXPECT_NE(table.find("norm-util"), std::string::npos);
  EXPECT_NE(table.find("FED-FP"), std::string::npos);
}

}  // namespace
}  // namespace dpcp
