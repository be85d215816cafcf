// Acceptance-ratio curves (Sec. VII / Fig. 2 of the paper).
//
// One scenario's result: per analysis, the fraction of randomly generated
// task sets deemed schedulable at each total-utilization point.  The
// experiment engine (exp/engine.hpp, run_sweep) fills one curve per
// scenario, running all analyses on the *same* task sets (paired
// comparison).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/scenario.hpp"

namespace dpcp {

/// One scenario's acceptance-ratio sweep: the per-analysis schedulability
/// counts at every tested utilization point (one Fig. 2 curve bundle).
struct AcceptanceCurve {
  /// The scenario this curve was measured for.
  Scenario scenario;
  /// Tested total utilizations, in sweep order (the paper grid is
  /// ascending; custom point lists keep their input order).
  std::vector<double> utilization;
  /// Analysis display names, in the order the engine was given them.
  std::vector<std::string> names;
  /// accepted[a][p]: task sets analysis a deemed schedulable at point p;
  /// divide by samples[p] for the acceptance ratio.
  std::vector<std::vector<std::int64_t>> accepted;
  /// Task sets actually tested per point (generation may skip a sample).
  std::vector<std::int64_t> samples;

  /// Acceptance ratio of `analysis` at utilization point `point`.
  /// Well-defined (0.0) at samples[point] == 0 — a point every sample of
  /// which failed generation must not poison aggregation with NaNs.
  double ratio(std::size_t analysis, std::size_t point) const {
    return samples[point] == 0
               ? 0.0
               : static_cast<double>(accepted[analysis][point]) /
                     static_cast<double>(samples[point]);
  }
  /// Index of the named column — an analysis display name, or the
  /// engine's trailing simulation column (exp/validate.hpp's
  /// kSimColumnName) on simulation-backed sweeps; nullopt when absent.
  std::optional<std::size_t> column(const std::string& name) const {
    for (std::size_t a = 0; a < names.size(); ++a)
      if (names[a] == name) return a;
    return std::nullopt;
  }
  /// Task sets accepted in total across the sweep (the outperformance
  /// metric of Table 3).
  std::int64_t total_accepted(std::size_t analysis) const;

  /// Fig.-2-style table: one row per utilization point.
  std::string to_table() const;
};

}  // namespace dpcp
