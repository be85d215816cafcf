// Pairwise dominance / outperformance statistics over scenarios
// (Tables 2 and 3 of the paper).
//
// For one experimental scenario (footnote 1 of the paper):
//  * A *outperforms* B if A schedules more task sets than B in total over
//    the utilization sweep;
//  * A *dominates* B if A's acceptance ratio is never lower than B's at
//    any tested point and strictly higher at some point.
#pragma once

#include <string>
#include <vector>

#include "exp/acceptance.hpp"

namespace dpcp {

/// Pairwise comparison counts over a set of scenario curves (the contents
/// of the paper's Tables 2 and 3).
struct PairwiseStats {
  /// Analysis display names, shared row/column order of both matrices.
  std::vector<std::string> names;
  /// Number of scenario curves the statistics were computed over.
  int scenarios = 0;
  /// counts[a][b] = number of scenarios where analysis a beats analysis b
  /// under the respective relation (diagonal unused).
  std::vector<std::vector<int>> dominance;
  std::vector<std::vector<int>> outperformance;

  /// Paper-style rendering: rows/columns per analysis, entries
  /// "count(percent)".
  std::string to_table(bool dominance_table) const;
};

/// True iff curve `a` dominates / outperforms curve `b` in `curve`.
bool dominates(const AcceptanceCurve& curve, std::size_t a, std::size_t b);
bool outperforms(const AcceptanceCurve& curve, std::size_t a, std::size_t b);

PairwiseStats compute_pairwise(const std::vector<AcceptanceCurve>& curves);

}  // namespace dpcp
