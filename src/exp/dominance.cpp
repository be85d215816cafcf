#include "exp/dominance.hpp"

#include <cassert>

#include "util/table.hpp"

namespace dpcp {

bool dominates(const AcceptanceCurve& curve, std::size_t a, std::size_t b) {
  bool strictly_better_somewhere = false;
  for (std::size_t p = 0; p < curve.utilization.size(); ++p) {
    const double ra = curve.ratio(a, p);
    const double rb = curve.ratio(b, p);
    if (ra < rb) return false;
    if (ra > rb) strictly_better_somewhere = true;
  }
  return strictly_better_somewhere;
}

bool outperforms(const AcceptanceCurve& curve, std::size_t a, std::size_t b) {
  return curve.total_accepted(a) > curve.total_accepted(b);
}

PairwiseStats compute_pairwise(const std::vector<AcceptanceCurve>& curves) {
  PairwiseStats stats;
  if (curves.empty()) return stats;
  stats.names = curves.front().names;
  const std::size_t n = stats.names.size();
  stats.scenarios = static_cast<int>(curves.size());
  stats.dominance.assign(n, std::vector<int>(n, 0));
  stats.outperformance.assign(n, std::vector<int>(n, 0));
  for (const auto& curve : curves) {
    assert(curve.names == stats.names);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        if (dominates(curve, a, b)) ++stats.dominance[a][b];
        if (outperforms(curve, a, b)) ++stats.outperformance[a][b];
      }
  }
  return stats;
}

std::string PairwiseStats::to_table(bool dominance_table) const {
  const auto& counts = dominance_table ? dominance : outperformance;
  std::vector<std::string> header{dominance_table ? "dominates ->"
                                                  : "outperforms ->"};
  for (const auto& n : names) header.push_back(n);
  Table table(std::move(header));
  for (std::size_t a = 0; a < names.size(); ++a) {
    std::vector<std::string> row{names[a]};
    for (std::size_t b = 0; b < names.size(); ++b) {
      if (a == b) {
        row.push_back("N/A");
      } else {
        const double pct =
            scenarios ? 100.0 * counts[a][b] / scenarios : 0.0;
        row.push_back(strfmt("%d(%.1f%%)", counts[a][b], pct));
      }
    }
    table.add_row(std::move(row));
  }
  return table.to_text();
}

}  // namespace dpcp
