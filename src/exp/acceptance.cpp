#include "exp/acceptance.hpp"

#include <utility>

#include "util/table.hpp"

namespace dpcp {

std::int64_t AcceptanceCurve::total_accepted(std::size_t analysis) const {
  std::int64_t total = 0;
  for (std::int64_t a : accepted[analysis]) total += a;
  return total;
}

std::string AcceptanceCurve::to_table() const {
  std::vector<std::string> header{"norm-util", "util", "samples"};
  for (const auto& n : names) header.push_back(n);
  Table table(std::move(header));
  for (std::size_t p = 0; p < utilization.size(); ++p) {
    std::vector<std::string> row;
    row.push_back(strfmt("%.3f", utilization[p] / scenario.m));
    row.push_back(strfmt("%.2f", utilization[p]));
    row.push_back(strfmt("%lld", static_cast<long long>(samples[p])));
    for (std::size_t a = 0; a < names.size(); ++a)
      row.push_back(strfmt("%.3f", ratio(a, p)));
    table.add_row(std::move(row));
  }
  return table.to_text();
}

}  // namespace dpcp
