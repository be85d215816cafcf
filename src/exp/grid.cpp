#include "exp/grid.hpp"

#include "util/parse.hpp"
#include "util/table.hpp"

namespace dpcp {

std::optional<std::vector<Scenario>> scenarios_from_spec(
    const std::string& spec, std::string* error) {
  std::vector<Scenario> out;
  for (const std::string& token : split(spec, ',')) {
    if (token == "all") {
      const auto grid = all_scenarios();
      out.insert(out.end(), grid.begin(), grid.end());
    } else if (token == "fig2") {
      for (char c : {'a', 'b', 'c', 'd'}) out.push_back(fig2_scenario(c));
    } else if (token.size() == 1 && token[0] >= 'a' && token[0] <= 'd') {
      out.push_back(fig2_scenario(token[0]));
    } else if (token.rfind("first:", 0) == 0) {
      const auto k = parse_int(token.substr(6), 1);
      if (!k) {
        if (error) *error = strfmt("bad scenario count in '%s'", token.c_str());
        return std::nullopt;
      }
      auto grid = all_scenarios();
      if (static_cast<std::size_t>(*k) < grid.size())
        grid.resize(static_cast<std::size_t>(*k));
      out.insert(out.end(), grid.begin(), grid.end());
    } else {
      if (error)
        *error = strfmt(
            "unknown scenario spec '%s' (expect all | fig2 | a..d | first:K)",
            token.c_str());
      return std::nullopt;
    }
  }
  return out;
}

}  // namespace dpcp
