// Scenario-set parsing for the sweep and replay CLIs.
//
// The paper's space (Sec. VII-A) is the cross product of six parameter
// axes, 216 combinations in all; gen/scenario.hpp builds that exact grid
// (all_scenarios()) and the four Fig. 2 corners.  The CLIs select a
// subset of it through one spec.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gen/scenario.hpp"

namespace dpcp {

/// Parses a driver-facing scenario-set spec.  Accepted tokens, comma
/// separated and concatenated in order:
///   "all"        the full 216-scenario paper grid
///   "fig2"       the four Fig. 2 sub-figure scenarios (a, b, c, d)
///   "a".."d"     one Fig. 2 sub-figure scenario
///   "first:K"    the first K scenarios of the paper grid
/// Returns nullopt and sets `error` on an unrecognized token.
std::optional<std::vector<Scenario>> scenarios_from_spec(
    const std::string& spec, std::string* error = nullptr);

}  // namespace dpcp
