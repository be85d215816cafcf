// The benchmark's workloads.  Each runs for RunConfig::seconds on one
// thread and fills a RunReport: end-to-end metrics when untraced, the
// per-layer ledger when traced.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// sweep-paper and sweep-validate: run_sweep plus the exp/report writers.
RunReport run_sweep_workload(const RunConfig& config);

/// The sweep workloads' set-up — scenario grid, the five analyses, the
/// first generated task set — as run by a set-up probe process.
bool sweep_setup(const RunConfig& config);

/// Spawns this binary as a set-up probe and returns the seconds from the
/// spawn to the probe's ready signal, or -1 on failure.
double time_setup_probe(const RunConfig& config);

/// admit-churn: one closed-loop client driving a CommandSession.
RunReport run_churn_workload(const RunConfig& config);

}  // namespace perfbench
