// Public facade of the DPCP-p library.
//
// Reproduction of "DPCP-p: A Distributed Locking Protocol for Parallel
// Real-Time Tasks" (Yang et al., DAC 2020).  Typical usage:
//
//   #include "core/dpcp.hpp"
//
//   dpcp::Rng rng(1);
//   dpcp::GenParams params;                     // paper Sec. VII-A defaults
//   params.total_utilization = 8.0;
//   auto ts = dpcp::generate_taskset(rng, params);
//   dpcp::SchedAnalysis analysis(dpcp::AnalysisKind::kDpcpPEp);
//   auto outcome = analysis.test(*ts, /*m=*/16);    // Algorithm 1 + Sec. IV
//   if (outcome.schedulable) { /* per-task WCRTs in outcome.wcrt */ }
//
//   // Execute the protocol and validate Lemma 1 at runtime:
//   auto sim = dpcp::simulate(*ts, outcome.partition);
//   assert(sim.all_invariants_hold());
//
//   // Or sweep whole scenario grids through the experiment engine:
//   auto result = dpcp::run_sweep(dpcp::all_scenarios(),
//                                 dpcp::all_analysis_kinds(), {});
//   dpcp::write_sweep_csv("sweep.csv", result);
#pragma once

#include "analysis/dpcp_p.hpp"
#include "analysis/fed_fp.hpp"
#include "analysis/interface.hpp"
#include "analysis/lpp.hpp"
#include "analysis/prepared.hpp"
#include "analysis/session.hpp"
#include "analysis/spin_son.hpp"
#include "exp/acceptance.hpp"
#include "exp/dominance.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/validate.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/randfixedsum.hpp"
#include "gen/scenario.hpp"
#include "gen/taskset_gen.hpp"
#include "model/dag.hpp"
#include "model/paths.hpp"
#include "model/resource.hpp"
#include "model/task.hpp"
#include "model/taskset.hpp"
#include "opt/move.hpp"
#include "opt/optimizer.hpp"
#include "partition/federated.hpp"
#include "partition/partition.hpp"
#include "partition/partitioner.hpp"
#include "partition/placement.hpp"
#include "sim/config.hpp"
#include "sim/segments.hpp"
#include "sim/simulator.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
