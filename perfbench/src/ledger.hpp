// The per-layer ledger of a traced run: span self times from the Tracer
// plus the counters the benchmark reads off the library's public result
// types, rendered as the per_layer metrics and as a table on stderr.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Analysis kinds in the library's display order, as metric-name tokens.
inline constexpr const char* kKindTokens[5] = {"ep", "en", "spin", "lpp",
                                               "fed"};

/// Span kind names shared by the workloads.
inline constexpr const char* kSpanRequest = "request";
inline constexpr const char* kSpanGen = "gen";
inline constexpr const char* kSpanPaths = "model.paths";
inline constexpr const char* kSpanPrepare = "analysis.prepare";
inline constexpr const char* kSpanPartition = "partition";
inline constexpr const char* kSpanSim = "sim";
inline constexpr const char* kSpanValidate = "exp.validate";
inline constexpr const char* kSpanReport = "exp.report";
inline constexpr const char* kSpanParse = "io.parse";
inline constexpr const char* kSpanFormat = "io.format";
inline constexpr const char* kSpanAdmit = "opt.admit";
inline constexpr const char* kSpanDepart = "opt.depart";
inline std::string wcrt_span(int kind) {
  return std::string("analysis.") + kKindTokens[kind] + ".wcrt";
}
inline std::string bind_span(int kind) {
  return std::string("analysis.") + kKindTokens[kind] + ".bind";
}

/// Counters a traced run reads from the library's public results (the
/// Tracer supplies the times and span counts).
struct LayerCounters {
  std::int64_t gen_tasks_kept = 0;
  std::int64_t gen_task_retries = 0;
  std::int64_t paths_visited = 0;
  std::int64_t wcrt_calls[5] = {};
  std::int64_t binds[5] = {};
  std::int64_t diffs_unchanged = 0;
  std::int64_t diffs_invalidated = 0;
  std::int64_t rounds = 0;
  std::int64_t sim_events = 0;
  std::int64_t io_bytes = 0;
  std::int64_t opt_submitted = 0;
  std::int64_t opt_accepted = 0;
  std::int64_t opt_oracle_calls = 0;
  std::int64_t opt_tasks_reused = 0;
  std::int64_t opt_repair_accepts = 0;
  std::int64_t opt_readmits = 0;
  /// Server front self time, derived as timed feed time minus the io and
  /// opt self times of the matching direct replay (admit-churn only).
  double serve_self_s = 0.0;
  /// Wall time of the untraced runs of the same requests.
  double untraced_s = 0.0;
};

/// Appends every per_layer metric to `report` and prints the ledger table
/// (self time, calls, share of traced wall per layer) to stderr.
void add_layer_metrics(const std::string& workload, const Tracer& tracer,
                       const LayerCounters& c, RunReport* report);

}  // namespace perfbench
