// Pluggable placement strategies for Algorithm 1.
//
// The paper pins Algorithm 2 to worst-fit-decreasing resource placement,
// but that is a heuristic: the analysis stack is partition-generic
// (WcrtOracle), so any placement that respects the capacity invariants
// yields a sound schedulability test.  A PlacementStrategy decides where
// each global resource's agent lives (Algorithm 2's slot in the loop).
//
// Strategies are stateless and deterministic: place_resources() must be a
// pure function of (task set, cluster shape), which is what makes the
// session-level PlacementCache (keyed by cache_key() + cluster shape) and
// the engine's thread-count-independent sweeps sound.  Every strategy's
// output is checked against Partition::validate() by partition_and_analyze
// before any analysis runs, so a buggy strategy is rejected, not silently
// analysed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/taskset.hpp"
#include "partition/partition.hpp"

namespace dpcp {

class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;

  /// CLI-facing token, e.g. "wfd" — also the display suffix of sweep
  /// columns when a placement axis is active ("DPCP-p-EP@wfd").
  virtual std::string name() const = 0;

  /// Places every global resource of `ts` onto a processor of `part`
  /// (clearing any previous placement first); cluster membership is not
  /// modified.  Returns false when no capacity-respecting placement
  /// exists.  Must be deterministic in (ts, cluster shape).
  virtual bool place_resources(const TaskSet& ts, Partition& part) const = 0;

  /// Key of this strategy's session-level placement memo: its name().
  std::string cache_key() const { return name(); }
};

/// The built-in strategies, in sweep-axis display order.  All four share
/// Algorithm 2's skeleton (resources in decreasing utilization, each to
/// the least-loaded processor of a chosen cluster) and differ only in how
/// they choose the cluster.
enum class PlacementKind {
  kWfd,         // Algorithm 2: worst-fit decreasing (the paper's default)
  kFirstFit,    // first-fit decreasing (ablation baseline)
  kBestFit,     // best-fit decreasing: tightest cluster that still fits
  kSyncAware,   // co-locate with the cluster requesting most often
};

/// The shared immutable instance of `kind` (strategies are stateless).
const PlacementStrategy& placement_strategy(PlacementKind kind);

/// All built-in strategies, in enum order.
std::vector<PlacementKind> all_placement_kinds();

/// CLI token of `kind`: wfd | ffd | bfd | sync.
std::string placement_kind_token(PlacementKind kind);

/// Inverse of placement_kind_token(); nullopt on an unknown token.
std::optional<PlacementKind> placement_kind_from_token(
    const std::string& token);

/// Parses a command-line placement-axis spec: a comma-separated list of
/// strategy tokens, where "all" stands for every built-in strategy.
/// Repeated strategies are dropped (first occurrence keeps its place), so
/// each yields one sweep column.  Returns nullopt and sets `error` on an
/// unknown token — callers must treat that as a hard usage error, never a
/// silent default.
std::optional<std::vector<PlacementKind>> placements_from_spec(
    const std::string& spec, std::string* error = nullptr);

}  // namespace dpcp
