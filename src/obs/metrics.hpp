// Runtime metrics registry: the one telemetry surface every layer shares.
//
// A registry is a sorted map from a name to one integer metric:
//
//   * counters — int64 sums;
//   * histograms — exact IntHistogram cells (util/stats.hpp): every
//     observation lands in an integer cell, so percentiles are
//     bit-identical on any machine and merge deterministically;
//   * windows — RollingQuantile rings over the last N observations (the
//     admission SLO window shape), for "recent" percentiles.
//
// Producers keep their own statistics and hand a registry whole values
// when a report is asked for (the admission controller on a `metrics`
// command, an online stream when it ends); add() folds each in by name.
//
// Determinism contract — the reason this layer is integer/count-based:
//
//   * rendering iterates names in sorted order, so to_prometheus() /
//     to_json() are pure functions of the recorded values;
//   * merge() adds another registry's metrics by name, so merging
//     per-shard/per-stream instances in a fixed shard order yields
//     byte-identical reports at any thread count;
//   * no floats anywhere: sums, counts and nearest-rank percentiles
//     only, so golden transcripts can pin the output byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>

#include "util/stats.hpp"

namespace dpcp {

class MetricsRegistry {
 public:
  /// One metric; the alternative is its kind (counter, histogram, window).
  using Metric = std::variant<std::int64_t, IntHistogram, RollingQuantile>;

  /// Folds `value` into the metric `name`, creating it on first add:
  /// counters sum, histograms merge cells, and windows append the
  /// retained samples oldest-first (a window keeps the capacity of its
  /// first add).  A name names one kind; adding another kind under it
  /// throws std::logic_error.
  void add(const std::string& name, std::int64_t value);
  void add(const std::string& name, const IntHistogram& value);
  void add(const std::string& name, const RollingQuantile& value);

  /// add()s every metric of `o`.  Names absent here are created, so
  /// merging registries with disjoint metrics concatenates them.
  void merge(const MetricsRegistry& o);

  /// Counter value by name; 0 when no such counter exists.
  std::int64_t counter_value(const std::string& name) const;
  std::size_t num_metrics() const { return metrics_.size(); }

  /// Prometheus text exposition: `# TYPE` line per metric, names in
  /// sorted order, histograms/windows as summaries (quantile 0.5 / 0.9 /
  /// 0.99 / 1 plus _sum and _count).  Integer values only.
  std::string to_prometheus() const;
  /// One-line JSON: {"counters":{...},"histograms":{...},"windows":{...}},
  /// names sorted, integer values only.
  std::string to_json() const;

 private:
  // Sorted: the iteration order every renderer uses.
  std::map<std::string, Metric> metrics_;
};

}  // namespace dpcp
