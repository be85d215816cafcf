// Runtime metrics registry: the one telemetry surface every layer shares.
//
// A registry is a set of *named* integer metrics behind cheap index
// handles:
//
//   * counters — monotone (or set-once gauge-style) int64 values;
//     inc() is a vector-indexed add, no lookup and no allocation;
//   * histograms — exact IntHistogram cells (util/stats.hpp): every
//     observation lands in an integer cell, so percentiles are
//     bit-identical on any machine and merge deterministically;
//   * windows — RollingQuantile rings over the last N observations (the
//     admission SLO window shape), for "recent" percentiles.
//
// Handles are resolved once, at registration time (typically a
// constructor); the hot path only indexes vectors.  Histogram
// observations may allocate a new cell for a previously unseen value
// (amortized: bounded by the number of distinct values), counters never
// allocate.
//
// Determinism contract — the reason this layer is integer/count-based:
//
//   * rendering iterates names in sorted order, so to_prometheus() /
//     to_json() are pure functions of the recorded values;
//   * merge() folds another registry in by *name* (sums counters, merges
//     histogram cells, appends window samples oldest-first), so merging
//     per-shard/per-stream instances in a fixed shard order yields
//     byte-identical reports at any thread count;
//   * no floats anywhere: sums, counts and nearest-rank percentiles
//     only, so golden transcripts can pin the output byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/instrument.hpp"
#include "util/stats.hpp"

namespace dpcp {

class PreparedAnalysis;  // analysis/prepared.hpp

class MetricsRegistry {
 public:
  struct Counter {
    std::size_t index = 0;
  };
  struct Histogram {
    std::size_t index = 0;
  };
  struct Window {
    std::size_t index = 0;
  };

  /// Get-or-create by name (idempotent: the same name always returns the
  /// same handle).  A name names exactly one metric kind; re-registering
  /// it as a different kind throws std::logic_error.
  Counter counter(const std::string& name);
  Histogram histogram(const std::string& name);
  /// `capacity` is fixed at first registration; later calls ignore it.
  Window window(const std::string& name, std::size_t capacity);

  // --- hot path (no lookup, no allocation for counters/windows) ----------
  void inc(Counter h, std::int64_t delta = 1) {
    counter_values_[h.index] += delta;
  }
  /// Gauge-style overwrite (restore paths, folded-in snapshots).
  void set(Counter h, std::int64_t value) { counter_values_[h.index] = value; }
  void observe(Histogram h, std::int64_t value) {
    hist_values_[h.index].add(value);
  }
  void observe(Window h, std::int64_t value) {
    window_values_[h.index].add(value);
  }
  /// Folds an externally-maintained distribution into a handle (restore
  /// paths re-seeding handles from snapshot state).
  void fold(Histogram h, const IntHistogram& o) {
    hist_values_[h.index].merge(o);
  }
  void fold(Window h, const RollingQuantile& o) {
    window_values_[h.index].merge(o);
  }

  // --- introspection ------------------------------------------------------
  std::int64_t value(Counter h) const { return counter_values_[h.index]; }
  const IntHistogram& values(Histogram h) const {
    return hist_values_[h.index];
  }
  const RollingQuantile& values(Window h) const {
    return window_values_[h.index];
  }
  /// Counter value by name; 0 when no such counter exists.
  std::int64_t counter_value(const std::string& name) const;
  std::size_t num_metrics() const {
    return counter_values_.size() + hist_values_.size() +
           window_values_.size();
  }

  /// Folds `o` in by name: counters sum, histograms merge cells, windows
  /// append o's retained samples oldest-first.  Names absent here are
  /// created, so merging registries with disjoint metrics concatenates
  /// them.  Deterministic: merging per-shard instances in a fixed order
  /// yields the same registry regardless of how work was threaded.
  void merge(const MetricsRegistry& o);

  /// Prometheus text exposition: `# TYPE` line per metric, names in
  /// sorted order, histograms/windows as summaries (quantile 0.5 / 0.9 /
  /// 0.99 / 1 plus _sum and _count).  Integer values only.
  std::string to_prometheus() const;
  /// One-line JSON: {"counters":{...},"histograms":{...},"windows":{...}},
  /// names sorted, integer values only.
  std::string to_json() const;

 private:
  enum class Kind { kCounter, kHistogram, kWindow };

  std::size_t register_name(const std::string& name, Kind kind);

  // name -> (kind, index into the kind's value vector); the map is the
  // sorted iteration order every renderer uses.
  std::map<std::string, std::pair<Kind, std::size_t>> names_;
  std::vector<std::int64_t> counter_values_;
  std::vector<IntHistogram> hist_values_;
  std::vector<RollingQuantile> window_values_;
};

/// Adds the analysis-layer cache counters to `reg`: a session's response
/// memo hits/misses (`stats`) and a prepared oracle's bind() diffs, as
/// slab reuses (inputs unchanged, cached tables kept) and rebuilds.
/// Accumulating, so folding several sessions — or merging registries that
/// each folded their own — sums them.
void fold_cache_stats(const CacheStats& stats, const PreparedAnalysis& oracle,
                      MetricsRegistry& reg);

}  // namespace dpcp
