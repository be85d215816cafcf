// Small statistics helpers for the experiment harness.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "util/ring.hpp"

namespace dpcp {

/// Streaming mean and extrema.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact integer histogram with nearest-rank percentiles.
///
/// Everything is integer counts — adding the same samples in any order
/// (or merging per-shard histograms) produces the same cells and the same
/// percentiles, which is what lets the admission service report
/// count-based latency SLO numbers that are bit-identical on any machine
/// and at any thread count.  Cells are ordered, so serializing them (the
/// controller snapshot does) is deterministic too.
class IntHistogram {
 public:
  void add(std::int64_t value, std::int64_t count = 1) {
    assert(count > 0);
    cells_[value] += count;
    total_ += count;
  }
  void merge(const IntHistogram& o) {
    for (const auto& [v, c] : o.cells_) cells_[v] += c;
    total_ += o.total_;
  }

  std::int64_t count() const { return total_; }
  std::int64_t min() const { return total_ ? cells_.begin()->first : 0; }
  std::int64_t max() const { return total_ ? cells_.rbegin()->first : 0; }

  /// Nearest-rank percentile: the smallest recorded value whose cumulative
  /// count reaches ceil(pct/100 * total).  0 on an empty histogram.
  std::int64_t percentile(int pct) const {
    assert(pct >= 1 && pct <= 100);
    if (!total_) return 0;
    const std::int64_t rank =
        (total_ * pct + 99) / 100;  // ceil, in integer arithmetic
    std::int64_t seen = 0;
    for (const auto& [v, c] : cells_) {
      seen += c;
      if (seen >= rank) return v;
    }
    return cells_.rbegin()->first;
  }

  /// Value -> count, ordered by value (deterministic iteration).
  const std::map<std::int64_t, std::int64_t>& cells() const { return cells_; }

 private:
  std::map<std::int64_t, std::int64_t> cells_;
  std::int64_t total_ = 0;
};

/// Nearest-rank percentile over the last `capacity` samples — the rolling
/// window the admission SLO layer degrades on.  Count-based and exactly
/// reproducible: the window contents (insertion order) serialize into the
/// controller snapshot so a restored shard degrades at the same events.
class RollingQuantile {
 public:
  explicit RollingQuantile(std::size_t capacity) : window_(capacity) {
    assert(capacity > 0);
  }

  void add(std::int64_t v) { window_.push(v); }

  /// Folds in `o`'s retained window, oldest first — exactly equivalent
  /// to feeding o's surviving samples into this window after this one's
  /// own stream (the single-stream equivalence tests/test_obs.cpp pins).
  /// Self-merge replays a copy of the current window, so it is safe.
  void merge(const RollingQuantile& o) {
    for (std::int64_t v : o.samples_in_order()) add(v);
  }

  std::size_t size() const { return window_.size(); }
  std::size_t capacity() const { return window_.capacity(); }

  std::int64_t percentile(int pct) const {
    assert(pct >= 1 && pct <= 100);
    if (window_.size() == 0) return 0;
    std::vector<std::int64_t> sorted = window_.values();
    const std::size_t rank =
        (window_.size() * static_cast<std::size_t>(pct) + 99) / 100;
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    return sorted[rank - 1];
  }

  /// Window contents oldest-first (the snapshot serialization order).
  std::vector<std::int64_t> samples_in_order() const {
    return window_.last(window_.size());
  }

 private:
  BoundedRing<std::int64_t> window_;
};

/// Accepted / total counter for schedulability experiments.
class AcceptanceCounter {
 public:
  void add(bool accepted) {
    ++total_;
    if (accepted) ++accepted_;
  }
  /// Bulk form: fold in `accepted` schedulable task sets out of `total`
  /// tested (pre-counted, e.g. one utilization point of a sweep).
  void add_many(std::int64_t accepted, std::int64_t total) {
    assert(0 <= accepted && accepted <= total);
    total_ += total;
    accepted_ += accepted;
  }
  void merge(const AcceptanceCounter& o) {
    total_ += o.total_;
    accepted_ += o.accepted_;
  }
  std::int64_t total() const { return total_; }
  std::int64_t accepted() const { return accepted_; }
  double ratio() const {
    return total_ ? static_cast<double>(accepted_) / static_cast<double>(total_) : 0.0;
  }

 private:
  std::int64_t total_ = 0;
  std::int64_t accepted_ = 0;
};

}  // namespace dpcp
