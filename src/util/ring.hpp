// A bounded ring: keeps the last `capacity` values pushed, overwriting the
// oldest once full, and counts every push.  The admission decision trace
// (obs/decision_trace.hpp) and the rolling SLO window (util/stats.hpp
// RollingQuantile) are rings of this kind.  The simulator's FIFO queues
// (sim/simulator.cpp) are a different structure: they grow and pop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dpcp {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {
    values_.reserve(capacity_);
  }

  /// Appends `v`, dropping the oldest value when full (a ring of
  /// capacity 0 only counts).
  void push(const T& v) {
    ++recorded_;
    if (capacity_ == 0) return;
    if (values_.size() < capacity_) {
      values_.push_back(v);
    } else {
      values_[next_] = v;
      next_ = (next_ + 1) % capacity_;
    }
  }

  std::size_t capacity() const { return capacity_; }
  /// Values currently retained (<= capacity).
  std::size_t size() const { return values_.size(); }
  /// Lifetime values pushed, including overwritten ones.
  std::int64_t recorded() const { return recorded_; }
  /// The retained values in storage order (for order-free statistics).
  const std::vector<T>& values() const { return values_; }

  /// The most recent min(n, size()) values, oldest first.
  std::vector<T> last(std::size_t n) const {
    const std::size_t take = std::min(n, values_.size());
    std::vector<T> out;
    out.reserve(take);
    for (std::size_t k = values_.size() - take; k < values_.size(); ++k)
      out.push_back(values_[(next_ + k) % values_.size()]);
    return out;
  }

 private:
  std::size_t capacity_;
  std::vector<T> values_;
  std::size_t next_ = 0;  // overwrite cursor once full (oldest value)
  std::int64_t recorded_ = 0;
};

}  // namespace dpcp
