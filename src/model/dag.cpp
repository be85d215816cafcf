#include "model/dag.hpp"

#include <algorithm>
#include <cassert>

namespace dpcp {

Dag::Dag(int vertex_count, const Edge* edges, std::size_t count)
    : succ_begin_(static_cast<std::size_t>(vertex_count) + 1, 0),
      succ_(count),
      in_degree_(static_cast<std::size_t>(vertex_count), 0) {
  assert(vertex_count >= 0);
  const auto n = static_cast<std::size_t>(vertex_count);
  // CSR by a counting sort on the source; the stable fill keeps each
  // vertex's successors in edge-list order.
  for (std::size_t e = 0; e < count; ++e) {
    assert(edges[e].first >= 0 && edges[e].first < vertex_count);
    assert(edges[e].second >= 0 && edges[e].second < vertex_count);
    ++succ_begin_[static_cast<std::size_t>(edges[e].first) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) succ_begin_[v + 1] += succ_begin_[v];
  std::vector<std::size_t> fill(succ_begin_.begin(), succ_begin_.end() - 1);
  for (std::size_t e = 0; e < count; ++e)
    succ_[fill[static_cast<std::size_t>(edges[e].first)]++] = edges[e].second;

  // Compact in place, dropping repeated edges (first occurrence kept):
  // scratch[w] == v marks w as already a successor of v.
  std::vector<int> scratch(n, -1);
  std::size_t out = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t b = succ_begin_[v], e = succ_begin_[v + 1];
    succ_begin_[v] = out;
    for (std::size_t i = b; i < e; ++i) {
      const auto w = static_cast<std::size_t>(succ_[i]);
      if (scratch[w] == static_cast<int>(v)) continue;
      scratch[w] = static_cast<int>(v);
      succ_[out++] = succ_[i];
      ++in_degree_[w];
    }
  }
  succ_begin_[n] = out;
  succ_.resize(out);

  for (VertexId v = 0; v < vertex_count; ++v)
    if (in_degree(v) == 0) heads_.push_back(v);
  // Kahn's queue, never popped, is the order itself; scratch now holds
  // the in-degrees still unmet.
  scratch = in_degree_;
  order_.reserve(n);
  order_.assign(heads_.begin(), heads_.end());
  for (std::size_t i = 0; i < order_.size(); ++i)
    for (VertexId w : successors(order_[i]))
      if (--scratch[static_cast<std::size_t>(w)] == 0) order_.push_back(w);
  if (order_.size() != n) order_.clear();
}

Time Dag::longest_path_weight(Slab<const Time> weight) const {
  assert(static_cast<int>(weight.size()) == size());
  std::vector<Time> start(weight.size(), 0);  // longest path ending before v
  Time best = 0;
  for (VertexId v : order_) {
    const auto uv = static_cast<std::size_t>(v);
    const Time finish = start[uv] + weight[uv];
    best = std::max(best, finish);
    for (VertexId w : successors(v))
      start[static_cast<std::size_t>(w)] =
          std::max(start[static_cast<std::size_t>(w)], finish);
  }
  return best;
}

std::int64_t Dag::count_complete_paths(std::int64_t cap) const {
  // count[v] = head -> v paths, saturated at cap.  Every sum is a
  // saturating add of two values <= cap, so no cap up to INT64_MAX
  // overflows.
  auto add = [cap](std::int64_t a, std::int64_t b) {
    return b >= cap - a ? cap : a + b;
  };
  std::vector<std::int64_t> count(in_degree_.size(), 0);
  std::int64_t total = 0;
  for (VertexId v : order_) {
    const std::int64_t c =
        in_degree(v) == 0 ? 1 : count[static_cast<std::size_t>(v)];
    const auto succ = successors(v);
    if (succ.empty()) {
      total = add(total, c);
      if (total >= cap) return cap;
    }
    for (VertexId w : succ)
      count[static_cast<std::size_t>(w)] =
          add(count[static_cast<std::size_t>(w)], c);
  }
  return total;
}

}  // namespace dpcp
