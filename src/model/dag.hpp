// Directed-acyclic-graph structure G_i = <V_i, E_i> of a parallel task.
//
// Vertices are dense integer ids.  A Dag is built once from an edge list
// and then frozen: successors in CSR form (each vertex keeps its
// successors in edge-list order), in-degrees, heads and Kahn's topological
// order are all computed by the constructor, so every reader -- L*, the
// complete-path count, path enumeration, the simulator -- walks the same
// arrays and no query recomputes the order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/slab.hpp"
#include "util/time.hpp"

namespace dpcp {

using VertexId = int;
/// A precedence edge (from, to).
using Edge = std::pair<VertexId, VertexId>;

class Dag {
 public:
  /// The graph on `vertex_count` vertices with edges[0, count), every
  /// endpoint in range.  A repeated edge is dropped.  A self-loop or a
  /// cycle leaves the topological order empty (is_acyclic() is false).
  explicit Dag(int vertex_count = 0, const Edge* edges = nullptr,
               std::size_t count = 0);

  int size() const { return static_cast<int>(in_degree_.size()); }

  Slab<const VertexId> successors(VertexId v) const {
    const auto b = succ_begin_[static_cast<std::size_t>(v)];
    return {succ_.data() + b, succ_begin_[static_cast<std::size_t>(v) + 1] - b};
  }
  int in_degree(VertexId v) const {
    return in_degree_[static_cast<std::size_t>(v)];
  }

  /// Vertices with no predecessors, in id order.
  Slab<const VertexId> heads() const { return {heads_.data(), heads_.size()}; }

  /// Kahn topological order (heads in id order, then each vertex as its
  /// last predecessor is dequeued); empty if the graph has a cycle.
  Slab<const VertexId> topological_order() const {
    return {order_.data(), order_.size()};
  }

  bool is_acyclic() const { return order_.size() == in_degree_.size(); }

  /// Longest path weight where vertex v contributes weight[v]; edges are
  /// free.  This is L*_i when weights are WCETs.  0 on a cyclic graph.
  Time longest_path_weight(Slab<const Time> weight) const;

  /// Number of distinct complete (head -> tail) paths, saturating at `cap`
  /// (any cap up to INT64_MAX).  0 on a cyclic graph.
  std::int64_t count_complete_paths(std::int64_t cap = INT64_MAX) const;

 private:
  std::vector<std::size_t> succ_begin_;  // CSR offsets, size() + 1
  std::vector<VertexId> succ_;
  std::vector<int> in_degree_;
  std::vector<VertexId> heads_;
  std::vector<VertexId> order_;
};

}  // namespace dpcp
