// Directed-acyclic-graph structure G_i = <V_i, E_i> of a parallel task.
//
// Vertices are dense integer ids.  The class maintains forward and reverse
// adjacency and offers the graph algorithms the analysis needs: validation
// (acyclicity), topological order, head/tail vertex sets and weighted
// longest paths (L* in the paper's notation).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace dpcp {

using VertexId = int;
/// A precedence edge (from, to).
using Edge = std::pair<VertexId, VertexId>;

class Dag {
 public:
  Dag() = default;
  explicit Dag(int vertex_count) { resize(vertex_count); }

  void resize(int vertex_count);
  VertexId add_vertex();
  /// Pre-allocates adjacency storage for `vertex_count` vertices (the
  /// generator knows |V| before building; avoids realloc churn).
  void reserve(int vertex_count);

  /// Adds the precedence edge (from -> to).  Duplicate edges are ignored.
  void add_edge(VertexId from, VertexId to);

  /// Adds edges[0, count), known to be distinct and not yet present
  /// (asserted in debug builds), reserving exact adjacency capacity first.
  /// Equivalent to add_edge() per pair, in order; used by the generator's
  /// bulk construction path.
  void bulk_add_edges(const Edge* edges, std::size_t count);

  int size() const { return static_cast<int>(succ_.size()); }
  bool has_edge(VertexId from, VertexId to) const;

  const std::vector<VertexId>& successors(VertexId v) const { return succ_[v]; }
  const std::vector<VertexId>& predecessors(VertexId v) const { return pred_[v]; }

  /// Vertices with no predecessors / no successors.
  std::vector<VertexId> heads() const;
  std::vector<VertexId> tails() const;

  /// Kahn topological order; empty if the graph has a cycle (or is empty).
  std::vector<VertexId> topological_order() const;

  bool is_acyclic() const;

  /// Longest path weight where vertex v contributes weight[v]; edges are
  /// free.  Requires acyclicity.  This is L*_i when weights are WCETs.
  Time longest_path_weight(const std::vector<Time>& vertex_weight) const;

  /// Vertices of one longest path (useful for tests and traces).
  std::vector<VertexId> longest_path(const std::vector<Time>& vertex_weight) const;

  /// Number of distinct complete (head -> tail) paths, saturating at `cap`.
  std::int64_t count_complete_paths(std::int64_t cap = INT64_MAX / 2) const;

  /// Human-readable edge list, for error messages and traces.
  std::string to_string() const;

 private:
  std::vector<std::vector<VertexId>> succ_;
  std::vector<std::vector<VertexId>> pred_;
};

}  // namespace dpcp
