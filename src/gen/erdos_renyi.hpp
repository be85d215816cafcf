// Random DAG structure generation in the style of Cordeiro et al.
// (SIMUTools 2010), as used by the paper (Sec. VII-A): vertices are
// numbered 0..n-1 and each forward pair (x, y), x < y, becomes an edge
// with independent probability p.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/dag.hpp"
#include "util/rng.hpp"

namespace dpcp {

/// The pair test bernoulli(p) in integer form: a pair's raw draw makes an
/// edge when it is below `threshold`, or always when `complete` (p >= 1
/// has no finite threshold).  Build it once per edge probability: the
/// threshold is a 64-step search.
struct EdgeTest {
  explicit EdgeTest(double edge_prob);
  bool complete;
  std::uint64_t threshold;
};

/// Draws G(n, p) as an x-major edge list: one raw draw per forward pair
/// (x, y), x < y, in x-major order -- the stream bernoulli(p) per pair
/// consumes, accepting the same draws.  Grows `edges` to at least
/// n(n-1)/2 entries and returns the edge count; edges[0, count) are the
/// edges, so index order is a topological order.
std::size_t draw_forward_edges(Rng& rng, int num_vertices, const EdgeTest& test,
                               std::vector<Edge>& edges);

/// G(n, p) layer-free Erdos-Renyi DAG.  Acyclic by construction (edges only
/// go from lower to higher index).
Dag erdos_renyi_dag(Rng& rng, int num_vertices, double edge_prob);

}  // namespace dpcp
