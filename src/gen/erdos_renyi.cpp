#include "gen/erdos_renyi.hpp"

#include <cassert>
#include <climits>

namespace dpcp {

EdgeTest::EdgeTest(double edge_prob)
    : complete(edge_prob >= 1.0),
      threshold(complete ? 0 : Rng::bernoulli_threshold(edge_prob)) {
  assert(edge_prob >= 0.0 && edge_prob <= 1.0);
}

std::size_t draw_forward_edges(Rng& rng, int num_vertices, const EdgeTest& test,
                               std::vector<Edge>& edges) {
  assert(num_vertices > 0);
  const std::size_t pairs = static_cast<std::size_t>(num_vertices) *
                            static_cast<std::size_t>(num_vertices - 1) / 2;
  assert(pairs <= static_cast<std::size_t>(INT_MAX));  // pair ids are VertexIds
  if (edges.size() < pairs) edges.resize(pairs);
  // This pair loop is the hottest RNG consumer in the repo (~n^2/2 trials
  // per DAG, ~10^8 per full sweep).  It reads the words straight from the
  // engine's buffer and appends without a branch: every pair stores its
  // x-major index in edges[count].second (count <= the pairs seen so far,
  // so in range), and only an accepted pair advances count.  That is one
  // store per pair; the pass below turns the indices of the edges alone
  // into (x, y).
  Edge* const out = edges.data();
  const std::uint64_t threshold = test.threshold;
  const bool complete = test.complete;
  std::size_t count = 0;
  VertexId first_pair = 0;
  rng.engine().visit(pairs, [&](const std::uint64_t* words, std::size_t n) {
    std::size_t c = count;
    for (std::size_t i = 0; i < n; ++i) {
      out[c].second = first_pair + static_cast<VertexId>(i);
      c += (words[i] < threshold) | complete;
    }
    count = c;
    first_pair += static_cast<VertexId>(n);
  });
  // Row x holds the pairs (x, x+1) .. (x, n-1).
  VertexId x = 0, row_begin = 0, row_end = num_vertices - 1;
  for (std::size_t e = 0; e < count; ++e) {
    const VertexId pair = out[e].second;
    while (pair >= row_end) {
      ++x;
      row_begin = row_end;
      row_end += num_vertices - 1 - x;
    }
    out[e] = {x, x + 1 + (pair - row_begin)};
  }
  return count;
}

Dag erdos_renyi_dag(Rng& rng, int num_vertices, double edge_prob) {
  std::vector<Edge> edges;
  const std::size_t count =
      draw_forward_edges(rng, num_vertices, EdgeTest(edge_prob), edges);
  return Dag(num_vertices, edges.data(), count);
}

}  // namespace dpcp
