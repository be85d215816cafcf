#include "model/dag.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace dpcp {

void Dag::resize(int vertex_count) {
  assert(vertex_count >= 0);
  succ_.resize(static_cast<std::size_t>(vertex_count));
  pred_.resize(static_cast<std::size_t>(vertex_count));
}

VertexId Dag::add_vertex() {
  succ_.emplace_back();
  pred_.emplace_back();
  return size() - 1;
}

void Dag::reserve(int vertex_count) {
  assert(vertex_count >= 0);
  succ_.reserve(static_cast<std::size_t>(vertex_count));
  pred_.reserve(static_cast<std::size_t>(vertex_count));
}

void Dag::add_edge(VertexId from, VertexId to) {
  assert(from >= 0 && from < size());
  assert(to >= 0 && to < size());
  assert(from != to);
  if (has_edge(from, to)) return;
  succ_[from].push_back(to);
  pred_[to].push_back(from);
}

void Dag::bulk_add_edges(const Edge* edges, std::size_t count) {
  std::vector<int> out_deg(succ_.size(), 0), in_deg(pred_.size(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto [from, to] = edges[i];
    assert(from >= 0 && from < size());
    assert(to >= 0 && to < size());
    assert(from != to);
    ++out_deg[static_cast<std::size_t>(from)];
    ++in_deg[static_cast<std::size_t>(to)];
  }
  for (std::size_t v = 0; v < succ_.size(); ++v) {
    if (out_deg[v] > 0)
      succ_[v].reserve(succ_[v].size() + static_cast<std::size_t>(out_deg[v]));
    if (in_deg[v] > 0)
      pred_[v].reserve(pred_[v].size() + static_cast<std::size_t>(in_deg[v]));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const auto [from, to] = edges[i];
    // Checked at insertion time so duplicates *within* the batch are
    // caught too, keeping the documented add_edge() equivalence honest.
    assert(!has_edge(from, to));
    succ_[from].push_back(to);
    pred_[to].push_back(from);
  }
}

bool Dag::has_edge(VertexId from, VertexId to) const {
  const auto& s = succ_[from];
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<VertexId> Dag::heads() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < size(); ++v)
    if (pred_[v].empty()) out.push_back(v);
  return out;
}

std::vector<VertexId> Dag::tails() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < size(); ++v)
    if (succ_[v].empty()) out.push_back(v);
  return out;
}

std::vector<VertexId> Dag::topological_order() const {
  std::vector<int> indegree(static_cast<std::size_t>(size()), 0);
  for (VertexId v = 0; v < size(); ++v)
    indegree[v] = static_cast<int>(pred_[v].size());
  // Kahn's queue, never popped, is the order itself.
  std::vector<VertexId> order = heads();
  order.reserve(static_cast<std::size_t>(size()));
  for (std::size_t i = 0; i < order.size(); ++i)
    for (VertexId w : succ_[order[i]])
      if (--indegree[w] == 0) order.push_back(w);
  if (static_cast<int>(order.size()) != size()) return {};
  return order;
}

bool Dag::is_acyclic() const {
  return size() == 0 || !topological_order().empty();
}

Time Dag::longest_path_weight(const std::vector<Time>& vertex_weight) const {
  assert(static_cast<int>(vertex_weight.size()) == size());
  const auto order = topological_order();
  assert(size() == 0 || !order.empty());
  std::vector<Time> best(static_cast<std::size_t>(size()), 0);
  Time global = 0;
  for (VertexId v : order) {
    Time in = 0;
    for (VertexId p : pred_[v]) in = std::max(in, best[p]);
    best[v] = in + vertex_weight[v];
    global = std::max(global, best[v]);
  }
  return global;
}

std::vector<VertexId> Dag::longest_path(
    const std::vector<Time>& vertex_weight) const {
  assert(static_cast<int>(vertex_weight.size()) == size());
  const auto order = topological_order();
  std::vector<Time> best(static_cast<std::size_t>(size()), 0);
  std::vector<VertexId> from(static_cast<std::size_t>(size()), -1);
  VertexId argmax = -1;
  Time global = -1;
  for (VertexId v : order) {
    Time in = 0;
    VertexId via = -1;
    for (VertexId p : pred_[v]) {
      if (best[p] > in) {
        in = best[p];
        via = p;
      }
    }
    best[v] = in + vertex_weight[v];
    from[v] = via;
    if (best[v] > global) {
      global = best[v];
      argmax = v;
    }
  }
  std::vector<VertexId> path;
  for (VertexId v = argmax; v != -1; v = from[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::int64_t Dag::count_complete_paths(std::int64_t cap) const {
  const auto order = topological_order();
  if (order.empty()) return 0;
  std::vector<std::int64_t> count(static_cast<std::size_t>(size()), 0);
  std::int64_t total = 0;
  for (VertexId v : order) {
    std::int64_t in = 0;
    if (pred_[v].empty()) {
      in = 1;
    } else {
      for (VertexId p : pred_[v]) {
        in += count[p];
        if (in >= cap) {
          in = cap;
          break;
        }
      }
    }
    count[v] = in;
    if (succ_[v].empty()) {
      total += in;
      if (total >= cap) return cap;
    }
  }
  return total;
}

std::string Dag::to_string() const {
  std::ostringstream os;
  os << "Dag(" << size() << " vertices; edges:";
  for (VertexId v = 0; v < size(); ++v)
    for (VertexId w : succ_[v]) os << ' ' << v << "->" << w;
  os << ')';
  return os.str();
}

}  // namespace dpcp
