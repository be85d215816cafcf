#include "model/task.hpp"

#include <cassert>
#include <sstream>

namespace dpcp {

VertexId DagTask::add_vertex(Time wcet, std::vector<int> requests) {
  assert(wcet >= 0);
  Vertex v;
  v.wcet = wcet;
  v.requests = std::move(requests);
  // Trailing zeros need no storage: requests_to() reads past the stored
  // size as zero, and most vertices request nothing at all.  Shrinking
  // (never growing) also caps the vector at the resource arity, as the
  // historical zero-extension did.
  std::size_t n = std::min(v.requests.size(),
                           static_cast<std::size_t>(num_resources()));
  while (n > 0 && v.requests[n - 1] == 0) --n;
  v.requests.resize(n);
  vertices_.push_back(std::move(v));
  const VertexId id = graph_.add_vertex();
  assert(id == static_cast<VertexId>(vertices_.size()) - 1);
  return id;
}

void DagTask::reserve_vertices(int count) {
  vertices_.reserve(static_cast<std::size_t>(count));
  graph_.reserve(count);
}

std::vector<ResourceId> DagTask::used_resources() const {
  std::vector<ResourceId> out;
  for (ResourceId q = 0; q < num_resources(); ++q)
    if (usage_[q].used()) out.push_back(q);
  return out;
}

void DagTask::finalize() {
  assert(graph_.size() == vertex_count());
  wcet_ = 0;
  for (auto& u : usage_) u.max_requests = 0;
  for (const Vertex& v : vertices_) {
    wcet_ += v.wcet;
    // v.requests never extends past num_resources() (see add_vertex).
    for (std::size_t q = 0; q < v.requests.size(); ++q)
      usage_[q].max_requests += v.requests[q];
  }
  lstar_ = graph_.longest_path_weight(vertex_weights());
}

Time DagTask::cs_demand() const {
  Time total = 0;
  for (const auto& u : usage_) total += u.demand();
  return total;
}

Time DagTask::vertex_noncrit_wcet(VertexId v) const {
  Time cs = 0;
  for (ResourceId q = 0; q < num_resources(); ++q)
    cs += static_cast<Time>(vertices_[v].requests_to(q)) * usage_[q].cs_length;
  return vertices_[v].wcet - cs;
}

std::vector<Time> DagTask::vertex_weights() const {
  std::vector<Time> w;
  w.reserve(vertices_.size());
  for (const Vertex& v : vertices_) w.push_back(v.wcet);
  return w;
}

std::optional<std::string> DagTask::validate() const {
  std::ostringstream err;
  if (period_ <= 0) {
    err << "task " << id_ << ": non-positive period";
    return err.str();
  }
  if (deadline_ <= 0 || deadline_ > period_) {
    err << "task " << id_ << ": deadline must satisfy 0 < D <= T";
    return err.str();
  }
  if (vertex_count() == 0) {
    err << "task " << id_ << ": empty graph";
    return err.str();
  }
  if (graph_.size() != vertex_count()) {
    err << "task " << id_ << ": graph/vertex arity mismatch";
    return err.str();
  }
  if (!graph_.is_acyclic()) {
    err << "task " << id_ << ": graph has a cycle";
    return err.str();
  }
  for (VertexId x = 0; x < vertex_count(); ++x) {
    const Vertex& v = vertices_[x];
    if (v.wcet <= 0) {
      err << "task " << id_ << " vertex " << x << ": non-positive WCET";
      return err.str();
    }
    // sum_q N_{i,x,q} L_{i,q} in checked arithmetic: a demand that
    // overflows int64 exceeds every WCET.
    Time demand = 0;
    bool overflow = false;
    for (ResourceId q = 0; q < num_resources() && !overflow; ++q) {
      Time cs = 0;
      overflow = __builtin_mul_overflow(static_cast<Time>(v.requests_to(q)),
                                        usage_[q].cs_length, &cs) ||
                 __builtin_add_overflow(demand, cs, &demand);
    }
    if (overflow || demand > v.wcet) {
      err << "task " << id_ << " vertex " << x
          << ": WCET smaller than its critical-section demand "
             "(violates C_{i,x} >= sum_q N_{i,x,q} L_{i,q})";
      return err.str();
    }
    for (ResourceId q = 0; q < num_resources(); ++q) {
      if (v.requests_to(q) < 0) {
        err << "task " << id_ << " vertex " << x << ": negative request count";
        return err.str();
      }
      if (v.requests_to(q) > 0 && usage_[q].cs_length <= 0) {
        err << "task " << id_ << " vertex " << x << ": requests resource " << q
            << " with non-positive critical-section length";
        return err.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace dpcp
