#include "model/task.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace dpcp {

VertexId DagTask::add_vertex(Time wcet, const std::vector<int>& requests) {
  assert(wcet >= 0);
  const std::size_t n =
      std::min(requests.size(), static_cast<std::size_t>(num_resources()));
  for (std::size_t q = 0; q < n; ++q)
    if (requests[q] != 0)
      requests_.push_back(
          VertexRequest{static_cast<ResourceId>(q), requests[q]});
  request_begin_.push_back(requests_.size());
  vertex_wcet_.push_back(wcet);
  return vertex_count() - 1;
}

void DagTask::finalize() {
  if (!edges_.empty() || graph_.size() != vertex_count()) {
    // A re-freeze puts the edges frozen before (vertex-major) ahead of the
    // ones added since, so each vertex keeps its successors in the order
    // they were added.
    std::vector<Edge> frozen;
    for (VertexId v = 0; v < graph_.size(); ++v)
      for (VertexId w : graph_.successors(v)) frozen.emplace_back(v, w);
    edges_.insert(edges_.begin(), frozen.begin(), frozen.end());
    graph_ = Dag(vertex_count(), edges_.data(), edges_.size());
    edges_ = std::vector<Edge>();
  }
  wcet_ = 0;
  for (Time c : vertex_wcet_) wcet_ += c;
  for (auto& u : usage_) u.max_requests = 0;
  for (const VertexRequest& r : requests_)
    usage_[static_cast<std::size_t>(r.resource)].max_requests += r.count;
  used_.clear();
  for (ResourceId q = 0; q < num_resources(); ++q)
    if (usage_[q].used()) used_.push_back(q);
  lstar_ = graph_.longest_path_weight(vertex_wcets());
}

Time DagTask::cs_demand() const {
  Time total = 0;
  for (const auto& u : usage_) total += u.demand();
  return total;
}

Time DagTask::vertex_noncrit_wcet(VertexId v) const {
  Time cs = 0;
  for (const VertexRequest& r : requests(v))
    cs += static_cast<Time>(r.count) * usage_[r.resource].cs_length;
  return vertex_wcet(v) - cs;
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
    if (vertex_wcet(x) <= 0) {
      err << "task " << id_ << " vertex " << x << ": non-positive WCET";
      return err.str();
    }
    // sum_q N_{i,x,q} L_{i,q} in checked arithmetic: a demand that
    // overflows int64 exceeds every WCET.
    Time demand = 0;
    bool overflow = false;
    for (const VertexRequest& r : requests(x)) {
      Time cs = 0;
      overflow = __builtin_mul_overflow(static_cast<Time>(r.count),
                                        usage_[r.resource].cs_length, &cs) ||
                 __builtin_add_overflow(demand, cs, &demand);
      if (overflow) break;
    }
    if (overflow || demand > vertex_wcet(x)) {
      err << "task " << id_ << " vertex " << x
          << ": WCET smaller than its critical-section demand "
             "(violates C_{i,x} >= sum_q N_{i,x,q} L_{i,q})";
      return err.str();
    }
    for (const VertexRequest& r : requests(x)) {
      if (r.count < 0) {
        err << "task " << id_ << " vertex " << x << ": negative request count";
        return err.str();
      }
      if (usage_[r.resource].cs_length <= 0) {
        err << "task " << id_ << " vertex " << x << ": requests resource "
            << r.resource << " with non-positive critical-section length";
        return err.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace dpcp
