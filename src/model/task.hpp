// The sporadic parallel (DAG) task model of Sec. II.
//
// A DagTask is the one builder of a task graph: add_vertex() and
// add_edge() collect the structure, and finalize() freezes it into the
// task's Dag.  Vertex WCETs live in one array and the per-vertex request
// counts in one flat array of (resource, count) pairs, so storage grows
// with the requests actually made.  The task also owns the per-task
// resource-usage table (N_{i,q}, L_{i,q}).  Derived quantities (C_i,
// L*_i, C'_i, U_i) are computed on demand; the class validates the
// paper's structural invariants in validate().
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/dag.hpp"
#include "model/resource.hpp"
#include "util/slab.hpp"
#include "util/time.hpp"

namespace dpcp {

/// One nonzero request count N_{i,x,q} of a vertex.
struct VertexRequest {
  ResourceId resource;  // q
  int count;            // N_{i,x,q}
};

class DagTask {
 public:
  DagTask() = default;
  DagTask(int id, Time period, Time deadline, int num_resources)
      : id_(id),
        period_(period),
        deadline_(deadline),
        usage_(static_cast<std::size_t>(num_resources)) {}

  // --- identity / scalar parameters -------------------------------------
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }
  Time period() const { return period_; }       // T_i
  Time deadline() const { return deadline_; }   // D_i (constrained: D <= T)
  /// Unique base priority pi_i; larger value = higher priority.
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  // --- structure ---------------------------------------------------------
  /// The graph as frozen by the last finalize().
  const Dag& graph() const { return graph_; }

  /// Appends vertex x with WCET C_{i,x} and request counts
  /// requests[q] = N_{i,x,q}; `requests` may be shorter than
  /// num_resources(), and its zero entries are not stored.
  VertexId add_vertex(Time wcet, const std::vector<int>& requests = {});

  /// Appends the precedence edge (from -> to) to the edge list that the
  /// next finalize() freezes.
  void add_edge(VertexId from, VertexId to) { edges_.emplace_back(from, to); }

  int vertex_count() const { return static_cast<int>(vertex_wcet_.size()); }
  /// C_{i,x}.
  Time vertex_wcet(VertexId x) const {
    return vertex_wcet_[static_cast<std::size_t>(x)];
  }
  Slab<const Time> vertex_wcets() const {
    return {vertex_wcet_.data(), vertex_wcet_.size()};
  }
  /// The nonzero N_{i,x,q} of vertex x, in increasing resource order.
  Slab<const VertexRequest> requests(VertexId x) const {
    const auto b = request_begin_[static_cast<std::size_t>(x)];
    return {requests_.data() + b,
            request_begin_[static_cast<std::size_t>(x) + 1] - b};
  }

  // --- resource usage ----------------------------------------------------
  int num_resources() const { return static_cast<int>(usage_.size()); }
  const ResourceUsage& usage(ResourceId q) const { return usage_[q]; }
  /// Sets L_{i,q}; N_{i,q} is derived from the vertices in finalize().
  void set_cs_length(ResourceId q, Time len) { usage_[q].cs_length = len; }
  bool uses(ResourceId q) const { return usage_[q].used(); }
  /// Resources with N_{i,q} > 0, in increasing order (valid after
  /// finalize()).
  const std::vector<ResourceId>& used_resources() const { return used_; }

  /// Freezes the vertices and edges added so far into graph() and
  /// recomputes the cached aggregates (C_i, L*_i, N_{i,q} and the
  /// used-resource list).  Call after the structure is complete and
  /// before analysis; calling it again is harmless, and picks up vertices
  /// and edges added since.
  void finalize();

  // --- derived quantities (valid after finalize()) -----------------------
  Time wcet() const { return wcet_; }                    // C_i
  Time longest_path_length() const { return lstar_; }    // L*_i
  double utilization() const {                           // U_i = C_i / T_i
    return static_cast<double>(wcet_) / static_cast<double>(period_);
  }
  /// Total critical-section demand per job: sum_q N_{i,q} * L_{i,q}.
  Time cs_demand() const;
  /// Non-critical WCET C'_i = C_i - sum_q N_{i,q} L_{i,q}.
  Time noncrit_wcet() const { return wcet_ - cs_demand(); }
  /// Non-critical WCET of one vertex:
  /// C'_{i,x} = C_{i,x} - sum_q N_{i,x,q} L_{i,q}.
  Time vertex_noncrit_wcet(VertexId v) const;

  /// Checks the structural invariants of Sec. II / Sec. VII-A:
  /// acyclic graph, positive parameters, D <= T,
  /// C_{i,x} >= sum_q N_{i,x,q} * L_{i,q} for every vertex.
  /// Returns an error description, or nullopt when valid.
  std::optional<std::string> validate() const;

 private:
  int id_ = -1;
  Time period_ = 0;
  Time deadline_ = 0;
  int priority_ = 0;
  Dag graph_;
  std::vector<Edge> edges_;  // added since the last finalize()
  std::vector<Time> vertex_wcet_;
  std::vector<VertexRequest> requests_;  // vertex-major, increasing q
  std::vector<std::size_t> request_begin_{0};  // per vertex, plus sentinel
  std::vector<ResourceUsage> usage_;
  std::vector<ResourceId> used_;  // q with N_{i,q} > 0
  Time wcet_ = 0;
  Time lstar_ = 0;
};

}  // namespace dpcp
