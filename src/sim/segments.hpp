// Execution plans: the per-vertex alternation of non-critical segments and
// critical sections that the simulator executes.
//
// The analysis model only fixes, per vertex, the WCET C_{i,x} and the
// request counts N_{i,x,q}; the simulator needs a concrete layout.  We
// interleave the vertex's critical sections (round-robin over its
// resources, each of worst-case length L_{i,q}) with equal slices of its
// non-critical work.  Worst-case lengths make the simulated behaviour an
// admissible run of the analysed model, so every analysis bound must cover
// the observed response times.
#pragma once

#include <vector>

#include "model/taskset.hpp"

namespace dpcp {

struct Segment {
  bool critical = false;
  ResourceId resource = -1;  // valid iff critical
  Time length = 0;
};

/// Every task's plan in flat arrays, built once per simulation run.
/// Vertices are numbered task-major: vertex x of task i is plan vertex
/// `vertex_index(i, x)`, and its segments are
/// `segments[seg_begin[g] .. seg_begin[g + 1])` for that index g.  Every
/// vertex has at least one segment.
struct SegmentPlan {
  std::vector<Segment> segments;
  std::vector<int> seg_begin;    // per plan vertex, plus an end sentinel
  std::vector<int> task_begin;   // first plan vertex per task, plus sentinel

  int vertex_index(int task, VertexId x) const {
    return task_begin[static_cast<std::size_t>(task)] + x;
  }
  const Segment* begin(int task, VertexId x) const {
    return segments.data() +
           seg_begin[static_cast<std::size_t>(vertex_index(task, x))];
  }
  const Segment* end(int task, VertexId x) const {
    return segments.data() +
           seg_begin[static_cast<std::size_t>(vertex_index(task, x)) + 1];
  }
  /// Sum of the segment lengths of one vertex.
  Time vertex_total(int task, VertexId x) const {
    Time t = 0;
    for (const Segment* s = begin(task, x); s != end(task, x); ++s)
      t += s->length;
    return t;
  }
};

/// Builds the worst-case plan of every task.  `execution_scale` in (0, 1]
/// shortens all segments proportionally (zero-length segments are dropped;
/// a vertex always keeps at least one segment so it remains observable).
SegmentPlan build_plan(const TaskSet& ts, double execution_scale = 1.0);

}  // namespace dpcp
