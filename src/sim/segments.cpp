#include "sim/segments.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dpcp {
namespace {

/// Appends the segments of vertex x of `task` to `out`.  `left` is a
/// reused buffer of the vertex's request counts still to place.
void append_vertex(const DagTask& task, VertexId x, double scale,
                   std::vector<int>& left, std::vector<Segment>& out) {
  const auto requests = task.requests(x);
  const std::size_t first = out.size();
  int sections = 0;
  left.clear();
  for (const VertexRequest& r : requests) {
    left.push_back(r.count);
    sections += r.count;
  }

  const Time noncrit = task.vertex_noncrit_wcet(x);
  assert(noncrit >= 0);
  const Time slots = static_cast<Time>(sections) + 1;
  const Time slice = noncrit / slots;
  auto push_noncrit = [&](Time len) {
    if (len > 0) out.push_back(Segment{false, -1, len});
  };
  push_noncrit(slice + (noncrit - slice * slots));  // first slice: remainder
  // Critical sections round-robin over resources, so repeated requests to
  // the same resource are spread out; a non-critical slice follows each.
  for (int remaining = sections; remaining > 0;) {
    for (std::size_t k = 0; k < requests.size(); ++k) {
      if (left[k] == 0) continue;
      --left[k];
      --remaining;
      const ResourceId q = requests[k].resource;
      out.push_back(Segment{true, q, task.usage(q).cs_length});
      push_noncrit(slice);
    }
  }

  if (scale < 1.0) {
    const auto vbegin = out.begin() + static_cast<std::ptrdiff_t>(first);
    for (auto s = vbegin; s != out.end(); ++s)
      s->length = std::max<Time>(
          s->critical ? 1 : 0,
          static_cast<Time>(
              std::llround(static_cast<double>(s->length) * scale)));
    out.erase(std::remove_if(vbegin, out.end(),
                             [](const Segment& s) { return s.length == 0; }),
              out.end());
  }
  if (out.size() == first)
    out.push_back(Segment{false, -1, 1});  // keep vertex observable
}

}  // namespace

SegmentPlan build_plan(const TaskSet& ts, double execution_scale) {
  assert(execution_scale > 0.0 && execution_scale <= 1.0);
  SegmentPlan plan;
  // Each critical section adds at most itself and one slice.
  std::size_t vertices = 0;
  std::size_t segments = 0;
  for (const DagTask& t : ts.tasks()) {
    vertices += static_cast<std::size_t>(t.vertex_count());
    segments += static_cast<std::size_t>(t.vertex_count());
    for (ResourceId q = 0; q < t.num_resources(); ++q)
      segments += 2 * static_cast<std::size_t>(t.usage(q).max_requests);
  }
  plan.segments.reserve(segments);
  plan.seg_begin.reserve(vertices + 1);
  plan.task_begin.reserve(static_cast<std::size_t>(ts.size()) + 1);

  std::vector<int> left;
  for (const DagTask& t : ts.tasks()) {
    plan.task_begin.push_back(static_cast<int>(plan.seg_begin.size()));
    for (VertexId x = 0; x < t.vertex_count(); ++x) {
      plan.seg_begin.push_back(static_cast<int>(plan.segments.size()));
      append_vertex(t, x, execution_scale, left, plan.segments);
    }
  }
  plan.task_begin.push_back(static_cast<int>(plan.seg_begin.size()));
  plan.seg_begin.push_back(static_cast<int>(plan.segments.size()));
  return plan;
}

}  // namespace dpcp
