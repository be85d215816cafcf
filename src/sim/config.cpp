#include "sim/config.hpp"

#include <sstream>

#include "util/table.hpp"

namespace dpcp {

std::string trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kJobRelease:     return "release";
    case TraceKind::kJobComplete:    return "job-done";
    case TraceKind::kVertexDispatch: return "run";
    case TraceKind::kVertexPreempt:  return "preempt";
    case TraceKind::kVertexComplete: return "vertex-done";
    case TraceKind::kSegmentEnd:     return "seg-end";
    case TraceKind::kRequestIssue:   return "request";
    case TraceKind::kRequestGrant:   return "grant";
    case TraceKind::kAgentDispatch:  return "agent-run";
    case TraceKind::kAgentComplete:  return "agent-done";
    case TraceKind::kAgentPreempt:   return "agent-preempt";
    case TraceKind::kLocalLock:      return "local-lock";
    case TraceKind::kLocalUnlock:    return "local-unlock";
  }
  return "?";
}

std::string trace_to_string(const std::vector<TraceEvent>& trace) {
  std::ostringstream os;
  for (const auto& e : trace) {
    os << strfmt("%10s  %-12s task=%d", format_time(e.time).c_str(),
                 trace_kind_name(e.kind).c_str(), e.task);
    if (e.job >= 0) os << " job=" << e.job;
    if (e.vertex >= 0) os << " v=" << e.vertex;
    if (e.processor >= 0) os << " proc=" << e.processor;
    if (e.resource >= 0) os << " res=" << e.resource;
    os << '\n';
  }
  return os.str();
}

}  // namespace dpcp
