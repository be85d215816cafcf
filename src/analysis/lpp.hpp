// Suspension-based semaphore analysis for parallel tasks under federated
// scheduling, re-implemented after the protocol model of Jiang et al.
// (DAC 2019) -- the paper's "LPP" baseline.
//
// Protocol model: requests execute locally on the task's own cluster; a
// vertex that finds the lock taken *suspends* (its processor is free for
// other ready vertices); the lock queue is served in task-priority order
// with the one-lower-priority-blocking progress guarantee of
// priority-ceiling-style protocols.  Consequences captured by the bound:
//  * per request to l_q: at most one lower-priority critical section on
//    l_q, all higher-priority requests to l_q released inside the waiting
//    window (eta-based inner fixed point), and the task's own off-path
//    requests to l_q ahead in the queue;
//  * waiting burns no CPU, and other tasks' critical sections execute on
//    their own clusters -- so, unlike SPIN, no workload inflation;
//  * on-path request counts follow the prior-work envelope, as in [11].
//
// This is an honest re-implementation, not the authors' exact formulas
// (paper [11] is not available in this environment); see DESIGN.md §3.
#pragma once

#include "analysis/interface.hpp"

namespace dpcp {

std::unique_ptr<PreparedAnalysis> prepare_lpp(AnalysisSession& session);

/// Response time of one request of tau_i to l_q (lock wait + own critical
/// section); nullopt if the inner recurrence exceeds the deadline.
std::optional<Time> lpp_request_response(const TaskSet& ts, int task,
                                         ResourceId q,
                                         const std::vector<Time>& hint);

}  // namespace dpcp
