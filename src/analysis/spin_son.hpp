// FIFO spin-lock analysis for parallel tasks under federated scheduling,
// re-implemented after the protocol model of Dinh et al. (TPDS 29(4), 2018)
// -- the paper's "SPIN-SON" baseline.
//
// Protocol model: requests execute locally on the task's own cluster; a
// vertex that finds the lock taken busy-waits (non-preemptively) on its
// processor; the lock queue is FIFO.  Consequences captured by the bound:
//  * per request to l_q, at most one earlier request per processor that can
//    contend: min(m_j, N_{j,q}) remote requests per other task tau_j plus
//    min(m_i - 1, N_{i,q} - 1) intra-task requests;
//  * spinning consumes processor time, so the spin delay inflates both the
//    critical path and the cluster workload (the defining spin trade-off:
//    cheap under light contention, ruinous under heavy contention);
//  * on-path request counts follow the prior-work envelope (N^lambda
//    maximised per term), as in [6].
//
// Sec. VI extension (light tasks on shared processors): spinning and
// critical sections are non-preemptable on the runtime (MSRP-style;
// preempting a lock holder would deadlock against a co-located spinner),
// so the bound additionally charges (i) one arrival-blocking chunk -- the
// largest spin+CS of a lower-priority co-located task -- and (ii) the
// per-job spin time of higher-priority co-located preemptors on top of
// their WCET, since their busy-wait occupies the shared processor too.
//
// This is an honest re-implementation, not the authors' exact formulas
// (paper [6] is not available in this environment); see DESIGN.md §3.
#pragma once

#include "analysis/interface.hpp"

namespace dpcp {

std::unique_ptr<PreparedAnalysis> prepare_spin_son(AnalysisSession& session);

/// Worst-case spin delay of one request of tau_i to l_q (exposed for
/// tests).
Time spin_delay(const TaskSet& ts, const Partition& part, int task,
                ResourceId q);

}  // namespace dpcp
