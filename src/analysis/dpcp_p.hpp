// WCRT analysis for DPCP-p (Sec. IV of the paper).
//
// Per complete path lambda of tau_i (Theorem 1):
//   r <= L(lambda) + B_i + b_i + (I_intra + I_A) / m_i
// where
//   B_i      inter-task blocking  (Lemma 3: per processor, min(eps, zeta)),
//   b_i      intra-task blocking  (Lemma 4: local + per-processor global),
//   I_intra  intra-task interference (Lemma 5),
//   I_A      agent interference on tau_i's own cluster (Lemma 6),
// with the per-request response time W_{i,q} of Lemma 2 feeding eps, and
// the outer recurrence solved as a fixed point because zeta and I_A count
// jobs of other tasks inside the response window (eta).
//
// Two variants, matching the paper's evaluation:
//  * EP ("enumerate paths"): evaluates the bound per path signature
//    (request vector -> max length; see model/paths.hpp) and takes the max.
//  * EN ("enumerate N"): the prior-work model [6],[11] where only the range
//    N^lambda_{i,q} in [0, N_{i,q}] is known; each term is maximised
//    independently over N^lambda, which upper-bounds the joint enumeration
//    and is therefore sound -- and by construction never beats EP.
//
// Two-phase split (see analysis/session.hpp):
//  * per session  — path signatures (via AnalysisSession) and the
//    local-resource list, both partition-independent;
//  * per partition — contention/agent/preemption tables (Lemmas 2-6
//    inputs), cached per task and rebuilt only when bind() reports that a
//    processor grant or resource re-placement changed the task's inputs,
//    each rebuild copying rows of one per-bind PlacedGlobals index;
//  * per query — a memo from (resource, intra-ahead) to Lemma 3's unit
//    (beta plus the higher-priority demand over Lemma 2's response W),
//    as it depends on the hint vector;
//  * per task-set epoch — a result memo from each query state (the task,
//    the table words that can change between two task-set mutations, and
//    the hints they read) to its bound, so a state computed since the
//    last mutation is not computed again.
// Both memos are instances of one epoch-cleared open-addressed table
// keyed by word strings; only the result memo is size-capped, as the
// unit memo is emptied by every query.
#pragma once

#include "analysis/interface.hpp"

namespace dpcp {

/// The DPCP-p oracle over `session`: EP when `enumerate_paths`, else EN.
std::unique_ptr<PreparedAnalysis> prepare_dpcp_p(
    AnalysisSession& session, bool enumerate_paths,
    const AnalysisOptions& options);

}  // namespace dpcp
