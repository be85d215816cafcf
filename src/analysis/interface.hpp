// Common interface of the schedulability analyses compared in Sec. VII.
//
// An analysis supplies (i) the per-task WCRT oracle consumed by the
// partitioning loop (Algorithm 1) and (ii) which resource-placement policy
// its protocol requires (remote-execution protocols pin global resources to
// processors; local-execution protocols do not).
//
// The oracle is two-phase: prepare() builds a PreparedAnalysis against a
// per-task-set AnalysisSession, splitting the work into
//
//   partition-independent  — computed once per session (path signatures,
//                            usage/priority tables), shared across rounds
//                            and across analyses on the same task set;
//   partition-dependent    — cached per task inside the prepared object
//                            and invalidated only when a processor grant
//                            or resource re-placement actually changed
//                            that task's inputs (see analysis/prepared.hpp).
//
// The one-shot wcrt() and test() entry points below are conveniences that
// run prepare() behind the scenes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/prepared.hpp"
#include "analysis/session.hpp"
#include "model/taskset.hpp"
#include "partition/partitioner.hpp"
#include "partition/placement.hpp"

namespace dpcp {

enum class AnalysisKind {
  kDpcpPEp,   // DPCP-p, enumerating complete paths (Sec. IV + VI)
  kDpcpPEn,   // DPCP-p, N^lambda envelope as in prior work [6],[11]
  kSpinSon,   // FIFO spin locks under federated scheduling (after [6])
  kLpp,       // suspension-based semaphores under federated scheduling [11]
  kFedFp,     // federated scheduling ignoring shared resources [13]
};

/// Cross-analysis tuning knobs; today these reach only DPCP-p-EP, which
/// falls back to the (sound) EN envelope for a task over either budget.
struct AnalysisOptions {
  /// Complete-path budget for EP path enumeration.
  std::int64_t max_paths = 100'000;
  /// Signature budget for EP's per-signature fixed points.
  std::int64_t max_signatures = 20'000;
};

/// One of the five analyses: its name and placement policy come from the
/// kind's row in interface.cpp, its oracle from the kind's prepare
/// function (analysis/dpcp_p.hpp, spin_son.hpp, lpp.hpp, fed_fp.hpp).
class SchedAnalysis {
 public:
  explicit SchedAnalysis(AnalysisKind kind,
                         const AnalysisOptions& options = AnalysisOptions())
      : kind_(kind), options_(options) {}

  /// Display name, e.g. "DPCP-p-EP".
  std::string name() const;

  /// Placement policy Algorithm 1 must run for this protocol.
  ResourcePlacement placement() const;

  /// Two-phase entry point: binds this analysis to `session`'s task set
  /// and returns the per-partition query object Algorithm 1 iterates.
  /// The session must outlive the returned oracle.
  std::unique_ptr<PreparedAnalysis> prepare(AnalysisSession& session) const;

  /// One-shot WCRT bound of `task` under `part`; `hint[j]` is the response
  /// time to assume for every other task (computed value or D_j).  nullopt
  /// when the bound exceeds the deadline or the recurrence diverges.
  /// Prepares a throwaway session per call — callers issuing many queries
  /// against one task set should prepare() once instead.
  std::optional<Time> wcrt(const TaskSet& ts, const Partition& part, int task,
                           const std::vector<Time>& hint) const;

  /// End-to-end schedulability test: Algorithm 1 with this analysis,
  /// reusing `session`'s partition-independent caches.  `strategy`
  /// overrides the placement policy for placement-requiring protocols
  /// (nullptr = WFD); analyses with placement() == kNone ignore it —
  /// their protocols execute resources locally, so there is nothing to
  /// place.
  PartitionOutcome test(AnalysisSession& session, int m,
                        const PlacementStrategy* strategy = nullptr) const;

  /// End-to-end schedulability test with a private one-shot session.
  PartitionOutcome test(const TaskSet& ts, int m) const;

 private:
  AnalysisKind kind_;
  AnalysisOptions options_;
};

std::unique_ptr<SchedAnalysis> make_analysis(AnalysisKind kind,
                                             const AnalysisOptions& options =
                                                 AnalysisOptions());

/// The five approaches in the paper's comparison, in display order.
std::vector<AnalysisKind> all_analysis_kinds();

/// Short stable token ("ep", "en", "spin", "lpp", "fed") used by command
/// lines and serialized snapshots; inverse of analysis_kind_from_token().
const char* analysis_kind_token(AnalysisKind kind);
/// Parses a token into `*out`; false (and `*out` untouched) on unknown
/// input.
bool analysis_kind_from_token(const std::string& token, AnalysisKind* out);

/// Parses a command-line analysis list: comma-separated tokens, where
/// "paper" stands for all five approaches and "locking" for the four
/// locking protocols (all but FED-FP).  Repeated analyses are dropped
/// (first occurrence keeps its place), so each yields one sweep column.
/// Returns nullopt and sets `error` on an unknown token or an empty list.
std::optional<std::vector<AnalysisKind>> analyses_from_spec(
    const std::string& spec, std::string* error = nullptr);

}  // namespace dpcp
