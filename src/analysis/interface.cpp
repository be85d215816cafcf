#include "analysis/interface.hpp"

#include <algorithm>

#include "analysis/dpcp_p.hpp"
#include "analysis/fed_fp.hpp"
#include "analysis/lpp.hpp"
#include "analysis/spin_son.hpp"
#include "util/table.hpp"

namespace dpcp {
namespace {

struct KindRow {
  const char* token;  // command lines and snapshots
  const char* name;   // display
  ResourcePlacement placement;
};

/// One row per AnalysisKind, in enum (= display) order.  Remote-execution
/// protocols pin global resources to processors; local-execution
/// protocols (and FED-FP, which ignores resources) place nothing.
constexpr KindRow kKinds[] = {
    {"ep", "DPCP-p-EP", ResourcePlacement::kWfd},
    {"en", "DPCP-p-EN", ResourcePlacement::kWfd},
    {"spin", "SPIN-SON", ResourcePlacement::kNone},
    {"lpp", "LPP", ResourcePlacement::kNone},
    {"fed", "FED-FP", ResourcePlacement::kNone},
};

const KindRow& row(AnalysisKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

}  // namespace

std::string SchedAnalysis::name() const { return row(kind_).name; }

ResourcePlacement SchedAnalysis::placement() const {
  return row(kind_).placement;
}

std::unique_ptr<PreparedAnalysis> SchedAnalysis::prepare(
    AnalysisSession& session) const {
  if (kind_ == AnalysisKind::kSpinSon) return prepare_spin_son(session);
  if (kind_ == AnalysisKind::kLpp) return prepare_lpp(session);
  if (kind_ == AnalysisKind::kFedFp) return prepare_fed_fp(session);
  return prepare_dpcp_p(session, kind_ == AnalysisKind::kDpcpPEp, options_);
}

std::optional<Time> SchedAnalysis::wcrt(const TaskSet& ts,
                                        const Partition& part, int task,
                                        const std::vector<Time>& hint) const {
  AnalysisSession session(ts);
  auto prepared = prepare(session);
  prepared->bind(part);
  return prepared->wcrt(task, hint);
}

PartitionOutcome SchedAnalysis::test(AnalysisSession& session, int m,
                                     const PlacementStrategy* strategy) const {
  PartitionOptions options;
  options.placement = placement();
  options.priority_order = &session.priority_order();
  if (options.placement != ResourcePlacement::kNone) {
    if (strategy) options.strategy = strategy;
    options.placement_cache =
        &session.placement_cache(options.strategy->cache_key());
  }
  auto prepared = prepare(session);
  return partition_and_analyze(session.taskset(), m, *prepared, options);
}

PartitionOutcome SchedAnalysis::test(const TaskSet& ts, int m) const {
  AnalysisSession session(ts);
  return test(session, m);
}

std::unique_ptr<SchedAnalysis> make_analysis(AnalysisKind kind,
                                             const AnalysisOptions& options) {
  return std::make_unique<SchedAnalysis>(kind, options);
}

std::vector<AnalysisKind> all_analysis_kinds() {
  return {AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn,
          AnalysisKind::kSpinSon, AnalysisKind::kLpp, AnalysisKind::kFedFp};
}

const char* analysis_kind_token(AnalysisKind kind) { return row(kind).token; }

bool analysis_kind_from_token(const std::string& token, AnalysisKind* out) {
  for (AnalysisKind kind : all_analysis_kinds()) {
    if (token == analysis_kind_token(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::optional<std::vector<AnalysisKind>> analyses_from_spec(
    const std::string& spec, std::string* error) {
  std::vector<AnalysisKind> out;
  const auto add = [&out](AnalysisKind kind) {
    if (std::find(out.begin(), out.end(), kind) == out.end())
      out.push_back(kind);
  };
  for (const std::string& token : split(spec, ',')) {
    if (token == "paper" || token == "locking") {
      for (AnalysisKind kind : all_analysis_kinds())
        if (token == "paper" || kind != AnalysisKind::kFedFp) add(kind);
      continue;
    }
    AnalysisKind kind = AnalysisKind::kDpcpPEp;
    if (!analysis_kind_from_token(token, &kind)) {
      if (error) *error = "unknown analysis '" + token + "'";
      return std::nullopt;
    }
    add(kind);
  }
  if (out.empty()) {
    if (error) *error = "empty analysis list";
    return std::nullopt;
  }
  return out;
}

}  // namespace dpcp
