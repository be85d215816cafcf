#include "analysis/interface.hpp"

#include <algorithm>

#include "analysis/dpcp_p.hpp"
#include "analysis/fed_fp.hpp"
#include "analysis/lpp.hpp"
#include "analysis/spin_son.hpp"
#include "util/table.hpp"

namespace dpcp {

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
  switch (kind) {
    case AnalysisKind::kDpcpPEp:
      return std::make_unique<DpcpPAnalysis>(DpcpPAnalysis::PathMode::kEnumerate,
                                             options);
    case AnalysisKind::kDpcpPEn:
      return std::make_unique<DpcpPAnalysis>(DpcpPAnalysis::PathMode::kEnvelope,
                                             options);
    case AnalysisKind::kSpinSon:
      return std::make_unique<SpinSonAnalysis>();
    case AnalysisKind::kLpp:
      return std::make_unique<LppAnalysis>();
    case AnalysisKind::kFedFp:
      return std::make_unique<FedFpAnalysis>();
  }
  return nullptr;
}

std::vector<AnalysisKind> all_analysis_kinds() {
  return {AnalysisKind::kDpcpPEp, AnalysisKind::kDpcpPEn,
          AnalysisKind::kSpinSon, AnalysisKind::kLpp, AnalysisKind::kFedFp};
}

std::string analysis_kind_name(AnalysisKind kind) {
  return make_analysis(kind)->name();
}

const char* analysis_kind_token(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::kDpcpPEp:
      return "ep";
    case AnalysisKind::kDpcpPEn:
      return "en";
    case AnalysisKind::kSpinSon:
      return "spin";
    case AnalysisKind::kLpp:
      return "lpp";
    case AnalysisKind::kFedFp:
      return "fed";
  }
  return "ep";
}

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
