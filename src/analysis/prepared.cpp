#include "analysis/prepared.hpp"

#include <algorithm>

namespace dpcp {

PreparedAnalysis::PreparedAnalysis(AnalysisSession& session)
    : session_(session),
      ts_(session.taskset()),
      unchanged_(static_cast<std::size_t>(session.taskset().size()), 0) {}

void PreparedAnalysis::bind(const Partition& part) {
  WcrtOracle::bind(part);

  // Reconcile with session mutations before any inputs are serialized
  // (eager subclass statics feed partition_inputs()).  Adds keep the
  // previous tokens — surviving indices still mean the same tasks, and the
  // new tasks simply have no previous span, so they re-analyze; a remap
  // renumbered the survivors, so the previous stream is meaningless and
  // every task re-analyzes this bind.
  if (seen_mutation_seq_ != session_.mutation_seq()) {
    const bool remap = session_.remap_seq() > seen_mutation_seq_;
    if (remap) {
      bound_once_ = false;
      prev_tokens_.clear();
      prev_off_.clear();
    }
    on_taskset_changed(remap);
    seen_mutation_seq_ = session_.mutation_seq();
  }

  ++binds_;
  const std::size_t n = static_cast<std::size_t>(ts_.size());
  unchanged_.resize(n);

  // Serialize this round's inputs for all tasks into one flat stream.
  cur_tokens_.clear();
  cur_off_.clear();
  cur_off_.reserve(n + 1);
  for (int i = 0; i < ts_.size(); ++i) {
    cur_off_.push_back(static_cast<std::uint32_t>(cur_tokens_.size()));
    partition_inputs(part, i, &cur_tokens_);
  }
  cur_off_.push_back(static_cast<std::uint32_t>(cur_tokens_.size()));

  // Span-vs-span diff against the previous round.
  for (int i = 0; i < ts_.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    bool same = bound_once_ && ui + 1 < prev_off_.size();
    if (same) {
      const std::uint32_t cb = cur_off_[ui], ce = cur_off_[ui + 1];
      const std::uint32_t pb = prev_off_[ui], pe = prev_off_[ui + 1];
      same = (ce - cb) == (pe - pb) &&
             std::equal(cur_tokens_.begin() + cb, cur_tokens_.begin() + ce,
                        prev_tokens_.begin() + pb);
    }
    if (same) {
      unchanged_[ui] = 1;
      ++diffs_unchanged_;
    } else {
      unchanged_[ui] = 0;
      invalidate(i);
      ++diffs_invalidated_;
    }
  }
  prev_tokens_.swap(cur_tokens_);
  prev_off_.swap(cur_off_);
  bound_once_ = true;
}

bool PreparedAnalysis::task_unchanged(int task) const {
  return unchanged_[static_cast<std::size_t>(task)] != 0;
}

void PreparedAnalysis::append_cluster(const Partition& part, int i,
                                      std::vector<Time>* out) {
  const auto& cluster = part.cluster(i);
  out->push_back(static_cast<Time>(cluster.size()));
  for (ProcessorId p : cluster) out->push_back(p);
}

void PreparedAnalysis::append_cohosted(const Partition& part, int i,
                                       std::vector<Time>* out) {
  for (ProcessorId p : part.cluster(i)) {
    const std::size_t count_at = out->size();
    out->push_back(0);
    for (int j = 0; j < part.num_tasks(); ++j) {
      const std::vector<ProcessorId>& c = part.cluster(j);
      if (std::find(c.begin(), c.end(), p) != c.end()) out->push_back(j);
    }
    (*out)[count_at] = static_cast<Time>(out->size() - count_at - 1);
  }
}

void PreparedAnalysis::append_placement(const Partition& part,
                                        std::vector<Time>* out) {
  out->push_back(part.num_resources());
  for (ResourceId q = 0; q < part.num_resources(); ++q)
    out->push_back(part.processor_of_resource(q));
}

}  // namespace dpcp
