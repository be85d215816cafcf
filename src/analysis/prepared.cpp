#include "analysis/prepared.hpp"

#include <algorithm>
#include <cassert>

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
  index_hosts(part);

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

void PreparedAnalysis::index_hosts(const Partition& part) {
  // Counting sort: host_off_[p] counts p's hosts, then (prefix sums) ends
  // its bucket; filling each bucket from its end in decreasing task index
  // leaves it in increasing index and moves host_off_[p] to its start.
  const std::size_t m = static_cast<std::size_t>(part.num_processors());
  host_off_.assign(m + 1, 0);
  for (int j = 0; j < part.num_tasks(); ++j)
    for (ProcessorId p : part.cluster(j)) {
      assert(p >= 0 && static_cast<std::size_t>(p) < m);
      ++host_off_[static_cast<std::size_t>(p)];
    }
  for (std::size_t p = 1; p <= m; ++p) host_off_[p] += host_off_[p - 1];
  host_tasks_.resize(host_off_[m]);
  for (int j = part.num_tasks() - 1; j >= 0; --j)
    for (ProcessorId p : part.cluster(j))
      host_tasks_[--host_off_[static_cast<std::size_t>(p)]] = j;
#ifndef NDEBUG
  // A cluster lists each of its processors once (Partition::validate()),
  // so every bucket is strictly increasing.
  for (std::size_t p = 0; p < m; ++p)
    for (std::uint32_t k = host_off_[p] + 1; k < host_off_[p + 1]; ++k)
      assert(host_tasks_[k - 1] < host_tasks_[k]);
#endif
}

bool PreparedAnalysis::shares_processor(int i) const {
  for (ProcessorId p : partition().cluster(i))
    if (hosts(p).size() > 1) return true;
  return false;
}

void PreparedAnalysis::preemption_demand(int i, DemandSoA* out) const {
  out->clear();
  const int prio = ts_.task(i).priority();
  for (ProcessorId p : partition().cluster(i))
    for (int j : hosts(p)) {
      const DagTask& tj = ts_.task(j);
      // A task co-hosted on several of tau_i's processors counts once.
      if (tj.priority() <= prio ||
          std::find(out->task.begin(), out->task.end(), j) != out->task.end())
        continue;
      out->add(j, tj.wcet(), tj.period());
    }
}

void PreparedAnalysis::append_cluster(const Partition& part, int i,
                                      std::vector<Time>* out) {
  const auto& cluster = part.cluster(i);
  out->push_back(static_cast<Time>(cluster.size()));
  for (ProcessorId p : cluster) out->push_back(p);
}

void PreparedAnalysis::append_cohosted(const Partition& part, int i,
                                       std::vector<Time>* out) const {
  for (ProcessorId p : part.cluster(i)) {
    const Slab<const int> on_p = hosts(p);
    out->push_back(static_cast<Time>(on_p.size()));
    out->insert(out->end(), on_p.begin(), on_p.end());
  }
}

void PreparedAnalysis::append_placement(const Partition& part,
                                        std::vector<Time>* out) {
  out->push_back(part.num_resources());
  for (ResourceId q = 0; q < part.num_resources(); ++q)
    out->push_back(part.processor_of_resource(q));
}

}  // namespace dpcp
