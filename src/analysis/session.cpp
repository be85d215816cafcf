#include "analysis/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "partition/partitioner.hpp"

namespace dpcp {

const PathEnumResult& AnalysisSession::paths(int task,
                                             std::int64_t max_paths) {
  PathsEntry& entry = paths_[static_cast<std::size_t>(task)];
  if (entry.budget != max_paths) {
    entry.result = enumerate_path_signatures(ts_.task(task), max_paths);
    entry.budget = max_paths;
    ++path_enumerations_;
  }
  return entry.result;
}

const std::vector<int>& AnalysisSession::priority_order() {
  if (!order_ready_) {
    order_ = analysis_priority_order(ts_);
    order_ready_ = true;
  }
  return order_;
}

void AnalysisSession::priorities_from_order() {
  const int n = ts_.size();
  for (int r = 0; r < n; ++r)
    mutable_ts_->task(order_[static_cast<std::size_t>(r)]).set_priority(n - r);
}

int AnalysisSession::add_task(DagTask task) {
  if (!mutable_ts_)
    throw std::logic_error("AnalysisSession::add_task on an immutable session");
  const int idx = ts_.size();
  const DagTask& adopted = mutable_ts_->adopt_task(std::move(task));
  ++mutation_seq_;

  // The new task joins the user set of everything it touches; tasks whose
  // contention reads mention these resources must re-analyze.
  for (ResourceId q : adopted.used_resources())
    ++resource_epochs_[static_cast<std::size_t>(q)];

  paths_.emplace_back();

  if (order_ready_) {
    // The order is increasing (period, id); the new id is the largest, so
    // it lands after every task with period <= its own.
    const auto it = std::upper_bound(
        order_.begin(), order_.end(), idx, [this](int a, int b) {
          if (ts_.task(a).period() != ts_.task(b).period())
            return ts_.task(a).period() < ts_.task(b).period();
          return ts_.task(a).id() < ts_.task(b).id();
        });
    order_.insert(it, idx);
    priorities_from_order();
  } else {
    mutable_ts_->assign_rm_priorities();
  }
  return idx;
}

void AnalysisSession::remove_task(int task) {
  if (!mutable_ts_)
    throw std::logic_error(
        "AnalysisSession::remove_task on an immutable session");
  const bool remap = task != ts_.size() - 1;
  ++mutation_seq_;
  if (remap) remap_seq_ = mutation_seq_;

  // The departing task leaves every user set it was in; under a remap all
  // indices change meaning anyway and prepared analyses reset wholesale,
  // but the epochs are bumped regardless so token streams never alias.
  if (remap) {
    for (auto& e : resource_epochs_) ++e;
  } else {
    for (ResourceId q : ts_.task(task).used_resources())
      ++resource_epochs_[static_cast<std::size_t>(q)];
  }

  mutable_ts_->remove_task(task);
  paths_.erase(paths_.begin() + task);

  if (order_ready_) {
    order_.erase(std::find(order_.begin(), order_.end(), task));
    for (int& t : order_)
      if (t > task) --t;
    priorities_from_order();
  } else {
    mutable_ts_->assign_rm_priorities();
  }
}

}  // namespace dpcp
