#include "analysis/fed_fp.hpp"

#include "analysis/rta_common.hpp"
#include "partition/federated.hpp"
#include "util/fixed_point.hpp"

namespace dpcp {
namespace {

class FedFpPrepared final : public PreparedAnalysis {
 public:
  explicit FedFpPrepared(AnalysisSession& session)
      : PreparedAnalysis(session),
        state_(static_cast<std::size_t>(ts_.size())) {}

  std::optional<Time> wcrt(int task,
                           const std::vector<Time>& hint) override {
    State& st = state_[static_cast<std::size_t>(task)];
    const DagTask& ti = ts_.task(task);
    if (st.dirty) {
      st.base = federated_wcrt_bound(ti, partition().cluster_size(task));
      preemption_demand(task, &st.preempt);
      st.dirty = false;
    }
    // Heavy tasks own their cluster: the preemption demand is empty and the
    // recurrence collapses to the plain federated bound.  Light tasks on
    // shared processors additionally suffer P-FP preemption (Sec. VI).
    auto f = [&](Time r) {
      return st.base + window_demand(st.preempt, hint, r);
    };
    return solve_fixed_point(f, st.base, ti.deadline()).value;
  }

 protected:
  void partition_inputs(const Partition& part, int task,
                        std::vector<Time>* out) const override {
    // Only m_i and the co-hosted (preempting) tasks are read.
    append_cluster(part, task, out);
    append_cohosted(part, task, out);
  }

  void invalidate(int task) override {
    state_[static_cast<std::size_t>(task)].dirty = true;
  }

  void on_taskset_changed(bool /*remap*/) override {
    // Resource-oblivious: no cross-task reads beyond the co-hosted tasks
    // already tokenized above, so no epochs are needed — just resize.
    state_.assign(static_cast<std::size_t>(ts_.size()), State{});
  }

 private:
  struct State {
    bool dirty = true;
    Time base = 0;
    DemandSoA preempt;
  };
  std::vector<State> state_;
};

}  // namespace

std::unique_ptr<PreparedAnalysis> prepare_fed_fp(AnalysisSession& session) {
  return std::make_unique<FedFpPrepared>(session);
}

}  // namespace dpcp
