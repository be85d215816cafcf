#include "analysis/lpp.hpp"

#include <algorithm>

#include "analysis/rta_common.hpp"
#include "util/fixed_point.hpp"

namespace dpcp {

std::optional<Time> lpp_request_response(const TaskSet& ts, int task,
                                         ResourceId q,
                                         const std::vector<Time>& hint) {
  const DagTask& ti = ts.task(task);
  const auto& own = ti.usage(q);

  // One lower-priority critical section on l_q (progress mechanism).
  Time beta = 0;
  for (int j = 0; j < ts.size(); ++j) {
    if (j == task || ts.task(j).priority() >= ti.priority()) continue;
    if (ts.task(j).uses(q))
      beta = std::max(beta, ts.task(j).usage(q).cs_length);
  }

  auto f = [&](Time x) {
    Time higher = 0;
    for (int j = 0; j < ts.size(); ++j) {
      if (j == task || ts.task(j).priority() <= ti.priority()) continue;
      const auto& use = ts.task(j).usage(q);
      if (!use.used()) continue;
      higher += eta(x, hint[static_cast<std::size_t>(j)],
                    ts.task(j).period()) *
                use.demand();
    }
    return own.cs_length + beta + higher;
  };
  return solve_fixed_point(f, f(0), ti.deadline()).value;
}

namespace {

class LppPrepared final : public PreparedAnalysis {
 public:
  explicit LppPrepared(AnalysisSession& session)
      : PreparedAnalysis(session),
        statics_(static_cast<std::size_t>(ts_.size())),
        state_(static_cast<std::size_t>(ts_.size())) {}

  std::optional<Time> wcrt(int task,
                           const std::vector<Time>& hint) override {
    const DagTask& ti = ts_.task(task);
    const TaskStatics& ps = prepared_statics(task);
    State& st = state_[static_cast<std::size_t>(task)];
    if (st.dirty) {
      st.mi = partition().cluster_size(task);
      preemption_demand(task, &st.preempt);
      st.dirty = false;
    }

    // Per-request lock waits delay the path; with the envelope model every
    // request may be on it.  The critical section itself is already inside
    // C_i / L*_i, so only the wait (X - L_{i,q}) is added.  As in Lemma 3's
    // min(eps, zeta), the per-request accounting is capped by the critical-
    // section work other tasks can actually release within the response
    // window.  Intra-task queueing (the task's own off-path requests
    // serialising on l_q) is charged once per resource, mirroring Lemma 4
    // rather than per request (which would be quadratically pessimistic).
    request_bound_.clear();  // per resource k: N * (X - L)
    for (std::size_t k = 0; k < ps.q.size(); ++k) {
      const auto x = inner_response(ps, k, ti.deadline(), hint);
      if (!x) return std::nullopt;
      request_bound_.push_back(static_cast<Time>(ps.max_requests[k]) *
                               (*x - ps.cs_length[k]));
    }

    const Time lstar = ti.longest_path_length();
    const Time base =
        lstar + ps.intra + div_ceil(ti.wcet() - lstar, st.mi);
    // Light tasks on shared processors additionally suffer P-FP preemption
    // (Sec. VI extension).
    auto f = [&](Time r) {
      Time wait = 0;
      for (std::size_t k = 0; k < request_bound_.size(); ++k) {
        const std::uint32_t cb = ps.coff[k], ce = ps.coff[k + 1];
        const Time wd =
            window_demand(ps.contenders.task.data() + cb,
                          ps.contenders.demand.data() + cb,
                          ps.contenders.period.data() + cb, ce - cb, hint, r);
        wait += std::min(request_bound_[k], wd);
      }
      // Partially suspension-oblivious accounting: the time vertices spend
      // suspended on locks is additionally charged as interfering demand at
      // half weight -- between fully suspension-aware (+0) and fully
      // suspension-oblivious (+wait) treatments.  The half weight is the
      // calibration that reproduces the SPIN/LPP schedulability balance the
      // paper reports for the original analyses of [6]/[11], whose exact
      // formulas are not available here (see DESIGN.md section 3).
      return base + wait + div_ceil(wait, 2) +
             window_demand(st.preempt, hint, r);
    };
    return solve_fixed_point(f, base, ti.deadline()).value;
  }

 protected:
  void partition_inputs(const Partition& part, int task,
                        std::vector<Time>* out) const override {
    // Lock waits are partition-independent under local execution; only
    // m_i and the co-hosted (preempting) tasks are read from the
    // partition.  The wait terms do read *who* contends for tau_i's
    // resources — tokenize those user-set epochs so session mutations
    // re-analyze exactly the affected tasks.
    append_cluster(part, task, out);
    append_cohosted(part, task, out);
    for (ResourceId q : ts_.task(task).used_resources())
      append_users_epoch(q, out);
  }

  void invalidate(int task) override {
    state_[static_cast<std::size_t>(task)].dirty = true;
  }

  void on_taskset_changed(bool /*remap*/) override {
    const std::size_t n = static_cast<std::size_t>(ts_.size());
    statics_.assign(n, TaskStatics{});
    state_.assign(n, State{});
  }

 private:
  /// Partition-independent per-resource data of one task's analysis, SoA
  /// over the used_resources() order.  The higher-priority and all-
  /// contender lists of all resources live back-to-back in shared
  /// DemandSoA arrays, sliced by hoff/coff ranges.
  struct TaskStatics {
    bool ready = false;
    std::vector<ResourceId> q;
    std::vector<int> max_requests;
    std::vector<Time> cs_length;
    /// Lower-priority blocking bound beta (progress mechanism).
    std::vector<Time> beta;
    std::vector<std::uint32_t> hoff;  // higher-priority ranges
    DemandSoA higher;
    std::vector<std::uint32_t> coff;  // contender ranges
    DemandSoA contenders;
    /// Own off-path queueing charged once per resource (Lemma-4 mirror).
    Time intra = 0;
  };
  struct State {
    bool dirty = true;
    int mi = 1;
    DemandSoA preempt;
  };

  const TaskStatics& prepared_statics(int task) {
    TaskStatics& ps = statics_[static_cast<std::size_t>(task)];
    if (ps.ready) return ps;
    const DagTask& ti = ts_.task(task);
    ps.hoff.push_back(0);
    ps.coff.push_back(0);
    for (ResourceId q : ti.used_resources()) {
      ps.q.push_back(q);
      ps.max_requests.push_back(ti.usage(q).max_requests);
      ps.cs_length.push_back(ti.usage(q).cs_length);
      Time beta = 0;
      for (int j = 0; j < ts_.size(); ++j) {
        if (j == task) continue;
        const DagTask& tj = ts_.task(j);
        const auto& use = tj.usage(q);
        if (!use.used()) continue;
        if (tj.priority() < ti.priority())
          beta = std::max(beta, use.cs_length);
        else if (tj.priority() > ti.priority())
          ps.higher.add(j, use.demand(), tj.period());
        ps.contenders.add(j, use.demand(), tj.period());
      }
      ps.beta.push_back(beta);
      ps.hoff.push_back(static_cast<std::uint32_t>(ps.higher.size()));
      ps.coff.push_back(static_cast<std::uint32_t>(ps.contenders.size()));
      ps.intra += static_cast<Time>(ti.usage(q).max_requests - 1) *
                  ti.usage(q).cs_length;
    }
    ps.ready = true;
    return ps;
  }

  /// The inner Lemma-2-style recurrence over precomputed contender lists;
  /// identical to lpp_request_response().
  std::optional<Time> inner_response(const TaskStatics& ps, std::size_t k,
                                     Time deadline,
                                     const std::vector<Time>& hint) const {
    const std::uint32_t hb = ps.hoff[k], he = ps.hoff[k + 1];
    const Time constant = ps.cs_length[k] + ps.beta[k];
    auto f = [&](Time x) {
      return constant + window_demand(ps.higher.task.data() + hb,
                                      ps.higher.demand.data() + hb,
                                      ps.higher.period.data() + hb, he - hb,
                                      hint, x);
    };
    return solve_fixed_point(f, f(0), deadline).value;
  }

  std::vector<TaskStatics> statics_;
  std::vector<State> state_;
  std::vector<Time> request_bound_;  // per-query scratch, reused
};

}  // namespace

std::unique_ptr<PreparedAnalysis> prepare_lpp(AnalysisSession& session) {
  return std::make_unique<LppPrepared>(session);
}

}  // namespace dpcp
