#include "analysis/spin_son.hpp"

#include <algorithm>

#include "analysis/rta_common.hpp"

#include "util/fixed_point.hpp"

namespace dpcp {

Time spin_delay(const TaskSet& ts, const Partition& part, int task,
                ResourceId q) {
  const DagTask& ti = ts.task(task);
  Time delay = 0;
  // FIFO: one in-flight request per contending processor can be ahead.
  for (int j = 0; j < ts.size(); ++j) {
    if (j == task) continue;
    const auto& use = ts.task(j).usage(q);
    if (!use.used()) continue;
    const int slots = std::min(part.cluster_size(j), use.max_requests);
    delay += static_cast<Time>(slots) * use.cs_length;
  }
  const auto& own = ti.usage(q);
  if (own.max_requests > 1) {
    const int slots =
        std::min(part.cluster_size(task) - 1, own.max_requests - 1);
    if (slots > 0) delay += static_cast<Time>(slots) * own.cs_length;
  }
  return delay;
}

namespace {

class SpinSonPrepared final : public PreparedAnalysis {
 public:
  explicit SpinSonPrepared(AnalysisSession& session)
      : PreparedAnalysis(session),
        statics_(static_cast<std::size_t>(ts_.size())),
        state_(static_cast<std::size_t>(ts_.size())) {
    // Contender sets feed partition_inputs() from the first bind() on, so
    // they are built eagerly (cheap: usage-table scans only).
    for (int i = 0; i < ts_.size(); ++i) build_statics(i);
  }

  std::optional<Time> wcrt(int task,
                           const std::vector<Time>& hint) override {
    const DagTask& ti = ts_.task(task);
    const TaskStatics& ps = statics_[static_cast<std::size_t>(task)];
    State& st = state_[static_cast<std::size_t>(task)];
    if (st.dirty) {
      st.mi = partition().cluster_size(task);
      // Per-job spin on l_q is bounded by BOTH (i) the per-request FIFO
      // bound N_{i,q} * spin_delay (each request waits for at most one
      // in-flight request per contending processor) and (ii) the remote
      // critical-section work actually released within the response window
      // (a job cannot busy-wait on work that does not exist) -- the same
      // min() structure as Lemma 3's eps/zeta.  The joint N^lambda maximum
      // puts all spin on the analysed path (coefficient 1 > 1/m), so spin
      // inflates the path only.
      st.fifo_bound.clear();
      for (std::size_t k = 0; k < ps.q.size(); ++k)
        st.fifo_bound.push_back(
            static_cast<Time>(ps.max_requests[k]) *
            spin_delay(ts_, partition(), task, ps.q[k]));
      preemption_demand(task, &st.preempt);
      st.arrival_blocking = 0;
      if (!st.preempt.empty() || shares_processor(task)) {
        // Sec. VI shared processors: spinning and critical sections are
        // non-preemptable on the runtime (else lock holders deadlock), so
        // (i) a higher-priority co-located preemptor occupies the shared
        // processor for its busy-wait time too -- inflate its preemption
        // demand by its worst-case per-job spin; (ii) one already-started
        // lower-priority spin+CS chunk can block tau_i at arrival.
        for (std::size_t k = 0; k < st.preempt.size(); ++k)
          st.preempt.demand[k] += job_spin_bound(st.preempt.task[k]);
        st.arrival_blocking = max_lower_priority_chunk(task);
      }
      st.dirty = false;
    }

    const Time lstar = ti.longest_path_length();
    const Time base = lstar + div_ceil(ti.wcet() - lstar, st.mi);
    auto f = [&](Time r) {
      Time spin = 0;
      for (std::size_t k = 0; k < ps.q.size(); ++k) {
        const std::uint32_t cb = ps.coff[k], ce = ps.coff[k + 1];
        const Time wd =
            ps.own_window[k] +
            window_demand(ps.contenders.task.data() + cb,
                          ps.contenders.demand.data() + cb,
                          ps.contenders.period.data() + cb, ce - cb, hint, r);
        spin += std::min(st.fifo_bound[k], wd);
      }
      return base + st.arrival_blocking + spin +
             window_demand(st.preempt, hint, r);
    };
    return solve_fixed_point(f, base, ti.deadline()).value;
  }

 protected:
  void partition_inputs(const Partition& part, int task,
                        std::vector<Time>* out) const override {
    // The FIFO slot counts read the cluster sizes of every task contending
    // for a resource tau_i uses; preemption reads the co-hosted tasks.
    append_cluster(part, task, out);
    append_cohosted(part, task, out);
    const TaskStatics& ps = statics_[static_cast<std::size_t>(task)];
    out->push_back(static_cast<Time>(ps.contender_tasks.size()));
    for (int j : ps.contender_tasks) out->push_back(part.cluster_size(j));
    // User-set epochs of tau_i's own resources: two contender sets with
    // equal sizes and cluster sizes can still carry different demand after
    // a session mutation swaps one contender for another.
    for (ResourceId q : ts_.task(task).used_resources())
      append_users_epoch(q, out);
    // On shared processors the blocking/preemption terms evaluate
    // spin_delay() of co-located tasks, which reads the cluster size of
    // *their* contenders -- conservatively fingerprint every cluster size
    // (and, same conservatism, every user-set epoch).
    if (shares_processor(task)) {
      out->push_back(static_cast<Time>(ts_.size()));
      for (int j = 0; j < ts_.size(); ++j)
        out->push_back(part.cluster_size(j));
      for (ResourceId q = 0; q < part.num_resources(); ++q)
        append_users_epoch(q, out);
    }
  }

  void invalidate(int task) override {
    state_[static_cast<std::size_t>(task)].dirty = true;
  }

  void on_taskset_changed(bool /*remap*/) override {
    const std::size_t n = static_cast<std::size_t>(ts_.size());
    statics_.assign(n, TaskStatics{});
    state_.assign(n, State{});
    // Rebuild eagerly: partition_inputs() above serializes the contender
    // sets on the very next bind().
    for (int i = 0; i < ts_.size(); ++i) build_statics(i);
  }

 private:
  /// Partition-independent per-resource data of one task's analysis, in
  /// SoA layout (index = position in used_resources() order).  The
  /// contender lists of all resources live back-to-back in one DemandSoA;
  /// coff[k]..coff[k+1] delimits resource k's slice.
  struct TaskStatics {
    std::vector<ResourceId> q;
    std::vector<int> max_requests;
    /// Own concurrent requests spun on once each (window-side term).
    std::vector<Time> own_window;
    std::vector<std::uint32_t> coff;  // contender ranges, q.size()+1 entries
    DemandSoA contenders;
    /// Sorted union of tasks sharing any resource with tau_i.
    std::vector<int> contender_tasks;
  };
  struct State {
    bool dirty = true;
    int mi = 1;
    std::vector<Time> fifo_bound;  // N_{i,q} * spin_delay, per resource
    /// Co-located higher-priority (task, C_j + per-job spin) demand.
    DemandSoA preempt;
    /// One non-preemptable lower-priority spin+CS chunk (Sec. VI).
    Time arrival_blocking = 0;
  };

  /// Worst-case processor time task j busy-waits per job: one FIFO spin
  /// bound per request, summed over its resources.
  Time job_spin_bound(int j) const {
    Time total = 0;
    for (ResourceId q : ts_.task(j).used_resources())
      total += static_cast<Time>(ts_.task(j).usage(q).max_requests) *
               spin_delay(ts_, partition(), j, q);
    return total;
  }

  /// Largest single non-preemptable chunk (spin delay + critical section
  /// of one request) of a lower-priority task co-located with tau_i.  At
  /// most one such chunk can be in flight when a job of tau_i arrives,
  /// and none can start while tau_i has ready work.
  Time max_lower_priority_chunk(int task) const {
    // A task co-hosted on several of tau_i's processors is visited once
    // per processor; the max does not mind.
    Time worst = 0;
    for (ProcessorId p : partition().cluster(task)) {
      for (int j : hosts(p)) {
        if (ts_.task(j).priority() >= ts_.task(task).priority()) continue;
        for (ResourceId q : ts_.task(j).used_resources())
          worst = std::max(
              worst, spin_delay(ts_, partition(), j, q) +
                         ts_.task(j).usage(q).cs_length);
      }
    }
    return worst;
  }

  void build_statics(int task) {
    TaskStatics& ps = statics_[static_cast<std::size_t>(task)];
    const DagTask& ti = ts_.task(task);
    std::vector<char> seen(static_cast<std::size_t>(ts_.size()), 0);
    ps.coff.push_back(0);
    for (ResourceId q : ti.used_resources()) {
      ps.q.push_back(q);
      ps.max_requests.push_back(ti.usage(q).max_requests);
      ps.own_window.push_back(
          static_cast<Time>(std::max(0, ti.usage(q).max_requests - 1)) *
          ti.usage(q).cs_length);
      for (int j = 0; j < ts_.size(); ++j) {
        if (j == task) continue;
        const auto& use = ts_.task(j).usage(q);
        if (!use.used()) continue;
        ps.contenders.add(j, use.demand(), ts_.task(j).period());
        if (!seen[static_cast<std::size_t>(j)]) {
          seen[static_cast<std::size_t>(j)] = 1;
          ps.contender_tasks.push_back(j);
        }
      }
      ps.coff.push_back(static_cast<std::uint32_t>(ps.contenders.size()));
    }
    std::sort(ps.contender_tasks.begin(), ps.contender_tasks.end());
  }

  std::vector<TaskStatics> statics_;
  std::vector<State> state_;
};

}  // namespace

std::unique_ptr<PreparedAnalysis> prepare_spin_son(AnalysisSession& session) {
  return std::make_unique<SpinSonPrepared>(session);
}

}  // namespace dpcp
