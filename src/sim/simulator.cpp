#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace dpcp {
namespace {

struct JobState {
  int task = -1;
  std::int64_t id = -1;
  Time arrival = 0;
  Time deadline = 0;
  int vertices_left = 0;
  std::vector<int> preds_left;
  std::vector<int> seg_index;       // per vertex
  std::vector<Time> seg_remaining;  // per vertex, of the current segment
  std::vector<std::vector<Segment>> segments;  // scaled copy of the plan
};

struct GlobalRequest {
  int id = -1;
  int task = -1;
  std::int64_t job = -1;
  int vertex = -1;
  ResourceId resource = -1;
  ProcessorId proc = -1;
  Time arrival = 0;
  Time remaining = 0;
  bool granted = false;
  bool finished = false;
  std::set<int> lower_blockers;  // distinct lower-priority blocking requests
};

struct LocalResource {
  bool locked = false;
  std::int64_t owner_job = -1;
  int owner_vertex = -1;
  std::deque<std::pair<std::int64_t, int>> waiters;  // (job, vertex) FIFO
};

enum class Occupant { kIdle, kVertex, kAgent, kSpinning };

struct Processor {
  // Tasks mapped to this processor, sorted by decreasing base priority.
  // Heavy (federated) processors carry exactly one task; shared light-task
  // processors (Sec. VI) may carry several, scheduled P-FP preemptively.
  std::vector<int> cluster_tasks;
  Occupant occ = Occupant::kIdle;
  std::int64_t job = -1;
  int vertex = -1;
  int request = -1;
  std::uint64_t token = 0;
  // Ready (granted, not running) agents: ordered by (prio desc, FIFO).
  std::set<std::tuple<int, std::int64_t, int>> ready_agents;
  // Suspended (not granted) requests: (prio desc, FIFO, id).
  std::set<std::tuple<int, std::int64_t, int>> suspended;
  // Ceilings of resources currently locked on this processor.
  std::multiset<int> locked_ceilings;
  // Live (issued, unfinished) requests targeting this processor.
  std::set<int> live_requests;
};

}  // namespace

struct Simulator::Impl {
  const TaskSet& ts;
  const Partition& part;
  const SimConfig& cfg;
  std::vector<TraceEvent>& trace;
  SimResult result;
  Rng rng;

  std::vector<TaskPlan> plans;
  EventQueue events;
  std::uint64_t next_token = 1;
  Time now = 0;

  std::vector<Processor> procs;
  std::unordered_map<std::int64_t, JobState> jobs;
  std::int64_t next_job_id = 0;
  std::vector<GlobalRequest> requests;
  std::map<ResourceId, LocalResource> local_res;
  std::vector<int> ceiling_of;    // per resource: max user base priority
  std::vector<bool> global_res;   // per resource
  std::vector<bool> global_locked;

  // Per task: RQ^N / RQ^L ready queues of (job, vertex).
  std::vector<std::deque<std::pair<std::int64_t, int>>> rqn, rql;
  // kSpinFifo only: vertices whose current segment is a critical section,
  // waiting for a processor to *request on*.  Under spin locks a request
  // joins the lock's FIFO queue only once its vertex occupies a processor
  // (acquire-on-dispatch): a task cannot reserve a queue slot without
  // burning processor time on it.  Decoupling the two (the pre-fix
  // behaviour) both underestimated spin interference and deadlocked on
  // shared light-task processors -- a waiter could hold a FIFO slot while
  // another vertex spun non-preemptively on the only processor the lock
  // holder could run on.
  std::vector<std::deque<std::pair<std::int64_t, int>>> rqs;
  // kSpinFifo only: where each currently-spinning vertex sits.
  std::map<std::pair<std::int64_t, int>, ProcessorId> spinning_at;
  std::vector<Time> response_sum;
  // Sec. VI: light tasks execute sequentially (at most one running vertex).
  std::vector<bool> is_light;
  std::vector<int> running_vertices;

  Impl(const TaskSet& t, const Partition& p, const SimConfig& c,
       std::vector<TraceEvent>& tr)
      : ts(t), part(p), cfg(c), trace(tr), rng(c.seed) {
    plans = build_plans(ts, cfg.execution_scale);
    procs.resize(static_cast<std::size_t>(part.num_processors()));
    for (int i = 0; i < ts.size(); ++i)
      for (ProcessorId pr : part.cluster(i))
        procs[static_cast<std::size_t>(pr)].cluster_tasks.push_back(i);
    for (auto& p : procs)
      std::sort(p.cluster_tasks.begin(), p.cluster_tasks.end(),
                [&](int a, int b) {
                  return ts.task(a).priority() > ts.task(b).priority();
                });
    is_light.resize(static_cast<std::size_t>(ts.size()));
    running_vertices.assign(static_cast<std::size_t>(ts.size()), 0);
    // Sequential ("light", Sec. VI) treatment follows the partition: a
    // task sharing a processor with another task runs one vertex at a
    // time; tasks with dedicated clusters run as parallel DAGs.
    for (int i = 0; i < ts.size(); ++i)
      is_light[static_cast<std::size_t>(i)] = part.task_shares_processor(i);
    rqn.resize(static_cast<std::size_t>(ts.size()));
    rql.resize(static_cast<std::size_t>(ts.size()));
    response_sum.assign(static_cast<std::size_t>(ts.size()), 0);
    result.task.resize(static_cast<std::size_t>(ts.size()));

    ceiling_of.resize(static_cast<std::size_t>(ts.num_resources()), INT32_MIN);
    global_res.resize(static_cast<std::size_t>(ts.num_resources()), false);
    global_locked.resize(static_cast<std::size_t>(ts.num_resources()), false);
    for (ResourceId q = 0; q < ts.num_resources(); ++q) {
      ceiling_of[static_cast<std::size_t>(q)] = ts.ceiling_priority(q);
      // Under FIFO spin locks every resource executes locally; only the
      // DPCP-p protocol distinguishes global resources.
      global_res[static_cast<std::size_t>(q)] =
          cfg.protocol == SimProtocol::kDpcpP && ts.is_global(q);
      if (!global_res[static_cast<std::size_t>(q)])
        local_res[q] = LocalResource{};
    }
    rqs.resize(static_cast<std::size_t>(ts.size()));
  }

  // ---- tracing ----------------------------------------------------------
  void record(TraceKind kind, int task, std::int64_t job, int vertex,
              int processor, int resource) {
    if (!cfg.record_trace) return;
    if (cfg.max_trace_entries > 0 &&
        static_cast<std::int64_t>(trace.size()) >= cfg.max_trace_entries)
      throw std::runtime_error(
          "simulator trace guard tripped: more than " +
          std::to_string(cfg.max_trace_entries) +
          " trace entries recorded (simulated time " + std::to_string(now) +
          " ns) -- raise SimConfig::max_trace_entries (0 = unlimited) or "
          "narrow the horizon");
    trace.push_back(TraceEvent{now, kind, task, job, vertex, processor,
                               resource});
  }

  // ---- event plumbing ---------------------------------------------------
  void push_event(Time t, SimEventKind kind, int subject,
                  std::uint64_t token = 0) {
    events.schedule(t, kind, subject, token);
  }

  // ---- job lifecycle ----------------------------------------------------
  void release_job(int task_idx) {
    const DagTask& t = ts.task(task_idx);
    JobState job;
    job.task = task_idx;
    job.id = next_job_id++;
    job.arrival = now;
    job.deadline = now + t.deadline();
    job.vertices_left = t.vertex_count();
    job.preds_left.resize(static_cast<std::size_t>(t.vertex_count()));
    job.seg_index.assign(static_cast<std::size_t>(t.vertex_count()), 0);
    job.seg_remaining.assign(static_cast<std::size_t>(t.vertex_count()), 0);
    job.segments.resize(static_cast<std::size_t>(t.vertex_count()));
    for (VertexId v = 0; v < t.vertex_count(); ++v) {
      job.preds_left[static_cast<std::size_t>(v)] =
          static_cast<int>(t.graph().predecessors(v).size());
      job.segments[static_cast<std::size_t>(v)] =
          plans[static_cast<std::size_t>(task_idx)]
              .vertices[static_cast<std::size_t>(v)]
              .segments;
    }
    const std::int64_t id = job.id;
    jobs.emplace(id, std::move(job));
    ++result.task[static_cast<std::size_t>(task_idx)].jobs_released;
    record(TraceKind::kJobRelease, task_idx, id, -1, -1, -1);

    for (VertexId v = 0; v < t.vertex_count(); ++v)
      if (jobs[id].preds_left[static_cast<std::size_t>(v)] == 0)
        vertex_ready(id, v);

    // Next arrival.
    Time next = now + t.period();
    if (cfg.release_jitter > 0)
      next += rng.uniform_int(0, cfg.release_jitter);
    if (next <= cfg.horizon) push_event(next, SimEventKind::kJobRelease, task_idx);
  }

  /// A vertex whose predecessors all finished becomes pending; route its
  /// current segment per the locking rules.
  void vertex_ready(std::int64_t job_id, int vertex) {
    JobState& job = jobs[job_id];
    auto& segs = job.segments[static_cast<std::size_t>(vertex)];
    const int si = job.seg_index[static_cast<std::size_t>(vertex)];
    if (si >= static_cast<int>(segs.size())) {
      vertex_complete(job_id, vertex);
      return;
    }
    const Segment& seg = segs[static_cast<std::size_t>(si)];
    job.seg_remaining[static_cast<std::size_t>(vertex)] = seg.length;
    if (seg.critical) {
      route_critical(job_id, vertex, seg.resource);
    } else {
      rqn[static_cast<std::size_t>(job.task)].emplace_back(job_id, vertex);
    }
  }

  /// Routes a vertex whose current segment is a critical section.  Under
  /// DPCP-p the request is issued immediately (suspension-based waiting:
  /// no processor is consumed while blocked).  Under FIFO spin locks the
  /// vertex queues for a processor first and requests when dispatched.
  void route_critical(std::int64_t job_id, int vertex, ResourceId q) {
    if (cfg.protocol == SimProtocol::kSpinFifo) {
      rqs[static_cast<std::size_t>(jobs[job_id].task)].emplace_back(job_id,
                                                                    vertex);
    } else {
      issue_request(job_id, vertex, q);
    }
  }

  void vertex_complete(std::int64_t job_id, int vertex) {
    JobState& job = jobs[job_id];
    const DagTask& t = ts.task(job.task);
    record(TraceKind::kVertexComplete, job.task, job_id, vertex, -1, -1);
    --job.vertices_left;
    for (VertexId w : t.graph().successors(vertex)) {
      if (--job.preds_left[static_cast<std::size_t>(w)] == 0)
        vertex_ready(job_id, w);
    }
    if (job.vertices_left == 0) {
      auto& st = result.task[static_cast<std::size_t>(job.task)];
      const Time resp = now - job.arrival;
      ++st.jobs_completed;
      st.max_response = std::max(st.max_response, resp);
      response_sum[static_cast<std::size_t>(job.task)] += resp;
      if (now > job.deadline) ++st.deadline_misses;
      record(TraceKind::kJobComplete, job.task, job_id, -1, -1, -1);
      jobs.erase(job_id);
    }
  }

  /// Advance past the just-finished segment and route the next one.
  void advance_vertex(std::int64_t job_id, int vertex) {
    JobState& job = jobs[job_id];
    const int si = ++job.seg_index[static_cast<std::size_t>(vertex)];
    auto& segs = job.segments[static_cast<std::size_t>(vertex)];
    if (si >= static_cast<int>(segs.size())) {
      vertex_complete(job_id, vertex);
      return;
    }
    const Segment& seg = segs[static_cast<std::size_t>(si)];
    job.seg_remaining[static_cast<std::size_t>(vertex)] = seg.length;
    if (seg.critical) {
      route_critical(job_id, vertex, seg.resource);
    } else {
      // Rule 4: after a request finishes the vertex re-enters RQ^N.
      rqn[static_cast<std::size_t>(job.task)].emplace_back(job_id, vertex);
    }
  }

  // ---- locking rules ------------------------------------------------------
  void issue_request(std::int64_t job_id, int vertex, ResourceId q) {
    JobState& job = jobs[job_id];
    if (!global_res[static_cast<std::size_t>(q)]) {
      // DPCP-p only: under kSpinFifo local requests are issued at dispatch
      // time (dispatch_request), never from here.
      assert(cfg.protocol == SimProtocol::kDpcpP);
      LocalResource& lr = local_res[q];
      if (!lr.locked) {
        // Rule 2: lock and become ready on RQ^L.
        lr.locked = true;
        lr.owner_job = job_id;
        lr.owner_vertex = vertex;
        record(TraceKind::kLocalLock, job.task, job_id, vertex, -1, q);
        rql[static_cast<std::size_t>(job.task)].emplace_back(job_id, vertex);
      } else {
        // Contended: the vertex suspends until FIFO wake-up (Rule 1).
        lr.waiters.emplace_back(job_id, vertex);
      }
      return;
    }

    // Rule 3: global resource -- the vertex suspends; the request goes to
    // the resource's synchronization processor.
    const ProcessorId target = part.processor_of_resource(q);
    assert(target != Partition::kUnassigned &&
           "global resource not placed on any processor");
    GlobalRequest req;
    req.id = static_cast<int>(requests.size());
    req.task = job.task;
    req.job = job_id;
    req.vertex = vertex;
    req.resource = q;
    req.proc = target;
    req.arrival = now;
    req.remaining =
        job.segments[static_cast<std::size_t>(vertex)]
            [static_cast<std::size_t>(
                 job.seg_index[static_cast<std::size_t>(vertex)])]
                .length;
    requests.push_back(req);
    ++result.global_requests_issued;
    Processor& p = procs[static_cast<std::size_t>(target)];
    p.live_requests.insert(req.id);
    record(TraceKind::kRequestIssue, job.task, job_id, vertex, target, q);

    // Lemma-1 bookkeeping: a lower-priority agent already executing here
    // blocks this request from its arrival.
    if (cfg.run_checkers && p.occ == Occupant::kAgent) {
      const GlobalRequest& running = requests[static_cast<std::size_t>(p.request)];
      if (ts.task(running.task).priority() < ts.task(req.task).priority())
        requests.back().lower_blockers.insert(running.id);
    }

    try_grant_on_arrival(req.id);
  }

  int processor_ceiling(const Processor& p) const {
    return p.locked_ceilings.empty() ? INT32_MIN : *p.locked_ceilings.rbegin();
  }

  void try_grant_on_arrival(int req_id) {
    GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    Processor& p = procs[static_cast<std::size_t>(req.proc)];
    const int prio = ts.task(req.task).priority();
    const bool free = !global_locked[static_cast<std::size_t>(req.resource)];
    if (free && prio > processor_ceiling(p)) {
      grant(req_id);
    } else {
      p.suspended.insert({-prio, req.id, req.id});
    }
  }

  void grant(int req_id) {
    GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    Processor& p = procs[static_cast<std::size_t>(req.proc)];
    assert(!req.granted);
    if (global_locked[static_cast<std::size_t>(req.resource)])
      ++result.mutual_exclusion_violations;
    if (cfg.run_checkers &&
        ts.task(req.task).priority() <= processor_ceiling(p))
      ++result.ceiling_violations;
    global_locked[static_cast<std::size_t>(req.resource)] = true;
    p.locked_ceilings.insert(
        ceiling_of[static_cast<std::size_t>(req.resource)]);
    req.granted = true;
    const int prio = ts.task(req.task).priority();
    p.ready_agents.insert({-prio, req.id, req.id});
    record(TraceKind::kRequestGrant, req.task, req.job, req.vertex, req.proc,
           req.resource);
  }

  void recheck_grants(ProcessorId proc) {
    Processor& p = procs[static_cast<std::size_t>(proc)];
    while (!p.suspended.empty()) {
      // Highest-priority suspended request whose resource is free.
      auto pick = p.suspended.end();
      for (auto it = p.suspended.begin(); it != p.suspended.end(); ++it) {
        const GlobalRequest& r =
            requests[static_cast<std::size_t>(std::get<2>(*it))];
        if (!global_locked[static_cast<std::size_t>(r.resource)]) {
          pick = it;
          break;
        }
      }
      if (pick == p.suspended.end()) return;
      const int req_id = std::get<2>(*pick);
      const GlobalRequest& r = requests[static_cast<std::size_t>(req_id)];
      if (ts.task(r.task).priority() <= processor_ceiling(p)) return;
      p.suspended.erase(pick);
      grant(req_id);
    }
  }

  void finish_request(int req_id) {
    GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    Processor& p = procs[static_cast<std::size_t>(req.proc)];
    req.finished = true;
    ++result.global_requests_completed;
    global_locked[static_cast<std::size_t>(req.resource)] = false;
    auto it = p.locked_ceilings.find(
        ceiling_of[static_cast<std::size_t>(req.resource)]);
    assert(it != p.locked_ceilings.end());
    p.locked_ceilings.erase(it);
    p.live_requests.erase(req.id);
    record(TraceKind::kAgentComplete, req.task, req.job, req.vertex, req.proc,
           req.resource);

    if (cfg.run_checkers) {
      const int blockers = static_cast<int>(req.lower_blockers.size());
      result.max_lower_priority_blockers =
          std::max(result.max_lower_priority_blockers, blockers);
      if (blockers > 1) ++result.lemma1_violations;
    }

    recheck_grants(req.proc);
    advance_vertex(req.job, req.vertex);  // Rule 4
  }

  void release_local(ResourceId q, std::int64_t job_id, int vertex) {
    LocalResource& lr = local_res[q];
    assert(lr.locked && lr.owner_job == job_id && lr.owner_vertex == vertex);
    (void)job_id;
    (void)vertex;
    record(TraceKind::kLocalUnlock,
           jobs.count(job_id) ? jobs[job_id].task : -1, job_id, vertex, -1, q);
    if (lr.waiters.empty()) {
      lr.locked = false;
      lr.owner_job = -1;
      lr.owner_vertex = -1;
      return;
    }
    const auto [wjob, wvertex] = lr.waiters.front();
    lr.waiters.pop_front();
    lr.owner_job = wjob;
    lr.owner_vertex = wvertex;
    JobState& wj = jobs[wjob];
    record(TraceKind::kLocalLock, wj.task, wjob, wvertex, -1, q);
    if (cfg.protocol == SimProtocol::kSpinFifo) {
      // FIFO handoff.  Every waiter joined the queue when it started
      // spinning (acquire-on-dispatch), so the new owner is on a
      // processor right now and starts its critical section in place --
      // lock holders always make progress.
      const auto it = spinning_at.find(std::make_pair(wjob, wvertex));
      assert(it != spinning_at.end() &&
             "spin waiters always occupy a processor");
      const ProcessorId pid = it->second;
      spinning_at.erase(it);
      Processor& p = procs[static_cast<std::size_t>(pid)];
      assert(p.occ == Occupant::kSpinning && p.job == wjob &&
             p.vertex == wvertex);
      p.occ = Occupant::kIdle;
      p.token = 0;
      --running_vertices[static_cast<std::size_t>(wj.task)];
      dispatch_vertex(pid, wjob, wvertex);
    } else {
      rql[static_cast<std::size_t>(wj.task)].emplace_back(wjob, wvertex);
    }
  }

  /// kSpinFifo: a vertex whose critical segment reached the front of RQ^S
  /// got a processor -- issue the request *now*.  A free lock is taken and
  /// the critical section runs immediately; a held lock enqueues the
  /// request FIFO and the vertex busy-waits on this processor until the
  /// release hands over in place.
  void dispatch_request(ProcessorId pid, std::int64_t job_id, int vertex) {
    JobState& job = jobs[job_id];
    const Segment& seg =
        job.segments[static_cast<std::size_t>(vertex)][static_cast<std::size_t>(
            job.seg_index[static_cast<std::size_t>(vertex)])];
    assert(seg.critical);
    LocalResource& lr = local_res[seg.resource];
    if (!lr.locked) {
      lr.locked = true;
      lr.owner_job = job_id;
      lr.owner_vertex = vertex;
      record(TraceKind::kLocalLock, job.task, job_id, vertex, pid,
             seg.resource);
      dispatch_vertex(pid, job_id, vertex);
    } else {
      lr.waiters.emplace_back(job_id, vertex);
      dispatch_spin(pid, job_id, vertex);
    }
  }

  /// kSpinFifo: occupy a processor with a busy-waiting vertex.
  void dispatch_spin(ProcessorId pid, std::int64_t job_id, int vertex) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    JobState& job = jobs[job_id];
    ++running_vertices[static_cast<std::size_t>(job.task)];
    p.occ = Occupant::kSpinning;
    p.job = job_id;
    p.vertex = vertex;
    p.token = 0;  // no completion event: the lock release wakes it
    spinning_at[{job_id, vertex}] = pid;
    const Segment& seg =
        job.segments[static_cast<std::size_t>(vertex)][static_cast<std::size_t>(
            job.seg_index[static_cast<std::size_t>(vertex)])];
    record(TraceKind::kVertexDispatch, job.task, job_id, vertex, pid,
           seg.resource);
  }

  // ---- dispatching ---------------------------------------------------------
  void save_preempted(ProcessorId pid) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    if (p.occ == Occupant::kIdle) return;
    ++result.preemptions;
    if (p.occ == Occupant::kVertex) {
      JobState& job = jobs[p.job];
      // Remaining time of the in-flight segment.
      // (seg_remaining was set at dispatch; reduce by elapsed time.)
      Time& rem = job.seg_remaining[static_cast<std::size_t>(p.vertex)];
      rem -= now - dispatch_time_[static_cast<std::size_t>(pid)];
      assert(rem >= 0);
      const Segment& seg =
          job.segments[static_cast<std::size_t>(p.vertex)]
              [static_cast<std::size_t>(
                   job.seg_index[static_cast<std::size_t>(p.vertex)])];
      record(TraceKind::kVertexPreempt, job.task, p.job, p.vertex, pid,
             seg.critical ? seg.resource : -1);
      --running_vertices[static_cast<std::size_t>(job.task)];
      // Preempted vertices resume first: front of the matching ready queue.
      if (seg.critical)
        rql[static_cast<std::size_t>(job.task)].emplace_front(p.job, p.vertex);
      else
        rqn[static_cast<std::size_t>(job.task)].emplace_front(p.job, p.vertex);
    } else {
      GlobalRequest& req = requests[static_cast<std::size_t>(p.request)];
      req.remaining -= now - dispatch_time_[static_cast<std::size_t>(pid)];
      assert(req.remaining >= 0);
      record(TraceKind::kAgentPreempt, req.task, req.job, req.vertex, pid,
             req.resource);
      const int prio = ts.task(req.task).priority();
      p.ready_agents.insert({-prio, req.id, req.id});
    }
    p.occ = Occupant::kIdle;
    p.token = 0;
  }

  std::vector<Time> dispatch_time_;

  void dispatch_agent(ProcessorId pid, int req_id) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    p.occ = Occupant::kAgent;
    p.request = req_id;
    p.token = next_token++;
    dispatch_time_[static_cast<std::size_t>(pid)] = now;
    push_event(now + req.remaining, SimEventKind::kSegmentDone, pid, p.token);
    record(TraceKind::kAgentDispatch, req.task, req.job, req.vertex, pid,
           req.resource);
    // Lemma-1 bookkeeping: this agent blocks every pending higher-priority
    // request on this processor while it runs.
    if (cfg.run_checkers) {
      const int prio = ts.task(req.task).priority();
      for (int other_id : p.live_requests) {
        if (other_id == req_id) continue;
        GlobalRequest& other = requests[static_cast<std::size_t>(other_id)];
        if (!other.finished && ts.task(other.task).priority() > prio)
          other.lower_blockers.insert(req_id);
      }
    }
  }

  void dispatch_vertex(ProcessorId pid, std::int64_t job_id, int vertex) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    JobState& job = jobs[job_id];
    ++running_vertices[static_cast<std::size_t>(job.task)];
    p.occ = Occupant::kVertex;
    p.job = job_id;
    p.vertex = vertex;
    p.token = next_token++;
    dispatch_time_[static_cast<std::size_t>(pid)] = now;
    push_event(now + job.seg_remaining[static_cast<std::size_t>(vertex)],
               SimEventKind::kSegmentDone, pid, p.token);
    const Segment& seg =
        job.segments[static_cast<std::size_t>(vertex)][static_cast<std::size_t>(
            job.seg_index[static_cast<std::size_t>(vertex)])];
    record(TraceKind::kVertexDispatch, job.task, job_id, vertex, pid,
           seg.critical ? seg.resource : -1);
  }

  void reschedule() {
    // Pass 1: agents (effective priority above every base priority).
    for (ProcessorId pid = 0; pid < part.num_processors(); ++pid) {
      Processor& p = procs[static_cast<std::size_t>(pid)];
      if (p.ready_agents.empty()) continue;
      const auto top = *p.ready_agents.begin();
      const int top_prio = -std::get<0>(top);
      if (p.occ == Occupant::kAgent) {
        const GlobalRequest& running =
            requests[static_cast<std::size_t>(p.request)];
        if (ts.task(running.task).priority() >= top_prio) continue;
      }
      save_preempted(pid);
      p.ready_agents.erase(p.ready_agents.begin());
      dispatch_agent(pid, std::get<2>(top));
    }
    // Pass 2: vertices onto idle cluster processors (RQ^L before RQ^N).
    // Shared processors pick the highest-priority mapped task with ready
    // work; light tasks run at most one vertex at a time (Sec. VI).
    for (ProcessorId pid = 0; pid < part.num_processors(); ++pid) {
      Processor& p = procs[static_cast<std::size_t>(pid)];
      if (p.occ != Occupant::kIdle) continue;
      const int t = pick_ready_task(p, /*min_priority=*/INT32_MIN);
      if (t >= 0) dispatch_front(pid, t);
    }
    // Pass 3 (shared processors only): P-FP preemption -- a ready vertex of
    // a higher-priority co-located task preempts a running lower-priority
    // vertex.  Under FIFO spin locks a critical section is non-preemptable
    // (as is spinning, which never has occ == kVertex): preempting a lock
    // holder on a shared processor lets a higher-priority co-located
    // requester spin on the only processor the holder can run on --
    // deadlock.  MSRP-style protocols forbid exactly this; the SPIN-SON
    // analysis charges the symmetric cost as arrival blocking.
    for (ProcessorId pid = 0; pid < part.num_processors(); ++pid) {
      Processor& p = procs[static_cast<std::size_t>(pid)];
      if (p.occ != Occupant::kVertex || p.cluster_tasks.size() <= 1) continue;
      const JobState& running = jobs[p.job];
      if (cfg.protocol == SimProtocol::kSpinFifo &&
          running.segments[static_cast<std::size_t>(p.vertex)]
              [static_cast<std::size_t>(
                   running.seg_index[static_cast<std::size_t>(p.vertex)])]
                  .critical)
        continue;
      const int t = pick_ready_task(p, ts.task(running.task).priority());
      if (t >= 0) {
        save_preempted(pid);
        dispatch_front(pid, t);
      }
    }
    // Checker: work-conservation on dedicated (federated) clusters -- no
    // idle processor while the owning task has ready vertices.  Shared
    // light-task processors are priority-scheduled, not work-conserving
    // per task, so they are excluded.
    if (cfg.run_checkers) {
      for (int i = 0; i < ts.size(); ++i) {
        if (rql[static_cast<std::size_t>(i)].empty() &&
            rqs[static_cast<std::size_t>(i)].empty() &&
            rqn[static_cast<std::size_t>(i)].empty())
          continue;
        if (is_light[static_cast<std::size_t>(i)]) continue;
        for (ProcessorId pid : part.cluster(i)) {
          const Processor& p = procs[static_cast<std::size_t>(pid)];
          if (p.cluster_tasks.size() == 1 && p.occ == Occupant::kIdle)
            ++result.work_conserving_violations;
        }
      }
    }
  }

  /// Highest-priority task mapped to `p`, with priority above
  /// `min_priority`, that has dispatchable ready work.
  int pick_ready_task(const Processor& p, int min_priority) {
    for (int t : p.cluster_tasks) {  // sorted by decreasing priority
      if (ts.task(t).priority() <= min_priority) break;
      if (is_light[static_cast<std::size_t>(t)] &&
          running_vertices[static_cast<std::size_t>(t)] >= 1)
        continue;  // sequential: one vertex at a time
      if (!rql[static_cast<std::size_t>(t)].empty() ||
          !rqs[static_cast<std::size_t>(t)].empty() ||
          !rqn[static_cast<std::size_t>(t)].empty())
        return t;
    }
    return -1;
  }

  /// Dispatches the front of task t's ready queues onto pid: resource
  /// holders first (RQ^L), then spin-waiters (kSpinFifo), then RQ^N.
  void dispatch_front(ProcessorId pid, int t) {
    auto& ql = rql[static_cast<std::size_t>(t)];
    auto& qs = rqs[static_cast<std::size_t>(t)];
    auto& qn = rqn[static_cast<std::size_t>(t)];
    if (!ql.empty()) {
      const auto [job_id, vertex] = ql.front();
      ql.pop_front();
      dispatch_vertex(pid, job_id, vertex);
    } else if (!qs.empty()) {
      const auto [job_id, vertex] = qs.front();
      qs.pop_front();
      dispatch_request(pid, job_id, vertex);
    } else {
      const auto [job_id, vertex] = qn.front();
      qn.pop_front();
      dispatch_vertex(pid, job_id, vertex);
    }
  }

  void handle_segment_done(ProcessorId pid, std::uint64_t token) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    if (p.occ == Occupant::kIdle || p.token != token) return;  // stale
    if (p.occ == Occupant::kVertex) {
      const std::int64_t job_id = p.job;
      const int vertex = p.vertex;
      p.occ = Occupant::kIdle;
      p.token = 0;
      JobState& job = jobs[job_id];
      --running_vertices[static_cast<std::size_t>(job.task)];
      const Segment& seg =
          job.segments[static_cast<std::size_t>(vertex)]
              [static_cast<std::size_t>(
                   job.seg_index[static_cast<std::size_t>(vertex)])];
      // Per-segment processor vacate: kVertexComplete fires once per
      // vertex with no processor, so this is the only record tying a
      // run-to-completion exit to its processor (span reconstruction in
      // obs/chrome_trace needs every occupancy to close explicitly).
      record(TraceKind::kSegmentEnd, job.task, job_id, vertex, pid,
             seg.critical ? seg.resource : -1);
      if (seg.critical) release_local(seg.resource, job_id, vertex);
      advance_vertex(job_id, vertex);
    } else {
      const int req_id = p.request;
      p.occ = Occupant::kIdle;
      p.token = 0;
      finish_request(req_id);
    }
  }

  SimResult run() {
    dispatch_time_.assign(static_cast<std::size_t>(part.num_processors()), 0);
    for (int i = 0; i < ts.size(); ++i)
      push_event(0, SimEventKind::kJobRelease, i);

    // Next-event clock: jump straight to the earliest pending event; a
    // run cut short by `hard_stop` never counts as drained.
    bool truncated = false;
    while (!events.empty()) {
      if (events.next_time() > cfg.hard_stop) {
        truncated = true;
        break;
      }
      process_event(events.pop());
    }
    result.end_time = now;
    result.drained = !truncated && jobs.empty();
    finalize();
    return result;
  }

  void process_event(const SimEvent& e) {
    ++result.events_processed;
    if (cfg.max_events > 0 && result.events_processed > cfg.max_events)
      throw std::runtime_error(
          "simulator progress guard tripped: more than " +
          std::to_string(cfg.max_events) +
          " events processed (simulated time " + std::to_string(e.time) +
          " ns) -- the protocol machine is scheduling events without "
          "retiring workload");
    now = e.time;
    switch (e.kind) {
      case SimEventKind::kJobRelease:
        release_job(e.subject);
        break;
      case SimEventKind::kSegmentDone:
        handle_segment_done(e.subject, e.token);
        break;
    }
    reschedule();
  }

  void finalize() {
    for (int i = 0; i < ts.size(); ++i) {
      auto& st = result.task[static_cast<std::size_t>(i)];
      if (st.jobs_completed > 0)
        st.avg_response = static_cast<double>(
                              response_sum[static_cast<std::size_t>(i)]) /
                          static_cast<double>(st.jobs_completed);
    }
  }
};

Simulator::Simulator(const TaskSet& ts, const Partition& part,
                     SimConfig config)
    : ts_(ts), part_(part), config_(config) {}

SimResult Simulator::run() {
  if (ran_)
    throw std::logic_error(
        "Simulator::run() is single-shot: construct a new Simulator per "
        "run (a rerun would append to the already-filled trace)");
  ran_ = true;
  Impl impl(ts_, part_, config_, trace_);
  return impl.run();
}

SimResult simulate(const TaskSet& ts, const Partition& part,
                   const SimConfig& config) {
  Simulator sim(ts, part, config);
  return sim.run();
}

}  // namespace dpcp
