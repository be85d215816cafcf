#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace dpcp {
namespace {

/// FIFO with front re-insertion on a power-of-two ring buffer: the ready
/// queues and the lock waiters.  Storage only grows, so a run allocates
/// only when a queue reaches a new high-water mark.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  void push_back(const T& v) {
    grow_if_full();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }
  void push_front(const T& v) {
    grow_if_full();
    head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
    buf_[head_] = v;
    ++size_;
  }
  T pop_front() {
    assert(size_ > 0);
    const T v = buf_[head_];
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

 private:
  void grow_if_full() {
    if (size_ < buf_.size()) return;
    std::vector<T> next(std::max<std::size_t>(4, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// A set of processor ids, one bit each.
using ProcessorSet = std::vector<std::uint64_t>;

/// Calls f(pid) for every pid in both `a` and `b`, in ascending order.  f
/// may change the membership of the pid it is called with, and of no other.
template <typename F>
void for_each_in_both(const ProcessorSet& a, const ProcessorSet& b, F&& f) {
  for (std::size_t w = 0; w < a.size(); ++w)
    for (std::uint64_t bits = a[w] & b[w]; bits != 0; bits &= bits - 1)
      f(static_cast<ProcessorId>(w * 64 + static_cast<std::size_t>(
                                              __builtin_ctzll(bits))));
}

/// A vertex of a released job, as queued on RQ^N, RQ^L or RQ^S.
struct VertexRef {
  std::int64_t job = -1;
  int vertex = -1;
};

/// A task's ready queues: RQ^L (resource holders) and RQ^N (Sec. III-B),
/// and, under kSpinFifo only, RQ^S: vertices whose current segment is a
/// critical section, waiting for a processor to *request on*.  Under spin
/// locks a request joins the lock's FIFO queue only once its vertex
/// occupies a processor (acquire-on-dispatch): a task cannot reserve a
/// queue slot without burning processor time on it.  Decoupling the two
/// (the pre-fix behaviour) both underestimated spin interference and
/// deadlocked on shared light-task processors -- a waiter could hold a
/// FIFO slot while another vertex spun non-preemptively on the only
/// processor the lock holder could run on.
struct ReadyQueues {
  Ring<VertexRef> rql, rqs, rqn;
  int size = 0;  // entries across the three
};

/// A waiter on a local lock.  `proc` is the processor it spins on
/// (kSpinFifo); DPCP-p waiters suspend and carry -1.
struct Waiter {
  std::int64_t job = -1;
  int vertex = -1;
  ProcessorId proc = -1;
};

/// Run state of one vertex of one job.
struct VertexRun {
  int preds_left = 0;
  const Segment* seg = nullptr;  // current segment, in the run's SegmentPlan
  Time remaining = 0;            // of the current segment
};

struct JobState {
  int task = -1;
  Time arrival = 0;
  Time deadline = 0;
  int vertices_left = 0;
  int runs = 0;  // first VertexRun of this job's block in Simulation::runs
};

struct GlobalRequest {
  int task = -1;
  std::int64_t job = -1;
  int vertex = -1;
  ResourceId resource = -1;
  ProcessorId proc = -1;
  Time remaining = 0;
  bool granted = false;
  // Lemma-1 checker (see dispatch_agent): distinct lower-priority agents
  // that blocked this request so far.  An agent whose latest dispatch
  // token is at most `blocker_floor` has not been counted yet.
  int lower_blockers = 0;
  std::uint64_t blocker_floor = 0;
  // As an agent: the token of its latest dispatch (0 = never dispatched).
  std::uint64_t last_dispatch = 0;
};

struct LocalResource {
  bool locked = false;
  std::int64_t owner_job = -1;
  int owner_vertex = -1;
  Ring<Waiter> waiters;  // FIFO
};

enum class Occupant { kIdle, kVertex, kAgent, kSpinning };

/// A request waiting on its synchronization processor.  Both waiting lists
/// are kept in serving order: higher priority first, then issue order.
struct Waiting {
  int prio = 0;
  int req = -1;
};

bool serves_before(const Waiting& a, const Waiting& b) {
  return a.prio != b.prio ? a.prio > b.prio : a.req < b.req;
}

void insert_in_order(std::vector<Waiting>& list, Waiting w) {
  list.insert(std::upper_bound(list.begin(), list.end(), w, serves_before), w);
}

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
  Time dispatched_at = 0;
  // Ready (granted, not running) agents, in serving order.
  std::vector<Waiting> ready_agents;
  // Suspended (not granted) requests, in serving order.
  std::vector<Waiting> suspended;
  // Ceilings of resources currently locked on this processor, ascending.
  std::vector<int> locked_ceilings;
  // Live (issued, unfinished) requests targeting this processor, ascending.
  std::vector<int> live_requests;
};

struct Simulation {
  const TaskSet& ts;
  const Partition& part;
  const SimConfig& cfg;
  std::vector<TraceEvent>* const trace;  // null: not recorded
  const bool spin;  // SimProtocol::kSpinFifo
  SimResult result;
  Rng rng;

  const SegmentPlan plan;
  std::vector<int> in_degree;  // per plan vertex
  std::vector<int> prio;       // per task: base priority
  EventQueue events;
  std::uint64_t next_token = 1;
  Time now = 0;

  std::vector<Processor> procs;
  ProcessorSet idle;       // occ == kIdle
  ProcessorSet mapped;     // at least one task
  ProcessorSet dedicated;  // exactly one task, and it is not light
  // Processors carrying more than one task, ascending.
  std::vector<ProcessorId> shared_procs;
  // Jobs by sequential id, from the oldest unfinished one (`first_job`)
  // on.  A deque, so the JobState& a handler holds stays valid when
  // release_job() appends.
  std::deque<JobState> jobs;
  std::int64_t first_job = 0;
  std::int64_t live_jobs = 0;
  // Per-vertex run state, one block of vertex_count() entries per live
  // job; a completed job's block goes back to its task's free list.
  std::vector<VertexRun> runs;
  std::vector<std::vector<int>> free_runs;
  std::vector<GlobalRequest> requests;
  std::vector<LocalResource> local_res;  // per resource; locals only
  std::vector<int> ceiling_of;    // per resource: max user base priority
  std::vector<char> global_res;   // per resource
  std::vector<char> global_locked;

  std::vector<ReadyQueues> ready;  // per task
  // Entries across all tasks' ready queues, and across all processors'
  // ready_agents: reschedule() skips the passes these make idle.
  std::int64_t queued = 0;
  std::int64_t waiting_agents = 0;
  std::vector<Time> response_sum;
  // Sec. VI: light tasks execute sequentially (at most one running vertex).
  std::vector<char> is_light;
  std::vector<int> running_vertices;

  Simulation(const TaskSet& t, const Partition& p, const SimConfig& c,
             std::vector<TraceEvent>* tr)
      : ts(t),
        part(p),
        cfg(c),
        trace(tr),
        spin(c.protocol == SimProtocol::kSpinFifo),
        rng(c.seed),
        plan(build_plan(t, c.execution_scale)) {
    const auto n = static_cast<std::size_t>(ts.size());
    prio.resize(n);
    in_degree.reserve(plan.seg_begin.size() - 1);
    for (int i = 0; i < ts.size(); ++i) {
      const DagTask& task = ts.task(i);
      prio[static_cast<std::size_t>(i)] = task.priority();
      for (VertexId v = 0; v < task.vertex_count(); ++v)
        in_degree.push_back(task.graph().in_degree(v));
    }

    const auto m = static_cast<std::size_t>(part.num_processors());
    procs.resize(m);
    for (int i = 0; i < ts.size(); ++i)
      for (ProcessorId pr : part.cluster(i))
        procs[static_cast<std::size_t>(pr)].cluster_tasks.push_back(i);
    for (ProcessorId pid = 0; pid < part.num_processors(); ++pid) {
      Processor& proc = procs[static_cast<std::size_t>(pid)];
      std::sort(proc.cluster_tasks.begin(), proc.cluster_tasks.end(),
                [&](int a, int b) {
                  return prio[static_cast<std::size_t>(a)] >
                         prio[static_cast<std::size_t>(b)];
                });
      if (proc.cluster_tasks.size() > 1) shared_procs.push_back(pid);
    }
    // Sequential ("light", Sec. VI) treatment follows the partition: a
    // task sharing a processor with another task runs one vertex at a
    // time; tasks with dedicated clusters run as parallel DAGs.
    is_light.assign(n, 0);
    for (int i = 0; i < ts.size(); ++i)
      for (ProcessorId pr : part.cluster(i))
        for (int other : procs[static_cast<std::size_t>(pr)].cluster_tasks)
          if (other != i) is_light[static_cast<std::size_t>(i)] = 1;
    idle.assign((m + 63) / 64, 0);
    mapped.assign(idle.size(), 0);
    dedicated.assign(idle.size(), 0);
    for (std::size_t pid = 0; pid < m; ++pid) {
      const std::uint64_t bit = std::uint64_t{1} << (pid % 64);
      const std::vector<int>& on = procs[pid].cluster_tasks;
      idle[pid / 64] |= bit;
      if (!on.empty()) mapped[pid / 64] |= bit;
      if (on.size() == 1 && !is_light[static_cast<std::size_t>(on[0])])
        dedicated[pid / 64] |= bit;
    }
    running_vertices.assign(n, 0);
    ready.resize(n);
    free_runs.resize(n);
    response_sum.assign(n, 0);
    result.task.resize(n);

    const auto nr = static_cast<std::size_t>(ts.num_resources());
    ceiling_of.resize(nr);
    global_res.resize(nr);
    global_locked.assign(nr, 0);
    local_res.resize(nr);
    for (ResourceId q = 0; q < ts.num_resources(); ++q) {
      ceiling_of[static_cast<std::size_t>(q)] = ts.ceiling_priority(q);
      // Under FIFO spin locks every resource executes locally; only the
      // DPCP-p protocol distinguishes global resources.
      global_res[static_cast<std::size_t>(q)] = !spin && ts.is_global(q);
    }
  }

  // ---- tracing ----------------------------------------------------------
  void record(TraceKind kind, int task, std::int64_t job, int vertex,
              int processor, int resource) {
    if (!trace) return;
    if (cfg.max_trace_entries > 0 &&
        static_cast<std::int64_t>(trace->size()) >= cfg.max_trace_entries)
      throw std::runtime_error(
          "simulator trace guard tripped: more than " +
          std::to_string(cfg.max_trace_entries) +
          " trace entries recorded (simulated time " + std::to_string(now) +
          " ns) -- raise SimConfig::max_trace_entries (0 = unlimited) or "
          "narrow the horizon");
    trace->push_back(
        TraceEvent{now, kind, task, job, vertex, processor, resource});
  }

  // ---- event plumbing ---------------------------------------------------
  void push_event(Time t, SimEventKind kind, int subject,
                  std::uint64_t token = 0) {
    events.schedule(t, kind, subject, token);
  }

  // ---- run state --------------------------------------------------------
  JobState& job_of(std::int64_t id) {
    return jobs[static_cast<std::size_t>(id - first_job)];
  }
  VertexRun& run_of(const JobState& job, int vertex) {
    return runs[static_cast<std::size_t>(job.runs + vertex)];
  }
  int priority_of(int task) const {
    return prio[static_cast<std::size_t>(task)];
  }

  void set_occupant(ProcessorId pid, Occupant occ) {
    procs[static_cast<std::size_t>(pid)].occ = occ;
    const std::uint64_t bit = std::uint64_t{1} << (pid % 64);
    if (occ == Occupant::kIdle)
      idle[static_cast<std::size_t>(pid / 64)] |= bit;
    else
      idle[static_cast<std::size_t>(pid / 64)] &= ~bit;
  }

  ReadyQueues& ready_of(int task) {
    return ready[static_cast<std::size_t>(task)];
  }
  // `q` is one of rq's three queues.
  void enqueue(ReadyQueues& rq, Ring<VertexRef>& q, std::int64_t job,
               int vertex) {
    q.push_back(VertexRef{job, vertex});
    ++rq.size;
    ++queued;
  }
  void requeue_front(ReadyQueues& rq, Ring<VertexRef>& q, std::int64_t job,
                     int vertex) {
    q.push_front(VertexRef{job, vertex});
    ++rq.size;
    ++queued;
  }
  VertexRef dequeue(ReadyQueues& rq, Ring<VertexRef>& q) {
    --rq.size;
    --queued;
    return q.pop_front();
  }

  // ---- job lifecycle ----------------------------------------------------
  void release_job(int task_idx) {
    const DagTask& t = ts.task(task_idx);
    const auto id = first_job + static_cast<std::int64_t>(jobs.size());
    const int n = t.vertex_count();
    auto& spare = free_runs[static_cast<std::size_t>(task_idx)];
    int block;
    if (spare.empty()) {
      block = static_cast<int>(runs.size());
      runs.resize(runs.size() + static_cast<std::size_t>(n));
    } else {
      block = spare.back();
      spare.pop_back();
    }
    const int g = plan.vertex_index(task_idx, 0);
    for (int v = 0; v < n; ++v)
      runs[static_cast<std::size_t>(block + v)] =
          VertexRun{in_degree[static_cast<std::size_t>(g + v)],
                    plan.begin(task_idx, v), 0};
    jobs.push_back(JobState{task_idx, now, now + t.deadline(), n, block});
    ++live_jobs;
    ++result.task[static_cast<std::size_t>(task_idx)].jobs_released;
    record(TraceKind::kJobRelease, task_idx, id, -1, -1, -1);

    for (VertexId v = 0; v < n; ++v)
      if (runs[static_cast<std::size_t>(block + v)].preds_left == 0)
        route_segment(id, v);

    // Next arrival.
    Time next = now + t.period();
    if (cfg.release_jitter > 0)
      next += rng.uniform_int(0, cfg.release_jitter);
    if (next <= cfg.horizon) push_event(next, SimEventKind::kJobRelease, task_idx);
  }

  /// Routes the vertex's current segment per the locking rules: a
  /// critical section to route_critical(), anything else onto RQ^N.
  void route_segment(std::int64_t job_id, int vertex) {
    const JobState& job = job_of(job_id);
    VertexRun& run = run_of(job, vertex);
    const Segment& seg = *run.seg;
    run.remaining = seg.length;
    if (seg.critical) {
      route_critical(job_id, vertex, seg.resource);
    } else {
      ReadyQueues& rq = ready_of(job.task);
      enqueue(rq, rq.rqn, job_id, vertex);
    }
  }

  /// Routes a vertex whose current segment is a critical section.  Under
  /// DPCP-p the request is issued immediately (suspension-based waiting:
  /// no processor is consumed while blocked).  Under FIFO spin locks the
  /// vertex queues for a processor first and requests when dispatched.
  void route_critical(std::int64_t job_id, int vertex, ResourceId q) {
    if (spin) {
      ReadyQueues& rq = ready_of(job_of(job_id).task);
      enqueue(rq, rq.rqs, job_id, vertex);
    } else {
      issue_request(job_id, vertex, q);
    }
  }

  void vertex_complete(std::int64_t job_id, int vertex) {
    JobState& job = job_of(job_id);
    record(TraceKind::kVertexComplete, job.task, job_id, vertex, -1, -1);
    --job.vertices_left;
    for (VertexId w : ts.task(job.task).graph().successors(vertex)) {
      if (--run_of(job, w).preds_left == 0) route_segment(job_id, w);
    }
    if (job.vertices_left == 0) {
      auto& st = result.task[static_cast<std::size_t>(job.task)];
      const Time resp = now - job.arrival;
      ++st.jobs_completed;
      st.max_response = std::max(st.max_response, resp);
      response_sum[static_cast<std::size_t>(job.task)] += resp;
      if (now > job.deadline) ++st.deadline_misses;
      record(TraceKind::kJobComplete, job.task, job_id, -1, -1, -1);
      free_runs[static_cast<std::size_t>(job.task)].push_back(job.runs);
      --live_jobs;
      // Drop finished jobs from the front (this one included, so `job`
      // dangles from here on), keeping the store as long as the id span
      // of unfinished jobs.
      while (!jobs.empty() && jobs.front().vertices_left == 0) {
        jobs.pop_front();
        ++first_job;
      }
    }
  }

  /// Advance past the just-finished segment and route the next one (Rule
  /// 4: after a request finishes, non-critical work re-enters RQ^N).
  void advance_vertex(std::int64_t job_id, int vertex) {
    const JobState& job = job_of(job_id);
    if (++run_of(job, vertex).seg == plan.end(job.task, vertex)) {
      vertex_complete(job_id, vertex);
      return;
    }
    route_segment(job_id, vertex);
  }

  // ---- locking rules ------------------------------------------------------
  void issue_request(std::int64_t job_id, int vertex, ResourceId q) {
    const JobState& job = job_of(job_id);
    if (!global_res[static_cast<std::size_t>(q)]) {
      // DPCP-p only: under kSpinFifo local requests are issued at dispatch
      // time (dispatch_request), never from here.
      assert(!spin);
      LocalResource& lr = local_res[static_cast<std::size_t>(q)];
      if (!lr.locked) {
        // Rule 2: lock and become ready on RQ^L.
        lr.locked = true;
        lr.owner_job = job_id;
        lr.owner_vertex = vertex;
        record(TraceKind::kLocalLock, job.task, job_id, vertex, -1, q);
        ReadyQueues& rq = ready_of(job.task);
        enqueue(rq, rq.rql, job_id, vertex);
      } else {
        // Contended: the vertex suspends until FIFO wake-up (Rule 1).
        lr.waiters.push_back(Waiter{job_id, vertex, -1});
      }
      return;
    }

    // Rule 3: global resource -- the vertex suspends; the request goes to
    // the resource's synchronization processor.
    const ProcessorId target = part.processor_of_resource(q);
    assert(target != Partition::kUnassigned &&
           "global resource not placed on any processor");
    const int id = static_cast<int>(requests.size());
    GlobalRequest& req = requests.emplace_back();
    req.task = job.task;
    req.job = job_id;
    req.vertex = vertex;
    req.resource = q;
    req.proc = target;
    req.remaining = run_of(job, vertex).seg->length;
    ++result.global_requests_issued;
    Processor& p = procs[static_cast<std::size_t>(target)];
    p.live_requests.push_back(id);  // ids only grow: stays ascending
    record(TraceKind::kRequestIssue, job.task, job_id, vertex, target, q);

    // Lemma-1 bookkeeping: every agent dispatched so far predates this
    // request, except that a lower-priority agent already executing here
    // blocks it from its arrival.
    req.blocker_floor = next_token - 1;
    if (p.occ == Occupant::kAgent &&
        priority_of(requests[static_cast<std::size_t>(p.request)].task) <
            priority_of(req.task)) {
      req.lower_blockers = 1;
      req.blocker_floor = p.token - 1;
    }

    try_grant_on_arrival(id);
  }

  static int processor_ceiling(const Processor& p) {
    return p.locked_ceilings.empty() ? INT32_MIN : p.locked_ceilings.back();
  }

  void try_grant_on_arrival(int req_id) {
    const GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    Processor& p = procs[static_cast<std::size_t>(req.proc)];
    const int pr = priority_of(req.task);
    const bool free = !global_locked[static_cast<std::size_t>(req.resource)];
    if (free && pr > processor_ceiling(p)) {
      grant(req_id);
    } else {
      insert_in_order(p.suspended, Waiting{pr, req_id});
    }
  }

  void grant(int req_id) {
    GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    Processor& p = procs[static_cast<std::size_t>(req.proc)];
    assert(!req.granted);
    if (global_locked[static_cast<std::size_t>(req.resource)])
      ++result.mutual_exclusion_violations;
    if (priority_of(req.task) <= processor_ceiling(p))
      ++result.ceiling_violations;
    global_locked[static_cast<std::size_t>(req.resource)] = 1;
    const int ceiling = ceiling_of[static_cast<std::size_t>(req.resource)];
    p.locked_ceilings.insert(std::upper_bound(p.locked_ceilings.begin(),
                                              p.locked_ceilings.end(), ceiling),
                             ceiling);
    req.granted = true;
    insert_in_order(p.ready_agents, Waiting{priority_of(req.task), req_id});
    ++waiting_agents;
    record(TraceKind::kRequestGrant, req.task, req.job, req.vertex, req.proc,
           req.resource);
  }

  void recheck_grants(ProcessorId proc) {
    Processor& p = procs[static_cast<std::size_t>(proc)];
    while (!p.suspended.empty()) {
      // Highest-priority suspended request whose resource is free.
      const auto pick = std::find_if(
          p.suspended.begin(), p.suspended.end(), [&](const Waiting& w) {
            const GlobalRequest& r = requests[static_cast<std::size_t>(w.req)];
            return !global_locked[static_cast<std::size_t>(r.resource)];
          });
      if (pick == p.suspended.end()) return;
      if (pick->prio <= processor_ceiling(p)) return;
      const int req_id = pick->req;
      p.suspended.erase(pick);
      grant(req_id);
    }
  }

  void finish_request(int req_id) {
    const GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    Processor& p = procs[static_cast<std::size_t>(req.proc)];
    ++result.global_requests_completed;
    global_locked[static_cast<std::size_t>(req.resource)] = 0;
    const auto ceiling = std::lower_bound(
        p.locked_ceilings.begin(), p.locked_ceilings.end(),
        ceiling_of[static_cast<std::size_t>(req.resource)]);
    assert(ceiling != p.locked_ceilings.end());
    p.locked_ceilings.erase(ceiling);
    p.live_requests.erase(std::lower_bound(p.live_requests.begin(),
                                           p.live_requests.end(), req_id));
    record(TraceKind::kAgentComplete, req.task, req.job, req.vertex, req.proc,
           req.resource);

    result.max_lower_priority_blockers =
        std::max(result.max_lower_priority_blockers, req.lower_blockers);
    if (req.lower_blockers > 1) ++result.lemma1_violations;

    const std::int64_t job_id = req.job;
    const int vertex = req.vertex;
    recheck_grants(req.proc);
    advance_vertex(job_id, vertex);  // Rule 4
  }

  void release_local(ResourceId q, std::int64_t job_id, int vertex) {
    LocalResource& lr = local_res[static_cast<std::size_t>(q)];
    assert(lr.locked && lr.owner_job == job_id && lr.owner_vertex == vertex);
    record(TraceKind::kLocalUnlock, job_of(job_id).task, job_id, vertex, -1,
           q);
    if (lr.waiters.empty()) {
      lr.locked = false;
      lr.owner_job = -1;
      lr.owner_vertex = -1;
      return;
    }
    const Waiter w = lr.waiters.pop_front();
    lr.owner_job = w.job;
    lr.owner_vertex = w.vertex;
    const int wtask = job_of(w.job).task;
    record(TraceKind::kLocalLock, wtask, w.job, w.vertex, -1, q);
    if (spin) {
      // FIFO handoff.  Every waiter joined the queue when it started
      // spinning (acquire-on-dispatch), so the new owner is on a
      // processor right now and starts its critical section in place --
      // lock holders always make progress.
      assert(w.proc >= 0 && "spin waiters always occupy a processor");
      Processor& p = procs[static_cast<std::size_t>(w.proc)];
      assert(p.occ == Occupant::kSpinning && p.job == w.job &&
             p.vertex == w.vertex);
      set_occupant(w.proc, Occupant::kIdle);
      p.token = 0;
      --running_vertices[static_cast<std::size_t>(wtask)];
      dispatch_vertex(w.proc, w.job, w.vertex);
    } else {
      ReadyQueues& rq = ready_of(wtask);
      enqueue(rq, rq.rql, w.job, w.vertex);
    }
  }

  /// kSpinFifo: a vertex whose critical segment reached the front of RQ^S
  /// got a processor -- issue the request *now*.  A free lock is taken and
  /// the critical section runs immediately; a held lock enqueues the
  /// request FIFO and the vertex busy-waits on this processor until the
  /// release hands over in place.
  void dispatch_request(ProcessorId pid, std::int64_t job_id, int vertex) {
    const JobState& job = job_of(job_id);
    const Segment& seg = *run_of(job, vertex).seg;
    assert(seg.critical);
    LocalResource& lr = local_res[static_cast<std::size_t>(seg.resource)];
    if (!lr.locked) {
      lr.locked = true;
      lr.owner_job = job_id;
      lr.owner_vertex = vertex;
      record(TraceKind::kLocalLock, job.task, job_id, vertex, pid,
             seg.resource);
      dispatch_vertex(pid, job_id, vertex);
    } else {
      lr.waiters.push_back(Waiter{job_id, vertex, pid});
      dispatch_spin(pid, job_id, vertex);
    }
  }

  /// kSpinFifo: occupy a processor with a busy-waiting vertex.
  void dispatch_spin(ProcessorId pid, std::int64_t job_id, int vertex) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    const JobState& job = job_of(job_id);
    ++running_vertices[static_cast<std::size_t>(job.task)];
    set_occupant(pid, Occupant::kSpinning);
    p.job = job_id;
    p.vertex = vertex;
    p.token = 0;  // no completion event: the lock release wakes it
    record(TraceKind::kVertexDispatch, job.task, job_id, vertex, pid,
           run_of(job, vertex).seg->resource);
  }

  // ---- dispatching ---------------------------------------------------------
  void save_preempted(ProcessorId pid) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    if (p.occ == Occupant::kIdle) return;
    ++result.preemptions;
    if (p.occ == Occupant::kVertex) {
      const JobState& job = job_of(p.job);
      VertexRun& run = run_of(job, p.vertex);
      // Remaining time of the in-flight segment (set at dispatch).
      run.remaining -= now - p.dispatched_at;
      assert(run.remaining >= 0);
      const Segment& seg = *run.seg;
      record(TraceKind::kVertexPreempt, job.task, p.job, p.vertex, pid,
             seg.critical ? seg.resource : -1);
      --running_vertices[static_cast<std::size_t>(job.task)];
      // Preempted vertices resume first: front of the matching ready queue.
      ReadyQueues& rq = ready_of(job.task);
      requeue_front(rq, seg.critical ? rq.rql : rq.rqn, p.job, p.vertex);
    } else {
      assert(p.occ == Occupant::kAgent);
      GlobalRequest& req = requests[static_cast<std::size_t>(p.request)];
      req.remaining -= now - p.dispatched_at;
      assert(req.remaining >= 0);
      record(TraceKind::kAgentPreempt, req.task, req.job, req.vertex, pid,
             req.resource);
      insert_in_order(p.ready_agents,
                      Waiting{priority_of(req.task), p.request});
      ++waiting_agents;
    }
    set_occupant(pid, Occupant::kIdle);
    p.token = 0;
  }

  void dispatch_agent(ProcessorId pid, int req_id) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    GlobalRequest& req = requests[static_cast<std::size_t>(req_id)];
    set_occupant(pid, Occupant::kAgent);
    p.request = req_id;
    p.token = next_token++;
    p.dispatched_at = now;
    push_event(now + req.remaining, SimEventKind::kSegmentDone, pid, p.token);
    record(TraceKind::kAgentDispatch, req.task, req.job, req.vertex, pid,
           req.resource);
    // Lemma-1 bookkeeping: this agent blocks every pending higher-priority
    // request on this processor while it runs.  It counts once per
    // request: it was counted already iff its previous dispatch came after
    // the request's blocker_floor (every live request on this processor
    // has seen every later dispatch here).
    const int pr = priority_of(req.task);
    for (int other_id : p.live_requests) {
      if (other_id == req_id) continue;
      GlobalRequest& other = requests[static_cast<std::size_t>(other_id)];
      if (priority_of(other.task) > pr &&
          req.last_dispatch <= other.blocker_floor)
        ++other.lower_blockers;
    }
    req.last_dispatch = p.token;
  }

  void dispatch_vertex(ProcessorId pid, std::int64_t job_id, int vertex) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    const JobState& job = job_of(job_id);
    const VertexRun& run = run_of(job, vertex);
    ++running_vertices[static_cast<std::size_t>(job.task)];
    set_occupant(pid, Occupant::kVertex);
    p.job = job_id;
    p.vertex = vertex;
    p.token = next_token++;
    p.dispatched_at = now;
    push_event(now + run.remaining, SimEventKind::kSegmentDone, pid, p.token);
    const Segment& seg = *run.seg;
    record(TraceKind::kVertexDispatch, job.task, job_id, vertex, pid,
           seg.critical ? seg.resource : -1);
  }

  /// Each pass runs only when it can act: pass 1 needs a granted agent
  /// waiting, passes 2 and 3 and the work-conservation checker a queued
  /// vertex.  A pass skips the processors it cannot act on (pass 2 visits
  /// idle ones carrying a task, pass 3 shared ones, the checker idle
  /// dedicated ones) and visits the rest in pid order, which fixes which
  /// processor gets which vertex and the order of event seq numbers.
  void reschedule() {
    // Pass 1: agents (effective priority above every base priority).
    const ProcessorId m = part.num_processors();
    for (ProcessorId pid = 0; pid < m && waiting_agents > 0; ++pid) {
      Processor& p = procs[static_cast<std::size_t>(pid)];
      if (p.ready_agents.empty()) continue;
      const Waiting top = p.ready_agents.front();
      if (p.occ == Occupant::kAgent &&
          priority_of(requests[static_cast<std::size_t>(p.request)].task) >=
              top.prio)
        continue;
      // A preempted agent re-enters ready_agents behind `top`.
      save_preempted(pid);
      p.ready_agents.erase(p.ready_agents.begin());
      --waiting_agents;
      dispatch_agent(pid, top.req);
    }
    // Pass 2: vertices onto idle cluster processors (RQ^L before RQ^N).
    // Shared processors pick the highest-priority mapped task with ready
    // work; light tasks run at most one vertex at a time (Sec. VI).
    if (queued == 0) return;
    for_each_in_both(idle, mapped, [&](ProcessorId pid) {
      if (queued == 0) return;
      const int t = pick_ready_task(procs[static_cast<std::size_t>(pid)],
                                    /*min_priority=*/INT32_MIN);
      if (t >= 0) dispatch_front(pid, t);
    });
    if (queued == 0) return;
    // Pass 3 (shared processors only): P-FP preemption -- a ready vertex of
    // a higher-priority co-located task preempts a running lower-priority
    // vertex.  Under FIFO spin locks a critical section is non-preemptable
    // (as is spinning, which never has occ == kVertex): preempting a lock
    // holder on a shared processor lets a higher-priority co-located
    // requester spin on the only processor the holder can run on --
    // deadlock.  MSRP-style protocols forbid exactly this; the SPIN-SON
    // analysis charges the symmetric cost as arrival blocking.
    for (ProcessorId pid : shared_procs) {
      Processor& p = procs[static_cast<std::size_t>(pid)];
      if (p.occ != Occupant::kVertex) continue;
      const JobState& running = job_of(p.job);
      if (spin && run_of(running, p.vertex).seg->critical) continue;
      const int t = pick_ready_task(p, priority_of(running.task));
      if (t >= 0) {
        save_preempted(pid);
        dispatch_front(pid, t);
      }
    }
    // Checker: work-conservation on dedicated (federated) clusters -- no
    // idle processor while the owning task has ready vertices.  Shared
    // light-task processors are priority-scheduled, not work-conserving
    // per task, so they are excluded.
    for_each_in_both(idle, dedicated, [&](ProcessorId pid) {
      const Processor& p = procs[static_cast<std::size_t>(pid)];
      if (ready_of(p.cluster_tasks[0]).size > 0)
        ++result.work_conserving_violations;
    });
  }

  /// Highest-priority task mapped to `p`, with priority above
  /// `min_priority`, that has dispatchable ready work.
  int pick_ready_task(const Processor& p, int min_priority) const {
    for (int t : p.cluster_tasks) {  // sorted by decreasing priority
      if (priority_of(t) <= min_priority) break;
      if (is_light[static_cast<std::size_t>(t)] &&
          running_vertices[static_cast<std::size_t>(t)] >= 1)
        continue;  // sequential: one vertex at a time
      if (ready[static_cast<std::size_t>(t)].size > 0) return t;
    }
    return -1;
  }

  /// Dispatches the front of task t's ready queues onto pid: resource
  /// holders first (RQ^L), then spin-waiters (kSpinFifo), then RQ^N.
  void dispatch_front(ProcessorId pid, int t) {
    ReadyQueues& rq = ready_of(t);
    if (!rq.rql.empty()) {
      const VertexRef r = dequeue(rq, rq.rql);
      dispatch_vertex(pid, r.job, r.vertex);
    } else if (!rq.rqs.empty()) {
      const VertexRef r = dequeue(rq, rq.rqs);
      dispatch_request(pid, r.job, r.vertex);
    } else {
      const VertexRef r = dequeue(rq, rq.rqn);
      dispatch_vertex(pid, r.job, r.vertex);
    }
  }

  void handle_segment_done(ProcessorId pid, std::uint64_t token) {
    Processor& p = procs[static_cast<std::size_t>(pid)];
    if (p.occ == Occupant::kIdle || p.token != token) return;  // stale
    if (p.occ == Occupant::kVertex) {
      const std::int64_t job_id = p.job;
      const int vertex = p.vertex;
      set_occupant(pid, Occupant::kIdle);
      p.token = 0;
      const JobState& job = job_of(job_id);
      --running_vertices[static_cast<std::size_t>(job.task)];
      const Segment& seg = *run_of(job, vertex).seg;
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
      set_occupant(pid, Occupant::kIdle);
      p.token = 0;
      finish_request(req_id);
    }
  }

  SimResult run() {
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
    result.drained = !truncated && live_jobs == 0;
    finalize();
    return std::move(result);
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

/// The first violation of simulate()'s precondition, if any.
std::optional<std::string> unsimulable(const TaskSet& ts, const Partition& part,
                                       SimProtocol protocol) {
  if (part.num_tasks() != ts.size())
    return "partition has " + std::to_string(part.num_tasks()) +
           " task clusters for a task set of " + std::to_string(ts.size()) +
           " tasks";
  if (part.num_resources() != ts.num_resources())
    return "partition has " + std::to_string(part.num_resources()) +
           " resources for a task set of " +
           std::to_string(ts.num_resources()) + " resources";
  const int m = part.num_processors();
  for (int i = 0; i < ts.size(); ++i) {
    if (part.cluster(i).empty())
      return "task " + std::to_string(i) + " has an empty cluster";
    for (ProcessorId p : part.cluster(i))
      if (p < 0 || p >= m)
        return "task " + std::to_string(i) + " is mapped to processor " +
               std::to_string(p) + " outside 0.." + std::to_string(m - 1);
  }
  if (protocol == SimProtocol::kDpcpP) {
    for (ResourceId q = 0; q < ts.num_resources(); ++q) {
      if (!ts.is_global(q)) continue;
      const ProcessorId p = part.processor_of_resource(q);
      if (p == Partition::kUnassigned)
        return "global resource " + std::to_string(q) +
               " is not placed on any processor";
      if (p < 0 || p >= m)
        return "global resource " + std::to_string(q) +
               " is placed on processor " + std::to_string(p) + " outside 0.." +
               std::to_string(m - 1);
    }
  }
  return std::nullopt;
}

}  // namespace

SimResult simulate(const TaskSet& ts, const Partition& part,
                   const SimConfig& config, std::vector<TraceEvent>* trace) {
  if (const auto error = unsimulable(ts, part, config.protocol))
    throw std::invalid_argument("cannot simulate this partition: " + *error);
  return Simulation(ts, part, config, trace).run();
}

}  // namespace dpcp
