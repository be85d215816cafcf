#include "analysis/dpcp_p.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "analysis/rta_common.hpp"
#include "model/paths.hpp"
#include "util/fixed_point.hpp"

namespace dpcp {
namespace {

constexpr Time kMissedDeadline = -1;  // encoded nullopt in the memos

/// Open-addressed memo from a word string to one encoded Time.  Keys live
/// back to back in one arena; each slot holds a key's hash, its arena
/// range and the value, and a hash match is confirmed by comparing the
/// whole key, so a hit is exact.  clear() bumps an epoch (slots whose tag
/// is stale read as empty) and empties the arena; both keep their
/// capacity, so the table stays hot across clears.  The oracle keeps two:
/// the Lemma-3 unit per (q, intra-ahead) of one query, and the bound per
/// query state (see DpcpPPrepared::result_key()) of one task-set epoch.
class Memo {
 public:
  Memo() { rebuild(kInitialSlots); }

  void clear() {
    if (++epoch_ == 0) {
      // u32 epoch wrapped: stale tags could alias; hard-reset once per 4G
      // clears.
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    arena_.clear();
    live_ = 0;
  }

  /// Key words stored since the last clear().
  std::size_t words() const { return arena_.size(); }

  /// The encoded value stored for the `len` words at `key` (hashing to
  /// `h`), or nullptr.
  const Time* find(const Time* key, std::size_t len, std::uint64_t h) const {
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.hash == h && s.len == len &&
          std::equal(key, key + len, arena_.data() + s.off))
        return &s.value;
    }
  }

  void insert(const Time* key, std::size_t len, std::uint64_t h,
              Time encoded) {
    if ((live_ + 1) * 10 >= slots_.size() * 7) grow();
    std::size_t i = h & mask_;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
    slots_[i] = {h, arena_.size(), static_cast<std::uint32_t>(len), epoch_,
                 encoded};
    arena_.insert(arena_.end(), key, key + len);
    ++live_;
  }

  /// Two multiply-xor lanes over alternate words, then a finalizer that
  /// folds the high bits of both into the low (slot index) bits.
  static std::uint64_t hash(const Time* key, std::size_t len) {
    constexpr std::uint64_t kA = 0x9E3779B97F4A7C15ull;
    constexpr std::uint64_t kB = 0xC2B2AE3D27D4EB4Full;
    std::uint64_t a = len, b = kA;
    std::size_t k = 0;
    for (; k + 2 <= len; k += 2) {
      a = (a ^ static_cast<std::uint64_t>(key[k])) * kA;
      b = (b ^ static_cast<std::uint64_t>(key[k + 1])) * kB;
    }
    if (k < len) a = (a ^ static_cast<std::uint64_t>(key[k])) * kA;
    std::uint64_t h = a ^ ((b << 31) | (b >> 33));
    h ^= h >> 32;
    h *= kB;
    h ^= h >> 29;
    return h;
  }

 private:
  static constexpr std::size_t kInitialSlots = 256;  // power of two

  struct Slot {
    std::uint64_t hash;
    std::size_t off;  // key = arena_[off, off + len)
    std::uint32_t len;
    std::uint32_t epoch;
    Time value;
  };

  void rebuild(std::size_t slots) {
    slots_.assign(slots, Slot{0, 0, 0, 0u, 0});
    mask_ = slots - 1;
    epoch_ = 1;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_epoch = epoch_;
    rebuild(old.size() * 2);
    for (Slot& s : old) {
      if (s.epoch != old_epoch) continue;
      std::size_t i = s.hash & mask_;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
      s.epoch = epoch_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Time> arena_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::uint32_t epoch_ = 1;
};

/// Partition-dependent tables of one task (the Lemma 2-6 inputs), valid
/// for the currently bound partition while !dirty.  All contender lists
/// are flat SoA slabs with cached periods (see DemandSoA); the
/// per-processor lists are ranges into shared arrays rather than
/// per-processor heap vectors.  A local<->global flip of one of tau_i's
/// resources changes a user set, whose epoch partition_inputs()
/// tokenizes, so the flip invalidates these tables.
struct TaskTables : ContentionTables {
  bool dirty = true;
  int mi = 1;
  bool shares_processor = false;

  /// Per-task agent demand the cluster globals attract (Lemma 6).
  DemandSoA agent;
  /// P-FP preemption by co-located higher-priority tasks (Sec. VI).
  DemandSoA preempt;
};

/// Per-processor Lemma-3 eps term of one path class, rebuilt per
/// path_bound() call in a scratch vector owned by the prepared object
/// (reused across queries).  `proc` indexes tables.procs.
struct ProcTermScratch {
  Time eps = 0;
  std::uint32_t proc = 0;
};

/// Window terms of the outer recurrence at the last window r they were
/// evaluated for.  No window is negative, so r = -1 marks an empty slot.
struct ZetaSlot {
  Time r = -1;
  Time zeta = 0;
};
struct OwnWindowSlot {
  Time r = -1;
  Time agent = 0;    // agent demand on tau_i's cluster (Lemma 6)
  Time preempt = 0;  // P-FP preemption by co-hosted tasks (Sec. VI)
};

/// Scratch a wcrt() query reuses, owned by the prepared object: the
/// current class's processor terms, and per contention processor zeta_k
/// at the last window asked for.  Window terms depend on r alone within
/// a query (tables and hint are fixed), so a skip test or Kleene step at
/// the previous r reads them back.
struct QueryScratch {
  std::vector<ProcTermScratch> proc_terms;
  std::vector<ZetaSlot> zeta;  // per tables.procs entry
};

/// One wcrt() query: evaluates Theorem 1 path bounds against cached tables
/// and a fixed hint vector.  What does not depend on the path class is
/// computed once per query: C'_i, the Lemma-3 unit per memo key, and the
/// zeta / agent / preemption demand per distinct window.  Memo probes are
/// counted locally and added to the session's CacheStats once, when the
/// query ends.
class QueryContext {
 public:
  QueryContext(const TaskSet& ts, int i, const TaskTables& tables,
               const std::vector<Time>& hint, Memo& memo,
               CacheStats& stats, QueryScratch& scratch)
      : ti_(ts.task(i)),
        tables_(tables),
        hint_(hint),
        deadline_(ts.task(i).deadline()),
        noncrit_wcet_(ts.task(i).noncrit_wcet()),
        memo_(memo),
        stats_(stats),
        scratch_(scratch) {
    memo_.clear();
    scratch_.zeta.assign(tables_.procs.size(), ZetaSlot{});
  }
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;
  ~QueryContext() {
    stats_.memo_hits += memo_hits_;
    stats_.memo_misses += memo_misses_;
  }

  /// Lemma 3's unit for one request from tau_i to q (critical section
  /// `own_cs`): beta plus the higher-priority demand on q's processor over
  /// the request's Lemma-2 response time W, where `intra_ahead` = sum over
  /// globals co-hosted with q of the *off-path* request demand
  /// (N_{i,u} - N^lambda_{i,u}) L_{i,u}.  nullopt when W misses the
  /// deadline.
  std::optional<Time> request_unit(const TaskTables::Proc& pc, ResourceId q,
                                   Time own_cs, Time intra_ahead) {
    const Time key[2] = {q, intra_ahead};
    const std::uint64_t h = Memo::hash(key, 2);
    if (const Time* v = memo_.find(key, 2, h)) {
      ++memo_hits_;
      if (*v == kMissedDeadline) return std::nullopt;
      return *v;
    }
    ++memo_misses_;
    const std::size_t hn = pc.hend - pc.hbeg;
    auto hp_demand = [&](Time w) {
      return window_demand(tables_.hp.task.data() + pc.hbeg,
                           tables_.hp.demand.data() + pc.hbeg,
                           tables_.hp.period.data() + pc.hbeg, hn, hint_, w);
    };
    auto f = [&](Time w) {
      return own_cs + intra_ahead + pc.beta + hp_demand(w);
    };
    const std::optional<Time> w = solve_fixed_point(f, f(0), deadline_).value;
    const Time unit = w ? pc.beta + hp_demand(*w) : kMissedDeadline;
    memo_.insert(key, 2, h, unit);
    if (!w) return std::nullopt;
    return unit;
  }

  /// Theorem 1 for one path class.  `req[k]` = on-path request count
  /// N^lambda of tau_i's k-th used resource (a class's request row); for
  /// the EN envelope pass envelope=true and req=nullptr (the per-term
  /// maximisation fixes every count).  `worst` is the largest bound of the
  /// classes already visited (0 before the first); a class it already
  /// bounds returns `worst` without iterating.
  std::optional<Time> path_bound(Time path_len, const int* req, bool envelope,
                                 Time worst) {
    const auto on_path = [&](const TaskTables::Request& r) {
      return envelope ? 0 : req[r.slot];
    };
    // ---- per-processor epsilon (Lemma 3) and global intra blocking b^G
    // (Lemma 4) -- constants w.r.t. the outer recurrence.  A processor
    // where tau_i requests nothing adds nothing: its off-path demand is 0,
    // sigma is false and epsilon is 0.
    std::vector<ProcTermScratch>& proc_terms = scratch_.proc_terms;
    proc_terms.clear();
    Time b_global = 0;
    for (std::uint32_t k = 0; k < tables_.procs.size(); ++k) {
      const TaskTables::Proc& pc = tables_.procs[k];
      if (pc.rbeg == pc.rend) continue;
      const TaskTables::Request* rb = tables_.requests.data() + pc.rbeg;
      const TaskTables::Request* re = tables_.requests.data() + pc.rend;
      // Off-path demand of tau_i on this processor's globals, and
      // sigma_{i,k}: does the path request a global on this processor?
      Time off_path = 0;
      bool sigma = false;
      for (const TaskTables::Request* r = rb; r != re; ++r) {
        const int on = on_path(*r);
        off_path += static_cast<Time>(r->max_requests - on) * r->cs_length;
        sigma = sigma || on > 0;
      }
      if (envelope) sigma = pc.own_demand > 0;

      ProcTermScratch term;
      term.proc = k;
      for (const TaskTables::Request* r = rb; r != re; ++r) {
        const int mult = envelope ? r->max_requests : req[r->slot];
        if (mult == 0) continue;
        const auto unit = request_unit(pc, r->q, r->cs_length, off_path);
        if (!unit) return std::nullopt;  // a single request misses the deadline
        term.eps += static_cast<Time>(mult) * *unit;
      }
      if (sigma) b_global += off_path;
      // min(0, zeta) = 0 for non-negative hints (every caller passes D_j
      // or a computed bound), so a term with no epsilon adds nothing.
      if (term.eps > 0) proc_terms.push_back(term);
    }

    // ---- local intra-task blocking b^L (Lemma 4).
    Time b_local = 0;
    for (const TaskTables::Request& r : tables_.locals) {
      if (envelope) {
        // max over x in [0, N] of min(1,x) (N-x) L  ->  x = 1.
        b_local += static_cast<Time>(r.max_requests - 1) * r.cs_length;
      } else if (req[r.slot] > 0) {
        b_local += static_cast<Time>(r.max_requests - req[r.slot]) *
                   r.cs_length;
      }
    }

    // ---- intra-task interference (Lemma 5).
    Time i_intra = 0;
    if (envelope) {
      // sum_{v not on lambda} C' <= C' - max(0, L* - sum_q N_q L_q); see
      // DESIGN.md for the monotonicity argument that makes this sound for
      // every complete path.
      i_intra = noncrit_wcet_ - std::max<Time>(0, path_len - ti_.cs_demand());
    } else {
      Time cs_on_path = 0;
      for (std::size_t k = 0; k < tables_.slot_cs.size(); ++k)
        cs_on_path += static_cast<Time>(req[k]) * tables_.slot_cs[k];
      i_intra = noncrit_wcet_ - (path_len - cs_on_path);
    }
    for (const TaskTables::Request& r : tables_.locals)
      i_intra += static_cast<Time>(r.max_requests - on_path(r)) * r.cs_length;
    assert(i_intra >= 0);

    // ---- agent interference constants (Lemma 6, breve term).
    Time ia_const = 0;
    for (const TaskTables::Request& r : tables_.cluster_requests)
      ia_const += static_cast<Time>(r.max_requests - on_path(r)) * r.cs_length;

    // ---- outer recurrence (Theorem 1).
    auto f = [&](Time r) {
      Time blocking = 0;
      for (const auto& term : proc_terms)
        blocking += std::min(term.eps, zeta(term.proc, r));
      if (own_.r != r) {
        own_ = {r, window_demand(tables_.agent, hint_, r),
                window_demand(tables_.preempt, hint_, r)};
      }
      return path_len + blocking + b_local + b_global +
             div_ceil(i_intra + ia_const + own_.agent, tables_.mi) +
             own_.preempt;
    };
    // Skip a class the running maximum already bounds: f is monotone and
    // Kleene iteration starts at path_len <= worst, so every iterate stays
    // at or below f(worst) <= worst and this class cannot raise the max.
    // The request_unit() probes above still ran, so memo counts do not
    // depend on the skip.  One verdict differs: a class whose iteration
    // would have hit solve_fixed_point()'s iteration cap is bounded by
    // `worst` here instead of failing.
    if (path_len <= worst && f(worst) <= worst) return worst;
    return solve_fixed_point(f, path_len, deadline_).value;
  }

 private:
  /// zeta_k(r): demand of every other user of processor k's globals over
  /// a window r (Lemma 3's min(eps, zeta) cap).
  Time zeta(std::uint32_t k, Time r) {
    ZetaSlot& slot = scratch_.zeta[k];
    if (slot.r != r) {
      const TaskTables::Proc& pc = tables_.procs[k];
      slot = {r, window_demand(tables_.other.task.data() + pc.obeg,
                               tables_.other.demand.data() + pc.obeg,
                               tables_.other.period.data() + pc.obeg,
                               pc.oend - pc.obeg, hint_, r)};
    }
    return slot.zeta;
  }

  const DagTask& ti_;
  const TaskTables& tables_;
  const std::vector<Time>& hint_;
  const Time deadline_;
  const Time noncrit_wcet_;  // C'_i
  Memo& memo_;             // (q, intra_ahead) -> encoded unit
  CacheStats& stats_;
  QueryScratch& scratch_;  // per-prepared, reused
  OwnWindowSlot own_;      // tau_i's agent and preemption demand
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
};

class DpcpPPrepared final : public PreparedAnalysis {
 public:
  DpcpPPrepared(AnalysisSession& session, bool enumerate_paths,
                AnalysisOptions options)
      : PreparedAnalysis(session),
        enumerate_paths_(enumerate_paths),
        options_(options),
        tables_(static_cast<std::size_t>(ts_.size())) {}

  std::optional<Time> wcrt(int task,
                           const std::vector<Time>& hint) override {
    TaskTables& tb = tables_[static_cast<std::size_t>(task)];
    if (tb.dirty) rebuild(task, tb);
    const std::size_t len = result_key(task, tb, hint);
    const std::uint64_t h = Memo::hash(key_.data(), len);
    if (const Time* v = results_.find(key_.data(), len, h)) {
      ++session_.stats().result_hits;
      if (*v == kMissedDeadline) return std::nullopt;
      return *v;
    }
    const auto r = compute(task, tb, hint);
    // Forgetting a state only costs its recomputation, so a memo past
    // kMaxResultWords starts over: that bounds the memory of a long search.
    if (results_.words() + len > kMaxResultWords) results_.clear();
    results_.insert(key_.data(), len, h, r ? *r : kMissedDeadline);
    return r;
  }

 protected:
  void partition_inputs(const Partition& part, int task,
                        std::vector<Time>* out) const override {
    // Everything Lemmas 2-6 read from the partition: tau_i's own cluster
    // (m_i, agent set), its co-hosted tasks (preemption, shared-processor
    // classification), and the full resource placement (contention tables
    // span every processor hosting a global).
    append_cluster(part, task, out);
    append_cohosted(part, task, out);
    append_placement(part, out);
    // User-set epochs of every resource whose demand tables the contention
    // build reads for tau_i: its own resources, resources co-located with
    // them (sharing an agent processor's tables), and resources inside its
    // cluster (agent demand).  The placement map above pins *where* these
    // sets live; the epochs pin *who* is in them — a session mutation that
    // changes a user set without moving any resource still re-analyzes
    // exactly the tasks reading it.  mark_ flags processors first (the
    // hosts of tau_i's resources, and its cluster), then resources (tau_i's
    // own, and every resource on a flagged processor).
    const std::size_t m = static_cast<std::size_t>(part.num_processors());
    mark_.assign(m + static_cast<std::size_t>(part.num_resources()), 0);
    for (ResourceId q : ts_.task(task).used_resources()) {
      mark_[m + static_cast<std::size_t>(q)] = 1;
      const ProcessorId p = part.processor_of_resource(q);
      if (p != Partition::kUnassigned) mark_[static_cast<std::size_t>(p)] = 1;
    }
    for (ProcessorId p : part.cluster(task))
      mark_[static_cast<std::size_t>(p)] = 1;
    std::size_t marked = 0;
    for (ResourceId q = 0; q < part.num_resources(); ++q) {
      const ProcessorId p = part.processor_of_resource(q);
      char& flag = mark_[m + static_cast<std::size_t>(q)];
      flag = flag || (p != Partition::kUnassigned &&
                      mark_[static_cast<std::size_t>(p)]);
      marked += static_cast<std::size_t>(flag);
    }
    out->push_back(static_cast<Time>(marked));
    for (ResourceId q = 0; q < part.num_resources(); ++q)
      if (mark_[m + static_cast<std::size_t>(q)]) append_users_epoch(q, out);
  }

  void invalidate(int task) override {
    tables_[static_cast<std::size_t>(task)].dirty = true;
  }

  bool result_depends_on(int task,
                         const std::vector<char>& changed) const override {
    // The hint entries wcrt(task, ·) reads are exactly the contenders in
    // its demand lists (Lemmas 2-6); with clean tables those lists are
    // the authoritative read set.
    const TaskTables& tb = tables_[static_cast<std::size_t>(task)];
    if (tb.dirty) return true;
    const auto any = [&changed](const DemandSoA& soa) {
      for (int j : soa.task)
        if (changed[static_cast<std::size_t>(j)]) return true;
      return false;
    };
    return any(tb.hp) || any(tb.other) || any(tb.agent) || any(tb.preempt);
  }

  void on_taskset_changed(bool remap) override {
    // result_key() leaves out what only a mutation changes (periods,
    // priorities, N, L, locals, path classes), and an append after a
    // remove-last reuses an index, so every mutation forgets every bound.
    results_.clear();
    const std::size_t n = static_cast<std::size_t>(ts_.size());
    if (remap) {
      // Indices were renumbered: a surviving slot may now describe a
      // different task, so drop every table (they rebuild lazily).
      tables_.assign(n, TaskTables{});
      return;
    }
    // Append / remove-last keeps surviving indices, periods, and relative
    // priorities stable, and every cross-task input a table caches —
    // contender membership per processor and the local/global split of
    // tau_i's resources (user-set epochs of the marked resources),
    // co-hosted preemptors, the placement map — is covered by
    // partition_inputs().  Keep the survivors' tables; the span diff
    // invalidates exactly the affected ones.  New slots start dirty.
    tables_.resize(n);
  }

 private:
  // Key words results_ holds at most (8 MiB).
  static constexpr std::size_t kMaxResultWords = std::size_t{1} << 20;

  // Runs whenever bind() reported changed inputs for the task.  The
  // inputs include the whole placement map, so in an admission stream
  // that is about 96% of wcrt() calls: the tables are filled in place
  // from one PlacedGlobals per bind, built by its first rebuild.
  void rebuild(int task, TaskTables& tb) {
    const Partition& part = partition();
    if (placed_bind_ != binds()) {
      placed_.build(ts_, part);
      placed_bind_ = binds();
    }
    tb.mi = part.cluster_size(task);
    assert(tb.mi >= 1);
    tb.shares_processor = shares_processor(task);
    tb.fill(ts_, part, placed_, task);
    // Agent demand (Lemma 6): every other task's demand on the globals its
    // cluster hosts, summed over the cluster's host rows.
    tb.agent.clear();
    for (std::size_t j = 0; j < placed_.tasks(); ++j) {
      if (j == static_cast<std::size_t>(task)) continue;
      Time demand = 0;
      for (ProcessorId p : part.cluster(task)) {
        const int h = placed_.slot_of[static_cast<std::size_t>(p)];
        if (h >= 0) demand += placed_.demand_row(static_cast<std::size_t>(h))[j];
      }
      if (demand > 0)
        tb.agent.add(static_cast<int>(j), demand, placed_.period[j]);
    }
    // Only a task on a shared processor has co-hosted preemptors.
    if (tb.shares_processor)
      preemption_demand(task, &tb.preempt);
    else
      tb.preempt.clear();
    tb.dirty = false;
  }

  // Serializes into key_ the query state of wcrt(task, hint) and returns
  // its length: every word compute() reads that can differ between two
  // queries of one task-set epoch.  That is m_i and the shared-processor
  // flag; per contention processor where tau_i requests a global, beta,
  // the requested resources (they fix N, L and the own demand there) and
  // the `other` list as (j, demand, hint[j]) (`hp` is its higher-priority
  // part, and priorities are fixed); the requested cluster globals; and
  // the agent and preemption lists.  Periods, priorities, N, L, slots,
  // locals and path classes change only with the task set, and every
  // change clears the memo.  Each variable-length section leads with its
  // length.  key_ only grows, to the longest key's bound so far, so the
  // words are plain stores.
  std::size_t result_key(int task, const TaskTables& tb,
                         const std::vector<Time>& hint) {
    const std::size_t bound =
        7 + 3 * tb.procs.size() + tb.requests.size() + 3 * tb.other.size() +
        tb.cluster_requests.size() + 3 * (tb.agent.size() + tb.preempt.size());
    if (key_.size() < bound) key_.resize(bound);
    Time* w = key_.data();
    *w++ = task;
    *w++ = tb.mi;
    *w++ = tb.shares_processor;
    Time* procs = w++;
    *procs = 0;
    for (const TaskTables::Proc& pc : tb.procs) {
      if (pc.rbeg == pc.rend) continue;
      ++*procs;
      *w++ = pc.beta;
      *w++ = pc.rend - pc.rbeg;
      for (std::uint32_t r = pc.rbeg; r < pc.rend; ++r)
        *w++ = tb.requests[r].q;
      w = append_contenders(w, tb.other, pc.obeg, pc.oend, hint);
    }
    *w++ = static_cast<Time>(tb.cluster_requests.size());
    for (const TaskTables::Request& r : tb.cluster_requests) *w++ = r.q;
    w = append_contenders(w, tb.agent, 0, tb.agent.size(), hint);
    w = append_contenders(w, tb.preempt, 0, tb.preempt.size(), hint);
    assert(w <= key_.data() + bound);
    return static_cast<std::size_t>(w - key_.data());
  }

  static Time* append_contenders(Time* w, const DemandSoA& soa,
                                 std::size_t begin, std::size_t end,
                                 const std::vector<Time>& hint) {
    *w++ = static_cast<Time>(end - begin);
    for (std::size_t x = begin; x < end; ++x) {
      const int j = soa.task[x];
      *w++ = j;
      *w++ = soa.demand[x];
      *w++ = hint[static_cast<std::size_t>(j)];
    }
    return w;
  }

  std::optional<Time> compute(int task, const TaskTables& tb,
                              const std::vector<Time>& hint) {
    const DagTask& ti = ts_.task(task);
    QueryContext ctx(ts_, task, tb, hint, memo_, session_.stats(), scratch_);

    if (tb.shares_processor) {
      // Partitioned light task (Sec. VI): executed sequentially, so the
      // whole job is one "path" of length C_i carrying all N_{i,q}
      // requests.  Intra-task blocking and interference vanish; inter-task
      // blocking and agent interference are analysed by the same
      // machinery, and P-FP preemption by co-located tasks enters the
      // outer recurrence.
      all_requests_.clear();
      for (ResourceId q : ti.used_resources())
        all_requests_.push_back(ti.usage(q).max_requests);
      return ctx.path_bound(ti.wcet(), all_requests_.data(),
                            /*envelope=*/false, 0);
    }

    if (!enumerate_paths_) {
      return ctx.path_bound(ti.longest_path_length(), nullptr,
                            /*envelope=*/true, 0);
    }

    const PathEnumResult& paths = session_.paths(task, options_.max_paths);
    if (paths.truncated ||
        static_cast<std::int64_t>(paths.size()) > options_.max_signatures) {
      // Path space too large: fall back to the envelope, which dominates
      // every per-path bound (sound, possibly pessimistic).
      return ctx.path_bound(ti.longest_path_length(), nullptr,
                            /*envelope=*/true, 0);
    }

    // Walk the SoA classes: lengths sequentially, request rows as one
    // contiguous strided array whose positions are the used_resources()
    // slots the tables' request records name.
    assert(paths.resource_index == ti.used_resources());
    Time worst = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const auto r = ctx.path_bound(paths.lengths[i], paths.requests_of(i),
                                    /*envelope=*/false, worst);
      if (!r) return std::nullopt;
      worst = std::max(worst, *r);
    }
    return worst;
  }

  const bool enumerate_paths_;  // EP; EN takes the envelope
  const AnalysisOptions options_;
  std::vector<TaskTables> tables_;
  PlacedGlobals placed_;           // of the bind numbered placed_bind_
  std::int64_t placed_bind_ = 0;   // binds() count; 0 = never built
  Memo memo_;              // QueryContext's units, cleared per query
  Memo results_;           // cleared by every task-set change
  std::vector<Time> key_;  // result_key()'s buffer; only grows
  QueryScratch scratch_;
  std::vector<int> all_requests_;   // a light task's N_{i,q}, per slot
  mutable std::vector<char> mark_;  // partition_inputs() flags, per task
};

}  // namespace

std::unique_ptr<PreparedAnalysis> prepare_dpcp_p(
    AnalysisSession& session, bool enumerate_paths,
    const AnalysisOptions& options) {
  return std::make_unique<DpcpPPrepared>(session, enumerate_paths, options);
}

}  // namespace dpcp
