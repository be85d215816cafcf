#include "opt/admission.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "opt/snapshot.hpp"
#include "partition/federated.hpp"
#include "util/time.hpp"

namespace dpcp {

const char* admit_rung_token(AdmitRung rung) {
  switch (rung) {
    case AdmitRung::kNone:
      return "-";
    case AdmitRung::kDelta:
      return "delta";
    case AdmitRung::kReplace:
      return "replace";
    case AdmitRung::kRepair:
      return "repair";
  }
  return "-";
}

AdmissionController::AdmissionController(int num_resources,
                                         const AdmitOptions& options)
    : options_(options),
      ts_(num_resources),
      session_(ts_, AllowMutation{}),
      oracle_(SchedAnalysis(options.kind, options.analysis).prepare(session_)),
      part_(options.m, 0, num_resources),
      rng_root_(options.seed) {}

AdmissionController::AdmissionController(const ControllerSnapshot& snap)
    : options_(snap.options),
      ts_(snap.taskset),
      session_(ts_, AllowMutation{}),
      oracle_(
          SchedAnalysis(options_.kind, options_.analysis).prepare(session_)),
      part_(snap.partition),
      ext_ids_(snap.ext_ids),
      rng_root_(options_.seed),
      admit_seq_(snap.admit_seq),
      next_ext_(snap.next_ext),
      stats_(snap.stats),
      slo_percentile_(snap.slo_percentile),
      slo_budget_(snap.slo_budget),
      cost_hist_(snap.cost_hist) {
  auto fail = [](const std::string& why) {
    throw std::invalid_argument("restore: " + why);
  };
  if (options_.m < 1) fail("platform size must be >= 1");
  if (part_.num_processors() != options_.m ||
      part_.num_tasks() != ts_.size() ||
      part_.num_resources() != ts_.num_resources())
    fail("partition shape does not match the task set");
  if (ext_ids_.size() != static_cast<std::size_t>(ts_.size()))
    fail("ext-ids arity does not match the task set");
  std::vector<int> ids = ext_ids_;
  for (const auto& [id, task] : snap.retry) {
    if (task.num_resources() != ts_.num_resources())
      fail("retry task arity does not match");
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] >= next_ext_) fail("external id >= next-ext");
    if (k > 0 && ids[k] == ids[k - 1]) fail("duplicate external id");
  }
  if (auto err = part_.validate(ts_))
    fail("partition invalid: " + *err);
  for (const auto& [id, task] : snap.retry) {
    DagTask copy = task;
    copy.finalize();
    retry_.push_back(Pending{id, std::move(copy)});
  }
  for (std::int64_t v : snap.slo_window) slo_window_.add(v);
  // The quiesce barrier: the same uncounted full pass snapshot() ran on
  // the live controller, leaving both sides' oracle-reuse state (and so
  // every future decision and cost) identical.
  if (!prime()) fail("resident set no longer certifies on its partition");
}

MetricsRegistry AdmissionController::metrics() const {
  MetricsRegistry reg;
  reg.add("dpcp_admit_submitted_total", stats_.submitted);
  reg.add("dpcp_admit_accepted_total", stats_.accepted);
  reg.add("dpcp_admit_rejected_total", stats_.rejected);
  reg.add("dpcp_admit_departed_total", stats_.departed);
  reg.add("dpcp_admit_delta_total", stats_.delta_accepts);
  reg.add("dpcp_admit_replace_total", stats_.replace_accepts);
  reg.add("dpcp_admit_repair_total", stats_.repair_accepts);
  reg.add("dpcp_admit_readmit_total", stats_.readmits);
  reg.add("dpcp_admit_evictions_total", stats_.retry_evictions);
  reg.add("dpcp_admit_degraded_total", stats_.degraded_admits);
  reg.add("dpcp_admit_streak_resets_total", streak_resets_);
  reg.add("dpcp_oracle_calls_total", stats_.oracle_calls);
  reg.add("dpcp_oracle_reused_total", stats_.tasks_reused);
  reg.add("dpcp_resident_tasks", ts_.size());
  reg.add("dpcp_retry_queue_depth", static_cast<std::int64_t>(retry_.size()));
  reg.add("dpcp_admit_cost", cost_hist_);
  reg.add("dpcp_admit_cost_window", slo_window_);
  return reg;
}

ControllerSnapshot AdmissionController::snapshot() {
  // Quiesce first.  The live resident set was certified on this exact
  // partition when last admitted, and departures only remove demand, so
  // the pass cannot fail.
  if (!prime())
    throw std::logic_error("snapshot: resident set failed re-certification");
  ControllerSnapshot snap;
  snap.options = options_;
  snap.taskset = ts_;
  snap.partition = part_;
  snap.ext_ids = ext_ids_;
  snap.retry.reserve(retry_.size());
  for (const Pending& p : retry_) snap.retry.emplace_back(p.id, p.task);
  snap.next_ext = next_ext_;
  snap.admit_seq = admit_seq_;
  snap.stats = stats_;
  snap.slo_percentile = slo_percentile_;
  snap.slo_budget = slo_budget_;
  snap.slo_window = slo_window_.samples_in_order();
  snap.cost_hist = cost_hist_;
  return snap;
}

bool AdmissionController::prime() {
  const std::size_t n = static_cast<std::size_t>(ts_.size());
  prev_result_.assign(n, std::nullopt);
  stable_.assign(n, 0);
  have_prev_ = false;
  if (n == 0) {
    wcrt_.clear();
    have_prev_ = true;
    return true;
  }
  oracle_->bind(part_);
  AnalysisPass pass(ts_, session_.priority_order());
  if (pass.run(*oracle_, /*stop_at_miss=*/true) >= 0) return false;
  wcrt_.resize(n);
  for (int i = 0; i < ts_.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    prev_result_[ui] = pass.result(i);
    wcrt_[ui] = *prev_result_[ui];
  }
  stable_.assign(n, 1);
  have_prev_ = true;
  return true;
}

void AdmissionController::set_slo(int percentile, std::int64_t budget) {
  slo_percentile_ = percentile;
  slo_budget_ = budget;
}

bool AdmissionController::degraded() const {
  return slo_percentile_ > 0 && slo_window_.size() > 0 &&
         slo_window_.percentile(slo_percentile_) > slo_budget_;
}

std::int64_t AdmissionController::effective_repair_evals() const {
  return degraded() ? 0 : options_.repair_evals;
}

void AdmissionController::note_cost(std::int64_t cost) {
  cost_hist_.add(cost);
  slo_window_.add(cost);
}

int AdmissionController::index_of(int external_id) const {
  for (std::size_t i = 0; i < ext_ids_.size(); ++i)
    if (ext_ids_[i] == external_id) return static_cast<int>(i);
  return -1;
}

bool AdmissionController::evaluate(const Partition& part) {
  oracle_->bind(part);
  const std::size_t n = static_cast<std::size_t>(ts_.size());
  const auto& order = session_.priority_order();

  std::vector<Time> hint(n);
  for (int j = 0; j < ts_.size(); ++j)
    hint[static_cast<std::size_t>(j)] = ts_.task(j).deadline();
  bounds_scratch_.assign(n, kTimeInfinity);
  result_.assign(n, std::nullopt);

  // prev_result_ holds the last *successful* pass; stable_[i] records
  // that task i's partition inputs were certified unchanged by every
  // bind since that pass (failed candidate evaluations included, since
  // bind() diffs bind-to-bind).  Only a task whose inputs survived the
  // whole chain may reuse its old bound.
  const bool comparable = have_prev_ && prev_result_.size() == n;
  stable_.resize(n, 0);
  for (int i = 0; i < ts_.size(); ++i)
    if (!oracle_->task_unchanged(i)) stable_[static_cast<std::size_t>(i)] = 0;

  // Cross-evaluation reuse: a task keeps its previous bound when its
  // inputs are unchanged since the last success AND none of the tasks
  // whose bounds deviated so far (in analysis order; later tasks
  // contribute their unchanged deadlines, not bounds) is in its contender
  // read set — a sharper rule than AnalysisPass's any-deviation cutoff,
  // which the arrival of a new task (nullopt -> bound) always trips.
  // This loop therefore stays apart from AnalysisPass: either rule in the
  // other's place would change oracle-call counts, and with them the
  // `calls=` reply bytes.
  deviated_scratch_.assign(n, 0);
  bool any_deviation = false;
  for (int i : order) {
    const std::size_t ui = static_cast<std::size_t>(i);
    std::optional<Time> r;
    if (comparable && prev_result_[ui] && stable_[ui] &&
        (!any_deviation ||
         !oracle_->result_depends_on(i, deviated_scratch_))) {
      r = prev_result_[ui];
      ++stats_.tasks_reused;
    } else {
      r = oracle_->wcrt(i, hint);
      ++stats_.oracle_calls;
    }
    result_[ui] = r;
    if (comparable && r != prev_result_[ui]) {
      deviated_scratch_[ui] = 1;
      any_deviation = true;
    }

    const Time deadline = ts_.task(i).deadline();
    if (!r || *r > deadline) {
      // One deadline miss already refutes the candidate; stop instead of
      // certifying the rest.  prev_result_ (and the stable_ streaks, which
      // this bind already folded in) stay valid for the next evaluation.
      return false;
    }
    hint[ui] = *r;
    bounds_scratch_[ui] = *r;
  }
  prev_result_.swap(result_);
  stable_.assign(n, 1);
  have_prev_ = true;
  return true;
}

bool AdmissionController::delta_place(int idx) {
  const int need = min_federated_processors(ts_.task(idx));
  const std::vector<ProcessorId> spares = part_.spare_processors();
  if (static_cast<int>(spares.size()) >= need) {
    part_.set_cluster(
        idx, std::vector<ProcessorId>(spares.begin(), spares.begin() + need));
  } else if (need == 1) {
    // No spare: pack on the least-utilized processor hosting only
    // width-1 clusters (the Sec. VI light-task sharing rule); ties go to
    // the lowest processor id.
    ProcessorId best = Partition::kUnassigned;
    double best_load = 0.0;
    for (ProcessorId p = 0; p < options_.m; ++p) {
      double load = 0.0;
      bool shareable = false;
      for (int j : part_.tasks_on_processor(p)) {
        if (j == idx) continue;
        if (part_.cluster_size(j) != 1) {
          shareable = false;
          break;
        }
        shareable = true;
        load += ts_.task(j).utilization();
      }
      if (!shareable) continue;
      if (best == Partition::kUnassigned || load < best_load) {
        best = p;
        best_load = load;
      }
    }
    if (best == Partition::kUnassigned) return false;
    part_.set_cluster(idx, {best});
  } else {
    return false;
  }

  // Agents only for resources that just became global: everything already
  // placed stays put, so the surviving tasks' placement fingerprints (and
  // with them the oracle's cached bounds) survive the arrival.
  place_new_globals();
  return !part_.validate(ts_).has_value();
}

void AdmissionController::place_new_globals() {
  // Spread each newly global resource onto the processor hosting the
  // fewest agents so far (ties to the lowest id): keeps synchronization
  // processors from piling up on one early arrival's home, and keeps the
  // per-processor contention read sets — and with them the oracle's
  // epoch-marked invalidation cones — narrow.
  for (ResourceId q = 0; q < ts_.num_resources(); ++q) {
    if (part_.processor_of_resource(q) != Partition::kUnassigned ||
        !ts_.is_global(q))
      continue;
    ProcessorId best = 0;
    std::size_t best_count = part_.resources_on_processor(0).size();
    for (ProcessorId p = 1; p < options_.m; ++p) {
      const std::size_t count = part_.resources_on_processor(p).size();
      if (count < best_count) {
        best = p;
        best_count = count;
      }
    }
    part_.assign_resource(q, best);
  }
}

bool AdmissionController::steal_cluster(int idx) {
  const int need = min_federated_processors(ts_.task(idx));
  std::vector<ProcessorId> cl = part_.spare_processors();
  if (static_cast<int>(cl.size()) > need) cl.resize(static_cast<std::size_t>(need));
  while (static_cast<int>(cl.size()) < need) {
    int donor = -1;
    for (int j = 0; j < ts_.size(); ++j) {
      if (j == idx || part_.cluster_size(j) < 2) continue;
      if (donor < 0 || part_.cluster_size(j) > part_.cluster_size(donor))
        donor = j;
    }
    if (donor < 0) return false;
    std::vector<ProcessorId> dc = part_.cluster(donor);
    cl.push_back(dc.back());
    dc.pop_back();
    part_.set_cluster(donor, std::move(dc));
  }
  part_.set_cluster(idx, std::move(cl));
  place_new_globals();
  return !part_.validate(ts_).has_value();
}

AdmitDecision AdmissionController::admit_with_id(int external_id,
                                                 DagTask task,
                                                 const char* trace_kind) {
  AdmitDecision d;
  d.id = external_id;
  const std::int64_t calls_before = stats_.oracle_calls;
  const std::int64_t reused_before = stats_.tasks_reused;
  ++admit_seq_;

  DecisionRecord rec;
  rec.seq = ++trace_seq_;
  rec.kind = trace_kind;
  rec.id = external_id;

  // Structurally hopeless: no cluster makes a critical path longer than
  // the deadline feasible, so reject outright and never queue.
  if (task.longest_path_length() >= task.deadline()) {
    ++stats_.rejected;
    note_cost(0);
    trace_.push(rec);
    return d;
  }

  // SLO degradation: while the rolling cost percentile is over budget,
  // this admission runs without the (expensive) repair rung.
  const std::int64_t repair_budget = effective_repair_evals();
  if (repair_budget < options_.repair_evals) {
    ++stats_.degraded_admits;
    rec.degraded = true;
  }

  DagTask retry_copy = task;  // survives in the queue if every rung fails
  const Partition snapshot = part_;
  const int idx = session_.add_task(std::move(task));
  part_.append_task_slot();
  ext_ids_.push_back(external_id);
  prev_result_.push_back(std::nullopt);

  bool accepted = false;
  std::vector<Partition> seeds;

  // Rung 1 — delta placement: a cluster from spares (or a shared light
  // processor), agents only for newly global resources.
  if (delta_place(idx)) {
    if (evaluate(part_)) {
      accepted = true;
      d.rung = AdmitRung::kDelta;
      ++stats_.delta_accepts;
    } else {
      seeds.push_back(part_);
    }
  }

  // Rung 2 — full strategy re-placements on the rung-1 cluster shape.
  if (!accepted && part_.cluster_size(idx) > 0) {
    for (PlacementKind kind : options_.placements) {
      Partition cand = part_;
      if (!placement_strategy(kind).place_resources(ts_, cand)) continue;
      if (cand.validate(ts_).has_value()) continue;
      if (evaluate(cand)) {
        part_ = std::move(cand);
        accepted = true;
        d.rung = AdmitRung::kReplace;
        ++stats_.replace_accepts;
        break;
      }
      seeds.push_back(std::move(cand));
    }
  }

  // Rung 3 — budgeted Move-search repair seeded from the failed attempts
  // (or, when no rung could even form a cluster, from stolen processors).
  if (!accepted && repair_budget > 0) {
    if (seeds.empty() && part_.cluster_size(idx) == 0 && steal_cluster(idx))
      seeds.push_back(part_);
    if (!seeds.empty()) {
      OptOptions opt_options;
      opt_options.max_evals = repair_budget;
      PartitionOptimizer search(ts_, options_.m, *oracle_,
                                session_.priority_order(),
                                rng_root_.fork(admit_seq_), opt_options);
      std::vector<const Partition*> seed_ptrs;
      seed_ptrs.reserve(seeds.size());
      for (const Partition& s : seeds) seed_ptrs.push_back(&s);
      const SearchResult res = search.run(seed_ptrs);
      stats_.oracle_calls += res.stats.oracle_calls;
      stats_.tasks_reused += res.stats.tasks_reused;
      have_prev_ = false;  // the search's binds moved past our prev results
      ++streak_resets_;
      rec.streak_reset = true;
      if (res.schedulable && evaluate(res.partition)) {
        part_ = res.partition;
        accepted = true;
        d.rung = AdmitRung::kRepair;
        ++stats_.repair_accepts;
      }
    }
  }

  if (accepted) {
    wcrt_ = bounds_scratch_;
    ++stats_.accepted;
    d.accepted = true;
  } else {
    // Roll back.  The new task holds the last index, so the survivors
    // keep their indices — and the oracle its fingerprints and bounds.
    session_.remove_task(idx);
    part_ = snapshot;
    ext_ids_.pop_back();
    if (prev_result_.size() > static_cast<std::size_t>(ts_.size()))
      prev_result_.resize(static_cast<std::size_t>(ts_.size()));
    ++stats_.rejected;
    retry_.push_back(Pending{external_id, std::move(retry_copy)});
    d.queued = true;
    if (retry_.size() > options_.retry_capacity) {
      d.evicted_id = retry_.front().id;
      retry_.pop_front();
      ++stats_.retry_evictions;
    }
  }
  d.cost = stats_.oracle_calls - calls_before;
  note_cost(d.cost);
  rec.accepted = d.accepted;
  rec.rung = admit_rung_token(d.rung);
  rec.cost = d.cost;
  rec.reused = stats_.tasks_reused - reused_before;
  rec.queued = d.queued;
  rec.evicted_id = d.evicted_id;
  trace_.push(rec);
  return d;
}

AdmitDecision AdmissionController::admit(DagTask task) {
  ++stats_.submitted;
  task.finalize();  // idempotent; derived L*/N_{i,q} must be fresh
  return admit_with_id(next_ext_++, std::move(task), "admit");
}

DepartOutcome AdmissionController::depart(int external_id) {
  DepartOutcome out;
  DecisionRecord rec;
  rec.kind = "depart";
  rec.id = external_id;
  const int idx = index_of(external_id);
  if (idx < 0) {
    for (auto it = retry_.begin(); it != retry_.end(); ++it) {
      if (it->id == external_id) {
        retry_.erase(it);
        out.found = true;
        ++stats_.departed;
        rec.seq = ++trace_seq_;
        rec.accepted = true;  // found and removed from the retry queue
        trace_.push(rec);
        break;
      }
    }
    return out;
  }
  out.found = true;
  out.was_resident = true;
  ++stats_.departed;
  const std::int64_t calls_before = stats_.oracle_calls;

  const bool was_last = idx == ts_.size() - 1;
  session_.remove_task(idx);
  part_.erase_task_slot(idx);
  ext_ids_.erase(ext_ids_.begin() + idx);
  // Survivors keep their certified bounds: removing a task only removes
  // non-negative demand/blocking terms from every analysis here, so the
  // old bounds stay valid upper bounds.
  wcrt_.erase(wcrt_.begin() + idx);
  if (was_last) {
    if (prev_result_.size() > static_cast<std::size_t>(ts_.size()))
      prev_result_.resize(static_cast<std::size_t>(ts_.size()));
  } else {
    // Indices renumbered: the oracle resets wholesale on its next bind,
    // and our cached bounds no longer line up with its diff state.
    have_prev_ = false;
    prev_result_.assign(static_cast<std::size_t>(ts_.size()), std::nullopt);
    ++streak_resets_;
    rec.streak_reset = true;
  }

  // Opportunistic re-admission: one FIFO pass over the queue; failures
  // re-queue at the back (admit_with_id does that itself).
  if (!retry_.empty()) {
    std::deque<Pending> waiting;
    waiting.swap(retry_);
    for (Pending& p : waiting) {
      AdmitDecision d = admit_with_id(p.id, std::move(p.task), "readmit");
      if (d.accepted) {
        ++stats_.readmits;
        out.readmitted.push_back(d);
      }
    }
  }
  out.cost = stats_.oracle_calls - calls_before;
  rec.seq = ++trace_seq_;
  rec.accepted = true;
  rec.cost = out.cost;
  rec.readmitted = static_cast<std::int64_t>(out.readmitted.size());
  trace_.push(rec);
  return out;
}

}  // namespace dpcp
