#include "opt/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dpcp {
namespace {

/// Consecutive non-improving proposals before a kick-and-restart.
constexpr int kStallLimit = 20;

}  // namespace

PartitionOptimizer::PartitionOptimizer(const TaskSet& ts, int m,
                                       WcrtOracle& oracle,
                                       const std::vector<int>& order, Rng rng,
                                       const OptOptions& options)
    : ts_(ts),
      m_(m),
      oracle_(oracle),
      rng_(rng),
      options_(options),
      globals_(ts.global_resources()),
      pass_(ts, order),
      last_wcrt_(static_cast<std::size_t>(ts.size()), kTimeInfinity) {}

OptScore PartitionOptimizer::evaluate(const Partition& part) {
  ++stats_.evals;
  oracle_.bind(part);
  // One full pass: every task is analysed so the objective covers the
  // whole set.
  pass_.run(oracle_, /*stop_at_miss=*/false);
  stats_.oracle_calls = pass_.oracle_calls();
  stats_.tasks_reused = pass_.reused();

  OptScore score;
  for (int i = 0; i < ts_.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const std::optional<Time> r = pass_.result(i);
    const Time deadline = ts_.task(i).deadline();
    if (r && *r <= deadline) {
      last_wcrt_[ui] = *r;
      continue;
    }
    last_wcrt_[ui] = kTimeInfinity;
    // Saturate each miss at one deadline so a single divergent task
    // cannot drown the progress signal of the others.
    ++score.failing;
    score.penalty += r ? std::min(*r - deadline, deadline) : deadline;
  }
  return score;
}

std::optional<Move> PartitionOptimizer::propose(const Partition& part) {
  ++stats_.proposals;
  const MoveKind kind = static_cast<MoveKind>(
      rng_.index(static_cast<std::size_t>(kNumMoveKinds)));
  const int n = ts_.size();

  // A task drawn uniformly among those whose cluster can shed a
  // processor (multi-processor clusters are dedicated by the sharing
  // invariant), or -1 without a draw when there is none.
  const auto draw_wide_task = [&]() {
    std::size_t count = 0;
    for (int i = 0; i < n; ++i) count += part.cluster_size(i) >= 2;
    if (count == 0) return -1;
    std::size_t k = rng_.index(count);
    for (int i = 0;; ++i) {
      if (part.cluster_size(i) < 2) continue;
      if (k == 0) return i;
      --k;
    }
  };

  switch (kind) {
    case MoveKind::kRegrantSpare: {
      if (n < 2) return std::nullopt;
      const int from = draw_wide_task();
      if (from < 0) return std::nullopt;
      int to = static_cast<int>(rng_.index(static_cast<std::size_t>(n - 1)));
      if (to >= from) ++to;
      return Move::regrant(from, to);
    }
    case MoveKind::kRelocateResource: {
      if (globals_.empty() || m_ < 2) return std::nullopt;
      const ResourceId q = globals_[rng_.index(globals_.size())];
      const ProcessorId cur = part.processor_of_resource(q);
      if (cur == Partition::kUnassigned) return std::nullopt;
      // Uniform over the m-1 processors other than the current one.
      const ProcessorId to = static_cast<ProcessorId>(
          (cur + 1 +
           static_cast<ProcessorId>(rng_.index(static_cast<std::size_t>(
               m_ - 1)))) %
          m_);
      return Move::relocate(q, to);
    }
    case MoveKind::kWidenCluster: {
      if (n == 0) return std::nullopt;
      // The spare processors, in increasing order, are the unmarked ones.
      hosted_.assign(static_cast<std::size_t>(part.num_processors()), 0);
      for (int i = 0; i < n; ++i)
        for (ProcessorId p : part.cluster(i))
          hosted_[static_cast<std::size_t>(p)] = 1;
      const std::size_t spares = static_cast<std::size_t>(
          std::count(hosted_.begin(), hosted_.end(), 0));
      if (spares == 0) return std::nullopt;
      const int task = static_cast<int>(rng_.index(static_cast<std::size_t>(n)));
      std::size_t k = rng_.index(spares);
      for (ProcessorId p = 0;; ++p) {
        if (hosted_[static_cast<std::size_t>(p)]) continue;
        if (k == 0) return Move::widen(task, p);
        --k;
      }
    }
    case MoveKind::kNarrowCluster: {
      const int task = draw_wide_task();
      if (task < 0) return std::nullopt;
      const auto& c = part.cluster(task);
      return Move::narrow(task, c[rng_.index(c.size())]);
    }
    case MoveKind::kSwapResources: {
      if (globals_.size() < 2) return std::nullopt;
      const std::size_t a = rng_.index(globals_.size());
      std::size_t b = rng_.index(globals_.size() - 1);
      if (b >= a) ++b;
      return Move::swap_resources(globals_[a], globals_[b]);
    }
  }
  return std::nullopt;
}

SearchResult PartitionOptimizer::run(
    const std::vector<const Partition*>& seeds) {
  assert(!seeds.empty());
  SearchResult res;
  const std::size_t n = static_cast<std::size_t>(ts_.size());

  std::vector<std::size_t> valid;
  for (std::size_t i = 0; i < seeds.size(); ++i)
    if (!seeds[i]->validate(ts_)) valid.push_back(i);
  if (valid.empty()) {
    // Nothing the oracle may even look at; hand the first seed back
    // unscored.  (The callers' seeds come from Algorithm-1 runs whose
    // final partitions are valid except when the initial federated
    // allocation itself failed.)
    res.partition = *seeds.front();
    res.wcrt.assign(n, kTimeInfinity);
    res.stats = stats_;
    return res;
  }

  // Score the seeds (each costs one evaluation) and keep the best.
  bool have_best = false;
  std::size_t best_seed = valid.front();
  OptScore best_score{static_cast<std::int64_t>(n), 0};
  std::vector<Time> best_wcrt(n, kTimeInfinity);
  for (std::size_t idx : valid) {
    if (stats_.evals >= options_.max_evals) break;
    const OptScore sc = evaluate(*seeds[idx]);
    if (!have_best || sc.better_than(best_score)) {
      have_best = true;
      best_score = sc;
      best_seed = idx;
      best_wcrt = last_wcrt_;
    }
    if (sc.schedulable()) break;
  }
  Partition best_part = *seeds[best_seed];

  if (have_best && !best_score.schedulable()) {
    // First-improvement hill climbing with a deterministic
    // kick-and-restart schedule.
    Partition cur = best_part;
    OptScore cur_score = best_score;
    int stall = 0;
    // Caps proposals, rejected ones included, so the search ends even
    // when every neighbour fails validate().
    const std::int64_t proposal_cap = 32 * options_.max_evals + 64;
    while (stats_.evals < options_.max_evals &&
           stats_.proposals < proposal_cap) {
      std::optional<Move> mv = propose(cur);
      if (!mv) continue;
      if (!mv->apply(cur)) continue;
      if (cur.validate(ts_)) {
        // The validate gate: an invalid candidate never reaches the
        // oracle and is undone on the spot.
        ++stats_.invalid_moves;
        mv->undo(cur);
        continue;
      }
      const OptScore sc = evaluate(cur);
      if (sc.better_than(cur_score)) {
        cur_score = sc;
        stall = 0;
        if (sc.better_than(best_score)) {
          best_score = sc;
          best_part = cur;
          best_wcrt = last_wcrt_;
        }
        if (sc.schedulable()) break;
        continue;
      }
      mv->undo(cur);
      if (++stall < kStallLimit) continue;

      // Restart: back to the best candidate, perturbed by a few random
      // (validate-gated, unscored) kick moves whose strength cycles
      // deterministically with the restart count.
      ++stats_.restarts;
      stall = 0;
      cur = best_part;
      const int kicks = 1 + static_cast<int>(stats_.restarts % 3);
      int applied = 0;
      for (int attempt = 0;
           attempt < 8 * kicks && applied < kicks &&
           stats_.proposals < proposal_cap;
           ++attempt) {
        std::optional<Move> km = propose(cur);
        if (!km || !km->apply(cur)) continue;
        if (cur.validate(ts_)) {
          ++stats_.invalid_moves;
          km->undo(cur);
          continue;
        }
        ++applied;
      }
      if (applied == 0) {
        // Nothing perturbed: cur is still best_part and its score is
        // already known — re-scoring it would burn budget for nothing.
        cur_score = best_score;
        continue;
      }
      if (stats_.evals >= options_.max_evals) break;
      cur_score = evaluate(cur);
      if (cur_score.better_than(best_score)) {
        best_score = cur_score;
        best_part = cur;
        best_wcrt = last_wcrt_;
        if (cur_score.schedulable()) break;
      }
    }
  }

  res.schedulable = have_best && best_score.schedulable();
  res.partition = std::move(best_part);
  res.wcrt = std::move(best_wcrt);
  res.seed_index = best_seed;
  res.stats = stats_;
  return res;
}

OptimizeOutcome optimize_partition(AnalysisSession& session, int m,
                                   WcrtOracle& oracle,
                                   const std::vector<PlacementKind>& seeds,
                                   Rng rng, const OptOptions& opt) {
  assert(!seeds.empty());
  const TaskSet& ts = session.taskset();
  OptimizeOutcome out;

  std::vector<PartitionOutcome> outcomes;
  outcomes.reserve(seeds.size());
  std::int64_t seed_oracle_calls = 0;
  for (PlacementKind kind : seeds) {
    PartitionOptions options;
    options.strategy = &placement_strategy(kind);
    options.priority_order = &session.priority_order();
    options.placement_cache =
        &session.placement_cache(options.strategy->cache_key());
    PartitionOutcome seed = partition_and_analyze(ts, m, oracle, options);
    seed_oracle_calls += seed.oracle_calls;
    if (seed.schedulable) {
      out.outcome = std::move(seed);
      out.outcome.oracle_calls = seed_oracle_calls;
      out.seed_schedulable = true;
      return out;
    }
    outcomes.push_back(std::move(seed));
  }

  // Unanimous reject: local-search from the rejected final partitions.
  std::vector<const Partition*> parts;
  parts.reserve(outcomes.size());
  for (const PartitionOutcome& seed : outcomes)
    parts.push_back(&seed.partition);
  PartitionOptimizer optimizer(ts, m, oracle, session.priority_order(), rng,
                               opt);
  SearchResult found = optimizer.run(parts);
  out.stats = found.stats;

  if (found.schedulable) {
    out.search_accepted = true;
    out.outcome.schedulable = true;
    out.outcome.partition = std::move(found.partition);
    out.outcome.wcrt = std::move(found.wcrt);
    out.outcome.rounds = outcomes[found.seed_index].rounds;
  } else {
    // The seeding strategy's outcome stands, diagnostics intact.
    out.outcome = std::move(outcomes[found.seed_index]);
  }
  out.outcome.oracle_calls = seed_oracle_calls + found.stats.oracle_calls;
  return out;
}

}  // namespace dpcp
