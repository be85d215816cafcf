#include "partition/partitioner.hpp"

#include <algorithm>
#include <numeric>

namespace dpcp {
namespace {

PlacementCache::Outcome place_resources(const TaskSet& ts, Partition& part,
                                        const PartitionOptions& options) {
  if (options.placement == ResourcePlacement::kNone) {
    part.clear_resource_assignment();
    return {true, {}};
  }
  // A strategy's output is untrusted: gate every *freshly* computed
  // placement on Partition::validate() before any analysis sees it.
  // Placement is a pure function of the cluster shape, so cache hits
  // restore the recorded verdict instead of re-validating.
  if (options.placement_cache) {
    if (const auto hit = options.placement_cache->try_restore(part))
      return *hit;
  }
  PlacementCache::Outcome outcome;
  outcome.feasible = options.strategy->place_resources(ts, part);
  if (outcome.feasible) {
    if (const auto err = part.validate(ts)) {
      outcome.feasible = false;
      outcome.invalid = "placement strategy '" + options.strategy->name() +
                        "' produced an invalid partition: " + *err;
    }
  }
  if (options.placement_cache) options.placement_cache->store(part, outcome);
  return outcome;
}

}  // namespace

std::vector<int> PlacementCache::key(const Partition& part) {
  std::vector<int> k;
  k.reserve(static_cast<std::size_t>(part.num_tasks()) * 3);
  for (int i = 0; i < part.num_tasks(); ++i) {
    const auto& cluster = part.cluster(i);
    k.push_back(static_cast<int>(cluster.size()));
    k.insert(k.end(), cluster.begin(), cluster.end());
  }
  return k;
}

std::size_t PlacementCache::KeyHash::operator()(
    const std::vector<int>& v) const {
  std::size_t h = 0x811C9DC5u;
  for (int x : v)
    h ^= static_cast<std::size_t>(x) + 0x9E3779B9u + (h << 6) + (h >> 2);
  return h;
}

std::optional<PlacementCache::Outcome> PlacementCache::try_restore(
    Partition& part) const {
  const auto it = map_.find(key(part));
  if (it == map_.end()) return std::nullopt;
  part.restore_resource_assignment(it->second.second);
  return it->second.first;
}

void PlacementCache::store(const Partition& part, const Outcome& outcome) {
  map_.emplace(key(part),
               std::make_pair(outcome, part.resource_assignment()));
}

std::vector<int> analysis_priority_order(const TaskSet& ts) {
  std::vector<int> order(static_cast<std::size_t>(ts.size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return ts.task(a).priority() > ts.task(b).priority();
  });
  return order;
}

AnalysisPass::AnalysisPass(const TaskSet& ts, const std::vector<int>& order)
    : ts_(ts),
      order_(order),
      hint_(static_cast<std::size_t>(ts.size())),
      reached_(static_cast<std::size_t>(ts.size()), 0),
      prev_reached_(static_cast<std::size_t>(ts.size()), 0),
      result_(static_cast<std::size_t>(ts.size())),
      prev_result_(static_cast<std::size_t>(ts.size())) {}

int AnalysisPass::run(WcrtOracle& oracle, bool stop_at_miss) {
  reached_.swap(prev_reached_);
  result_.swap(prev_result_);
  std::fill(reached_.begin(), reached_.end(), 0);
  for (int j = 0; j < ts_.size(); ++j)
    hint_[static_cast<std::size_t>(j)] = ts_.task(j).deadline();

  // True while every task so far reproduced its previous answer, so the
  // hints the next task sees equal the previous pass's.
  bool same = true;
  int first_miss = -1;
  for (int i : order_) {
    const std::size_t ui = static_cast<std::size_t>(i);
    std::optional<Time> r;
    if (same && prev_reached_[ui] && oracle.task_unchanged(i)) {
      r = prev_result_[ui];
      ++reused_;
    } else {
      r = oracle.wcrt(i, hint_);
      ++oracle_calls_;
    }
    reached_[ui] = 1;
    result_[ui] = r;
    if (!prev_reached_[ui] || r != prev_result_[ui]) same = false;

    if (r && *r <= ts_.task(i).deadline()) {
      hint_[ui] = *r;
      continue;
    }
    // A miss keeps D_i as its hint for the tasks after it.
    if (first_miss < 0) first_miss = i;
    if (stop_at_miss) break;
  }
  return first_miss;
}

PartitionOutcome partition_and_analyze(const TaskSet& ts, int m,
                                       WcrtOracle& oracle,
                                       const PartitionOptions& options) {
  PartitionOutcome out;
  const std::size_t n = static_cast<std::size_t>(ts.size());
  out.wcrt.assign(n, kTimeInfinity);

  auto initial = initial_federated_partition(ts, m);
  if (!initial) {
    out.failure = "initial federated allocation does not fit";
    out.partition = Partition(m, ts.size(), ts.num_resources());
    return out;
  }
  Partition part = std::move(*initial);
  ProcessorId next_spare = part.assigned_processors();

  const std::vector<int> computed_order =
      options.priority_order ? std::vector<int>() : analysis_priority_order(ts);
  const std::vector<int>& order =
      options.priority_order ? *options.priority_order : computed_order;
  AnalysisPass pass(ts, order);

  // Each round consumes at least one spare processor, so the loop runs at
  // most m - sum(m_i) + 1 <= m - 2n + 1 times for all-heavy sets (Sec. V).
  while (true) {
    ++out.rounds;
    const PlacementCache::Outcome placed = place_resources(ts, part, options);
    if (!placed.feasible) {
      // An invalid placement (strategy bug caught by the validity gate)
      // rejects before a single oracle query, with its own diagnostic.
      out.failure = placed.invalid.empty() ? "resource placement infeasible"
                                           : placed.invalid;
      out.partition = std::move(part);
      return out;
    }
    oracle.bind(part);

    // The round stops at the first miss, which gets the next spare.
    const int grantee = pass.run(oracle, /*stop_at_miss=*/true);
    out.oracle_calls = pass.oracle_calls();
    for (int i = 0; i < ts.size(); ++i) {
      const std::optional<Time> r = pass.result(i);
      if (r && *r <= ts.task(i).deadline())
        out.wcrt[static_cast<std::size_t>(i)] = *r;
    }
    if (grantee < 0) {
      out.schedulable = true;
      out.partition = std::move(part);
      return out;
    }
    if (next_spare >= m) {
      out.failure = "no spare processor left for task " +
                    std::to_string(ts.task(grantee).id());
      out.partition = std::move(part);
      return out;
    }
    // The rollback of the resource placement happens on re-entry, in
    // place_resources().
    part.grant(grantee, next_spare++);
  }
}

}  // namespace dpcp
