#include "partition/optimize.hpp"

#include <cassert>
#include <utility>

namespace dpcp {

OptimizeOutcome partition_and_optimize(
    const TaskSet& ts, int m, WcrtOracle& oracle,
    const std::vector<PartitionOptions>& seed_options, Rng rng,
    const OptOptions& opt) {
  assert(!seed_options.empty());
  OptimizeOutcome out;

  std::vector<PartitionOutcome> seeds;
  seeds.reserve(seed_options.size());
  std::int64_t seed_oracle_calls = 0;
  for (const PartitionOptions& options : seed_options) {
    PartitionOutcome seed = partition_and_analyze(ts, m, oracle, options);
    seed_oracle_calls += seed.oracle_calls;
    if (seed.schedulable) {
      out.outcome = std::move(seed);
      out.outcome.oracle_calls = seed_oracle_calls;
      out.seed_schedulable = true;
      out.seed_strategy = options.strategy->name();
      return out;
    }
    seeds.push_back(std::move(seed));
  }

  // Unanimous reject: local-search from the rejected final partitions.
  const std::vector<int> computed_order =
      seed_options.front().priority_order ? std::vector<int>()
                                          : analysis_priority_order(ts);
  const std::vector<int>& order = seed_options.front().priority_order
                                      ? *seed_options.front().priority_order
                                      : computed_order;
  std::vector<const Partition*> parts;
  parts.reserve(seeds.size());
  for (const PartitionOutcome& seed : seeds) parts.push_back(&seed.partition);

  PartitionOptimizer optimizer(ts, m, oracle, order, rng, opt);
  SearchResult found = optimizer.run(parts);
  out.stats = found.stats;
  out.seed_strategy = seed_options[found.seed_index].strategy->name();

  if (found.schedulable) {
    out.search_accepted = true;
    out.outcome.schedulable = true;
    out.outcome.partition = std::move(found.partition);
    out.outcome.wcrt = std::move(found.wcrt);
    out.outcome.rounds = seeds[found.seed_index].rounds;
    out.outcome.oracle_calls = seed_oracle_calls + found.stats.oracle_calls;
    return out;
  }

  // Never worse than the seed: the seeding strategy's outcome stands,
  // with its diagnostics intact (only the cost telemetry is totalled).
  out.outcome = std::move(seeds[found.seed_index]);
  out.outcome.oracle_calls = seed_oracle_calls + found.stats.oracle_calls;
  return out;
}

}  // namespace dpcp
