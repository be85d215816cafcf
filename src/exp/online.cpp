#include "exp/online.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "analysis/prepared.hpp"
#include "exp/validate.hpp"
#include "gen/taskset_gen.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/workers.hpp"

namespace dpcp {
namespace {

std::int64_t percentile(const std::vector<std::int64_t>& sorted, int pct) {
  if (sorted.empty()) return 0;
  const std::size_t idx = (sorted.size() - 1) * static_cast<std::size_t>(pct) / 100;
  return sorted[idx];
}

OnlineStreamResult run_stream(const OnlineOptions& options, int scenario_idx,
                              int stream_idx) {
  const Scenario& scenario =
      options.scenarios[static_cast<std::size_t>(scenario_idx)];
  OnlineStreamResult r;
  r.scenario = scenario_idx;
  r.stream = stream_idx;
  r.events = options.events;

  // One fork per (scenario, stream): the replay is self-contained, so the
  // thread that runs it cannot matter.
  const Rng root = Rng(options.admit.seed).fork(
      static_cast<std::uint64_t>(scenario_idx) * 1000003u +
      static_cast<std::uint64_t>(stream_idx));
  Rng events_rng = root.fork(1);
  Rng sim_rng = root.fork(2);
  const int nr = (scenario.nr_min + scenario.nr_max) / 2;
  GenParams refill;
  refill.scenario = scenario;
  refill.scenario.nr_min = refill.scenario.nr_max = nr;
  refill.total_utilization = options.util_frac * scenario.m;
  TaskPool pool(refill, root.fork(3));

  AdmitOptions admit = options.admit;
  admit.m = scenario.m;
  admit.seed = root.fork(4).raw();
  AdmissionController ctrl(nr, admit);

  const auto protocol =
      options.validate ? sim_protocol_for(options.admit.kind) : std::nullopt;
  SimBackendOptions sim_options;

  std::vector<std::int64_t> costs;  // per-arrival admission cost
  costs.reserve(static_cast<std::size_t>(options.events));
  for (int ev = 0; ev < options.events; ++ev) {
    const bool depart =
        ctrl.resident() > 2 && events_rng.bernoulli(options.depart_prob);
    if (depart) {
      const int victim = static_cast<int>(
          events_rng.uniform_int(0, ctrl.resident() - 1));
      const DepartOutcome out = ctrl.depart(ctrl.external_id(victim));
      ++r.departs;
      r.readmits += static_cast<int>(out.readmitted.size());
      continue;
    }
    ++r.arrivals;
    const AdmitDecision d = ctrl.admit(pool.next());
    costs.push_back(d.cost);
    if (!d.accepted) continue;
    ++r.accepts;
    if (protocol) {
      PartitionOutcome outcome;
      outcome.schedulable = true;
      outcome.partition = ctrl.partition();
      outcome.wcrt = ctrl.wcrt();
      SimConfig config =
          sample_sim_config(sim_options, ctrl.taskset(), sim_rng);
      config.protocol = *protocol;
      const SimResult res =
          simulate(ctrl.taskset(), outcome.partition, config);
      if (cross_check_accept(outcome, res).unsound) ++r.unsound;
    }
  }

  // Count readmits that happened out of departures as accepts too: they
  // entered via an arrival whose decision already counted as rejected, so
  // acceptance is over final outcomes of distinct submissions.
  if (r.arrivals > 0)
    r.acceptance_ppm =
        1000000ll * (r.accepts + r.readmits) / r.arrivals;
  std::sort(costs.begin(), costs.end());
  r.cost_p50 = percentile(costs, 50);
  r.cost_p99 = percentile(costs, 99);
  r.cost_max = costs.empty() ? 0 : costs.back();
  r.oracle_calls = ctrl.stats().oracle_calls;
  r.tasks_reused = ctrl.stats().tasks_reused;
  r.metrics = ctrl.metrics();
  // Plus the analysis cache counters: the session's response and result
  // memos, and the oracle's bind() diffs as slab reuses (tables kept) and
  // rebuilds.
  const CacheStats& cache = ctrl.cache_stats();
  r.metrics.add("dpcp_analysis_memo_hits_total",
                static_cast<std::int64_t>(cache.memo_hits));
  r.metrics.add("dpcp_analysis_memo_misses_total",
                static_cast<std::int64_t>(cache.memo_misses));
  r.metrics.add("dpcp_analysis_result_hits_total",
                static_cast<std::int64_t>(cache.result_hits));
  r.metrics.add("dpcp_analysis_slab_reuses_total",
                ctrl.oracle().diffs_unchanged());
  r.metrics.add("dpcp_analysis_slab_rebuilds_total",
                ctrl.oracle().diffs_invalidated());
  return r;
}

}  // namespace

std::vector<OnlineStreamResult> run_online(const OnlineOptions& options) {
  const std::size_t total = options.scenarios.size() *
                            static_cast<std::size_t>(options.streams);
  std::vector<OnlineStreamResult> results(total);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < total;
         k = next.fetch_add(1)) {
      const int scenario = static_cast<int>(
          k / static_cast<std::size_t>(options.streams));
      const int stream = static_cast<int>(
          k % static_cast<std::size_t>(options.streams));
      results[k] = run_stream(options, scenario, stream);
    }
  };
  // Replays are self-contained and land in their slot by index, so
  // workers beyond the number of replays would only cost spawn time.
  run_workers(
      std::min(static_cast<std::size_t>(std::max(1, options.threads)), total),
      worker);
  return results;
}

MetricsRegistry merge_online_metrics(
    const std::vector<OnlineStreamResult>& results) {
  MetricsRegistry merged;
  for (const OnlineStreamResult& r : results) merged.merge(r.metrics);
  return merged;
}

void write_online_csv(const std::vector<OnlineStreamResult>& results,
                      const OnlineOptions& options, std::ostream& out) {
  out << "scenario,m,nr,stream,events,arrivals,accepts,departs,readmits,"
         "acceptance_ppm,cost_p50,cost_p99,cost_max,oracle_calls,reused,"
         "unsound\n";
  for (const OnlineStreamResult& r : results) {
    const Scenario& sc =
        options.scenarios[static_cast<std::size_t>(r.scenario)];
    out << r.scenario << ',' << sc.m << ','
        << (sc.nr_min + sc.nr_max) / 2  // the stream's fixed arity
        << ',' << r.stream << ',' << r.events << ',' << r.arrivals << ','
        << r.accepts << ',' << r.departs << ',' << r.readmits << ','
        << r.acceptance_ppm << ',' << r.cost_p50 << ',' << r.cost_p99 << ','
        << r.cost_max << ',' << r.oracle_calls << ',' << r.tasks_reused
        << ',' << r.unsound << '\n';
  }
}

}  // namespace dpcp
