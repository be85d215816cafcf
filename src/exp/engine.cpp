#include "exp/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "gen/taskset_gen.hpp"
#include "opt/optimizer.hpp"
#include "partition/federated.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/workers.hpp"

namespace dpcp {

namespace {

// Salts of the simulation RNG sub-streams, forked off each item's
// (scenario, point, sample) generation stream: the sim-column run and the
// per-analysis cross-check runs each draw from their own stream, so
// enabling one never perturbs another (or generation itself).
constexpr std::uint64_t kSimColumnSalt = 0x53494D00ull;    // "SIM"
constexpr std::uint64_t kValidateSalt = 0x56414C00ull;     // "VAL"
constexpr std::uint64_t kOptimizeSalt = 0x4F505400ull;     // "OPT"

// fold(): element-wise merge of two equally shaped (nested) vectors of
// counts or of stats with a merge() member.
void fold(std::int64_t& into, std::int64_t share) { into += share; }
template <typename T>
void fold(T& into, const T& share) {
  into.merge(share);
}
template <typename T>
void fold(std::vector<T>& into, const std::vector<T>& share) {
  for (std::size_t i = 0; i < into.size(); ++i) fold(into[i], share[i]);
}

/// Adds one worker's share of a sweep to `into`.  Both are copies of the
/// same zeroed skeleton, so every vector has the same shape, and the
/// vectors a sweep does not fill are empty in both.
void merge_share(SweepResult& into, const SweepResult& share) {
  for (std::size_t s = 0; s < into.curves.size(); ++s) {
    fold(into.curves[s].accepted, share.curves[s].accepted);
    fold(into.curves[s].samples, share.curves[s].samples);
  }
  fold(into.sim_stats, share.sim_stats);
  fold(into.validation_points, share.validation_points);
  fold(into.opt_stats, share.opt_stats);
  fold(into.validation.analyses, share.validation.analyses);
  into.validation.failures.insert(into.validation.failures.end(),
                                  share.validation.failures.begin(),
                                  share.validation.failures.end());
  // Generator stats are sweep-global (per-scenario attribution would
  // require per-item stats plumbing for no analytical benefit).
  into.gen_stats.merge(share.gen_stats);
}

}  // namespace

void OptPointStats::merge(const OptPointStats& o) {
  seed_accepts += o.seed_accepts;
  search_accepts += o.search_accepts;
  evals += o.evals;
  proposals += o.proposals;
  invalid_moves += o.invalid_moves;
}

std::uint64_t scenario_seed(std::uint64_t base_seed, std::size_t index) {
  return base_seed + static_cast<std::uint64_t>(index) * 1000003ull;
}

SweepResult run_sweep(const std::vector<Scenario>& scenarios,
                      const std::vector<AnalysisKind>& kinds,
                      const SweepOptions& options) {
  const std::size_t n_scen = scenarios.size();
  // The per-sample RNG key is (point << 20) ^ sample, so sample indices
  // must stay below 2^20 or sub-streams would alias across points.
  const std::size_t samples = static_cast<std::size_t>(
      std::min(std::max(1, options.samples_per_point), 1 << 20));

  // Cross-checking is built on the sim runs, so validate implies enabled.
  SimBackendOptions sim_opts = options.sim;
  sim_opts.enabled = sim_opts.enabled || sim_opts.validate;
  const bool sim_on = sim_opts.enabled;
  const bool validate = sim_opts.validate;

  // Analytical columns.  Without a placement axis every analysis kind is
  // one column under its default strategy (the historical layout); with
  // one, placement-requiring kinds fan out into one column per strategy
  // ("NAME@token"), all tested on the same task sets, while
  // placement-insensitive kinds keep a single bare column.
  const bool placement_axis = !options.placements.empty();
  const std::vector<PlacementKind> placements =
      placement_axis ? options.placements
                     : std::vector<PlacementKind>{PlacementKind::kWfd};
  // Optimizer columns: one per placement-requiring analysis, after its
  // strategy columns.  The seed pool is always every built-in strategy —
  // independent of the placement axis — so the column is never worse than
  // any strategy column a sweep could have run.
  const bool optimize = options.optimize_evals > 0;
  const std::string opt_token =
      "opt" + std::to_string(options.optimize_evals);
  struct Column {
    AnalysisKind kind;
    const PlacementStrategy* strategy;  // nullptr = placement-insensitive
    std::string name;                   // display (decorated) name
    bool optimize = false;              // partition-search column
  };
  std::vector<Column> columns;
  SweepResult result;
  // A sweep of only placement-insensitive analyses has nothing to
  // optimize; opt_active keeps the reports free of empty opt scaffolding.
  bool have_opt_column = false;
  for (AnalysisKind k : kinds) {
    const SchedAnalysis analysis(k, options.analysis);
    const std::string bare = analysis.name();
    if (analysis.placement() == ResourcePlacement::kNone) {
      columns.push_back({k, nullptr, bare, false});
      result.column_analysis.push_back(bare);
      result.column_placement.push_back("");
      result.column_opt.push_back(0);
      continue;
    }
    for (PlacementKind p : placements) {
      const PlacementStrategy& strategy = placement_strategy(p);
      columns.push_back(
          {k, &strategy,
           placement_axis ? bare + "@" + strategy.name() : bare, false});
      result.column_analysis.push_back(bare);
      result.column_placement.push_back(strategy.name());
      result.column_opt.push_back(0);
    }
    if (optimize) {
      columns.push_back({k, nullptr, bare + "@" + opt_token, true});
      result.column_analysis.push_back(bare);
      result.column_placement.push_back(opt_token);
      result.column_opt.push_back(1);
      have_opt_column = true;
    }
  }
  const std::size_t n_acol = columns.size();
  // Analytical columns first, then the trailing "sim" observation column.
  const std::size_t n_cols = n_acol + (sim_on ? 1 : 0);

  const bool opt_active = have_opt_column;
  result.curves.resize(n_scen);
  result.placement_axis = placement_axis;
  result.optimize_evals = opt_active ? options.optimize_evals : 0;
  result.sim_enabled = sim_on;
  result.validated = validate;
  const std::vector<PlacementKind> opt_seeds =
      opt_active ? all_placement_kinds() : std::vector<PlacementKind>();

  // Which simulator protocol (if any) faithfully executes each column.
  std::vector<std::optional<SimProtocol>> protocols(n_acol);
  if (validate) {
    for (std::size_t a = 0; a < n_acol; ++a)
      protocols[a] = sim_protocol_for(columns[a].kind);
    result.validation.analyses.resize(n_acol);
    for (std::size_t a = 0; a < n_acol; ++a) {
      result.validation.analyses[a].name = columns[a].name;
      result.validation.analyses[a].comparable = protocols[a].has_value();
    }
  }

  // Per-scenario curve skeletons and item-index offsets.  Scenarios may
  // have different utilization grids (the paper grid depends on m), so the
  // flat item space is laid out scenario by scenario.
  std::vector<std::size_t> offset(n_scen + 1, 0);
  for (std::size_t s = 0; s < n_scen; ++s) {
    AcceptanceCurve& curve = result.curves[s];
    curve.scenario = scenarios[s];
    if (options.norm_utilizations.empty()) {
      curve.utilization = utilization_grid(scenarios[s]);
    } else {
      for (double nu : options.norm_utilizations)
        curve.utilization.push_back(nu * scenarios[s].m);
    }
    for (const Column& c : columns) curve.names.push_back(c.name);
    if (sim_on) curve.names.push_back(kSimColumnName);
    const std::size_t points = curve.utilization.size();
    curve.accepted.assign(n_cols, std::vector<std::int64_t>(points, 0));
    curve.samples.assign(points, 0);
    offset[s + 1] = offset[s] + points * samples;
  }
  const std::size_t total_items = offset[n_scen];
  if (sim_on) {
    result.sim_stats.resize(n_scen);
    for (std::size_t s = 0; s < n_scen; ++s)
      result.sim_stats[s].resize(result.curves[s].utilization.size());
  }
  if (validate) {
    result.validation_points.resize(n_scen);
    for (std::size_t s = 0; s < n_scen; ++s)
      result.validation_points[s].assign(
          n_acol, std::vector<ValidationPointStats>(
                      result.curves[s].utilization.size()));
  }
  if (opt_active) {
    result.opt_stats.resize(n_scen);
    for (std::size_t s = 0; s < n_scen; ++s)
      result.opt_stats[s].assign(
          n_acol,
          std::vector<OptPointStats>(result.curves[s].utilization.size()));
  }

  const int threads =
      options.threads > 0
          ? options.threads
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // Work items: one per (scenario, point, sample), running every column.
  std::atomic<std::size_t> next{0};
  std::vector<std::atomic<std::size_t>> remaining(n_scen);
  for (std::size_t s = 0; s < n_scen; ++s)
    remaining[s].store(offset[s + 1] - offset[s]);
  std::size_t scenarios_done = 0;  // guarded by progress_mutex
  std::mutex merge_mutex;
  std::mutex progress_mutex;

  std::vector<std::uint64_t> seeds(n_scen);
  for (std::size_t s = 0; s < n_scen; ++s)
    seeds[s] = scenario_seed(options.seed, s);

  // Every worker accumulates its share in a copy of the zeroed result and
  // folds it into `result` once, under the merge mutex.
  const SweepResult skeleton = result;
  auto worker = [&]() {
    std::vector<SchedAnalysis> analyses;  // one per column
    for (const Column& c : columns)
      analyses.emplace_back(c.kind, options.analysis);
    SweepResult share = skeleton;

    for (;;) {
      const std::size_t item = next.fetch_add(1);
      if (item >= total_items) break;
      const std::size_t s =
          static_cast<std::size_t>(
              std::upper_bound(offset.begin(), offset.end(), item) -
              offset.begin()) -
          1;
      const std::size_t within = item - offset[s];
      const std::size_t point = within / samples;
      const std::size_t sample = within % samples;
      AcceptanceCurve& curve = share.curves[s];

      GenParams params;
      params.scenario = scenarios[s];
      params.total_utilization = curve.utilization[point];
      params.light_tasks = options.light_tasks;
      // Deterministic sub-stream per (scenario, point, sample): thread
      // assignment cannot change what any sample sees.
      Rng rng = Rng(seeds[s]).fork((point << 20) ^ sample);
      const auto ts = generate_taskset(rng, params, &share.gen_stats);
      if (ts) {
        ++curve.samples[point];
        // One analysis session per generated task set, shared by every
        // analysis kind: partition-independent work (path signatures,
        // priority order) is computed once for the paired comparison.
        AnalysisSession session(*ts);
        for (std::size_t a = 0; a < n_acol; ++a) {
          PartitionOutcome outcome;
          if (columns[a].optimize) {
            // The anytime partition search, on its own deterministic
            // sub-stream per (scenario, point, sample, column).  The
            // seed phase re-runs Algorithm 1 per strategy even when a
            // placement axis just computed some of those outcomes for
            // this sample: the seed pool is always all strategies while
            // the axis may be any subset, and the session's placement
            // memos already absorb the expensive placement work — only
            // the oracle rounds repeat, which keeps the columns
            // independent instead of threading outcomes between them.
            OptOptions opt_options;
            opt_options.max_evals = options.optimize_evals;
            const auto oracle = analyses[a].prepare(session);
            OptimizeOutcome opt_out = optimize_partition(
                session, scenarios[s].m, *oracle, opt_seeds,
                rng.fork(kOptimizeSalt + a), opt_options);
            OptPointStats& op = share.opt_stats[s][a][point];
            op.seed_accepts += opt_out.seed_schedulable ? 1 : 0;
            op.search_accepts += opt_out.search_accepted ? 1 : 0;
            op.evals += opt_out.stats.evals;
            op.proposals += opt_out.stats.proposals;
            op.invalid_moves += opt_out.stats.invalid_moves;
            outcome = std::move(opt_out.outcome);
          } else {
            outcome =
                analyses[a].test(session, scenarios[s].m, columns[a].strategy);
          }
          if (!outcome.schedulable) continue;
          ++curve.accepted[a][point];
          if (!validate || !protocols[a]) continue;
          // Cross-check: execute this accept on its own partition under
          // the protocol the analysis models.  Fork order is fixed, so
          // the checked behaviour is a pure function of the coordinates.
          Rng check_rng = rng.fork(kValidateSalt + a);
          const SimConfig cfg = sample_sim_config(sim_opts, *ts, check_rng);
          const CrossCheckResult cc =
              cross_check_accept(*ts, outcome, *protocols[a], cfg);
          AnalysisValidation& av = share.validation.analyses[a];
          ValidationPointStats& vp = share.validation_points[s][a][point];
          ++av.accepts_checked;
          ++vp.checked;
          av.invariant_violations += cc.verdict.invariant_violations;
          for (const auto& [observed, bound] : cc.ratios) {
            av.gap.add(observed, bound);
            vp.add_ratio(observed, bound);
          }
          if (cc.unsound) {
            ++av.unsound_accepts;
            ++vp.unsound;
            UnsoundAccept f;
            f.scenario = s;
            f.point = point;
            f.sample = sample;
            f.analysis = av.name;
            f.deadline_misses = cc.verdict.deadline_misses;
            f.drained = cc.verdict.drained;
            f.worst_task = cc.worst_task;
            f.observed = cc.worst_observed;
            f.bound = cc.worst_bound;
            share.validation.failures.push_back(std::move(f));
          }
        }
        if (sim_on) {
          // The trailing "sim" column: observed schedulability on the
          // analysis-independent baseline partition under DPCP-p.
          SimPointStats& sp = share.sim_stats[s][point];
          const auto part = baseline_partition(*ts, scenarios[s].m);
          if (!part) {
            ++sp.unpartitionable;
          } else {
            Rng sim_rng = rng.fork(kSimColumnSalt);
            SimConfig cfg = sample_sim_config(sim_opts, *ts, sim_rng);
            cfg.protocol = SimProtocol::kDpcpP;
            const SimResult res = simulate(*ts, *part, cfg);
            const SimVerdict v = classify_sim(res);
            ++sp.simulated;
            sp.deadline_misses += v.deadline_misses;
            if (!v.drained) ++sp.unfinished;
            sp.invariant_violations += v.invariant_violations;
            for (const auto& t : res.task)
              sp.max_response = std::max(sp.max_response, t.max_response);
            if (v.schedulable) ++curve.accepted[n_acol][point];
          }
        }
      }
      if (remaining[s].fetch_sub(1) == 1 && options.progress) {
        // Count and report under one lock so `done` values reach the
        // callback in increasing order.
        std::lock_guard<std::mutex> lock(progress_mutex);
        options.progress(++scenarios_done, n_scen);
      }
    }

    std::lock_guard<std::mutex> lock(merge_mutex);
    merge_share(result, share);
  };
  // Output is thread-count independent, so workers beyond the number of
  // work items would only cost spawn time.
  run_workers(std::min(static_cast<std::size_t>(threads), total_items),
              worker);

  // Failures were appended in worker-merge order; sort them into the
  // canonical (scenario, point, sample, analysis) order so the report is
  // identical at any thread count.
  std::sort(result.validation.failures.begin(),
            result.validation.failures.end(),
            [](const UnsoundAccept& a, const UnsoundAccept& b) {
              return std::tie(a.scenario, a.point, a.sample, a.analysis) <
                     std::tie(b.scenario, b.point, b.sample, b.analysis);
            });
  return result;
}

std::string SweepSummary::to_text() const {
  Table table({"analysis", "accepted", "total", "ratio", "scen-ratio mean",
               "min", "max"});
  for (std::size_t a = 0; a < names.size(); ++a) {
    table.add_row({names[a],
                   strfmt("%lld", static_cast<long long>(totals[a].accepted())),
                   strfmt("%lld", static_cast<long long>(totals[a].total())),
                   strfmt("%.3f", totals[a].ratio()),
                   strfmt("%.3f", scenario_ratio[a].mean()),
                   strfmt("%.3f", scenario_ratio[a].min()),
                   strfmt("%.3f", scenario_ratio[a].max())});
  }
  std::string out = table.to_text();
  if (gen_stats.failures || gen_stats.rfs.fallbacks)
    out += strfmt("generator fallbacks: %lld, failures: %lld\n",
                  static_cast<long long>(gen_stats.rfs.fallbacks),
                  static_cast<long long>(gen_stats.failures));
  return out;
}

SweepSummary summarize(const SweepResult& result) {
  SweepSummary summary;
  if (result.curves.empty()) return summary;
  summary.names = result.curves.front().names;
  summary.totals.resize(summary.names.size());
  summary.scenario_ratio.resize(summary.names.size());
  summary.gen_stats = result.gen_stats;
  for (const AcceptanceCurve& curve : result.curves) {
    for (std::size_t a = 0; a < summary.names.size(); ++a) {
      RunningStat per_scenario;
      for (std::size_t p = 0; p < curve.utilization.size(); ++p) {
        summary.totals[a].add_many(curve.accepted[a][p], curve.samples[p]);
        per_scenario.add(curve.ratio(a, p));
      }
      summary.scenario_ratio[a].add(per_scenario.mean());
    }
  }
  return summary;
}

std::function<void(std::size_t, std::size_t)> stderr_progress(
    std::size_t every) {
  return [every](std::size_t done, std::size_t total) {
    if (every <= 1 || done % every == 0 || done == total)
      std::fprintf(stderr, "  ... %zu/%zu scenarios done\n", done, total);
  };
}

}  // namespace dpcp
