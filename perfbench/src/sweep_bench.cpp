// Sweep workloads: the paper's acceptance-ratio sweep (sweep-paper) and
// the simulation-backed validation sweep (sweep-validate).
//
// A request is one scenario's sweep: run_sweep() over that scenario at the
// engine seed it has inside a first:K sweep, plus the CSV and JSON report
// writers.  Requests cycle through the K scenarios; cycle c uses run seed
// sub_seed(seed, c), so cycle 0 reproduces `sweep_tool --scenarios
// first:K --seed <seed>` scenario by scenario.
//
// The traced run re-issues every request through the per-layer public
// calls the engine makes — generate_taskset, AnalysisSession, prepare,
// partition_and_analyze with a forwarding oracle, simulate, classify_sim,
// the report writers — under spans, assembles the same SweepResult, and
// must produce byte-identical reports.
#include <memory>
#include <optional>
#include <tuple>

#include "core/dpcp.hpp"
#include "ledger.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dpcp;

// Salts of the engine's simulation sub-streams (src/exp/engine.cpp).  The
// replay forks the same streams; a drift shows up as a digest mismatch.
constexpr std::uint64_t kSimColumnSalt = 0x53494D00ull;
constexpr std::uint64_t kValidateSalt = 0x56414C00ull;

/// Setup repetitions per run; setup_s reports their median.
constexpr int kSetupRepeats = 9;

struct SweepSpec {
  std::string scenarios;  // scenarios_from_spec() token
  int samples;            // task sets per utilization point per request
  bool validate;          // --sim --validate
};

SweepSpec spec_for(const std::string& workload) {
  if (workload == "sweep-validate") return {"first:4", 4, true};
  return {"first:8", 10, false};
}

int kind_index(AnalysisKind kind) {
  const auto all = all_analysis_kinds();
  for (std::size_t k = 0; k < all.size(); ++k)
    if (all[k] == kind) return static_cast<int>(k);
  return 0;
}

/// What one request produced, from either path.
struct RequestOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t attempted = 0;  // task sets the grid asked for
  std::int64_t tasksets = 0;   // task sets generated and tested
  std::int64_t gen_failures = 0;
  std::int64_t unsound = 0;
  std::int64_t invariant_violations = 0;
  std::vector<std::int64_t> column_totals;
  std::string digest;
};

RequestOutcome summarize_result(const SweepResult& res, const std::string& csv,
                                const std::string& json) {
  RequestOutcome out;
  Digest d;
  d.add(csv);
  d.add(json);
  out.digest = d.hex();
  for (const AcceptanceCurve& curve : res.curves) {
    out.column_totals.assign(curve.names.size(), 0);
    for (std::size_t p = 0; p < curve.utilization.size(); ++p) {
      out.tasksets += curve.samples[p];
      for (std::size_t a = 0; a < curve.names.size(); ++a)
        out.column_totals[a] += curve.accepted[a][p];
    }
  }
  out.gen_failures = res.gen_stats.failures;
  out.unsound = static_cast<std::int64_t>(res.validation.failures.size());
  for (const AnalysisValidation& av : res.validation.analyses)
    out.invariant_violations += av.invariant_violations;
  for (const auto& per_point : res.sim_stats)
    for (const SimPointStats& sp : per_point)
      out.invariant_violations += sp.invariant_violations;
  return out;
}

/// The timed path: the top-level API and the report writers only.
RequestOutcome timed_request(const Scenario& scenario,
                             const std::vector<AnalysisKind>& kinds,
                             const SweepOptions& options) {
  const CpuClock::time_point c0 = CpuClock::now();
  const Clock::time_point t0 = Clock::now();
  const SweepResult res = run_sweep({scenario}, kinds, options);
  const std::string csv = sweep_to_csv(res);
  const std::string json = sweep_to_json(res);
  const double wall = seconds_since(t0);
  const double cpu = seconds_since(c0);
  RequestOutcome out = summarize_result(res, csv, json);
  out.wall_s = wall;
  out.cpu_s = cpu;
  out.attempted = static_cast<std::int64_t>(utilization_grid(scenario).size()) *
                  options.samples_per_point;
  return out;
}

/// Forwards Algorithm 1's oracle traffic to a prepared analysis under
/// bind/wcrt spans.  For DPCP-p-EP it also enumerates a task's paths
/// (AnalysisSession::paths, under a model.paths span) right before the
/// first wcrt() call that needs them — the moment the EP oracle would
/// enumerate them itself — so the replay does exactly the engine's work
/// and the oracle's own call then hits the session cache.
class TracedOracle final : public WcrtOracle {
 public:
  TracedOracle(PreparedAnalysis& inner, Tracer& tracer, int wcrt_kind,
               int bind_kind, int paths_kind, AnalysisSession* ep_session,
               std::int64_t max_paths, std::vector<char>* enumerated,
               LayerCounters* counters)
      : inner_(inner), tracer_(tracer), wcrt_kind_(wcrt_kind),
        bind_kind_(bind_kind), paths_kind_(paths_kind),
        ep_session_(ep_session), max_paths_(max_paths),
        enumerated_(enumerated), counters_(counters) {}

  void bind(const Partition& part) override {
    WcrtOracle::bind(part);
    Tracer::Span span(tracer_, bind_kind_);
    inner_.bind(part);
  }
  bool task_unchanged(int task) const override {
    return inner_.task_unchanged(task);
  }
  std::optional<Time> wcrt(int task,
                           const std::vector<Time>& hint) override {
    Tracer::Span span(tracer_, wcrt_kind_);
    const std::size_t ut = static_cast<std::size_t>(task);
    if (ep_session_ && !(*enumerated_)[ut] &&
        !partition().task_shares_processor(task)) {
      (*enumerated_)[ut] = 1;
      Tracer::Span paths(tracer_, paths_kind_);
      counters_->paths_visited +=
          ep_session_->paths(task, max_paths_).paths_visited;
    }
    return inner_.wcrt(task, hint);
  }

 private:
  PreparedAnalysis& inner_;
  Tracer& tracer_;
  const int wcrt_kind_, bind_kind_, paths_kind_;
  AnalysisSession* const ep_session_;
  const std::int64_t max_paths_;
  std::vector<char>* const enumerated_;
  LayerCounters* const counters_;
};

struct SpanKinds {
  int request, gen, paths, prepare, partition, sim, validate, report;
  int wcrt[5], bind[5];

  explicit SpanKinds(Tracer& t)
      : request(t.kind(kSpanRequest)), gen(t.kind(kSpanGen)),
        paths(t.kind(kSpanPaths)), prepare(t.kind(kSpanPrepare)),
        partition(t.kind(kSpanPartition)), sim(t.kind(kSpanSim)),
        validate(t.kind(kSpanValidate)), report(t.kind(kSpanReport)) {
    for (int k = 0; k < 5; ++k) {
      wcrt[k] = t.kind(wcrt_span(k));
      bind[k] = t.kind(bind_span(k));
    }
  }
};

/// cross_check_accept() after its simulate() call: compares the observed
/// responses of `res` with the accept's WCRT bounds.  Kept apart so the
/// simulator (sim layer) and the comparison (exp layer) are timed
/// separately; the report digest check catches any drift from the library.
CrossCheckResult compare_accept(const TaskSet& ts,
                                const PartitionOutcome& outcome,
                                const SimResult& res) {
  CrossCheckResult cc;
  cc.verdict = classify_sim(res);
  for (int i = 0; i < ts.size(); ++i) {
    const auto& st = res.task[static_cast<std::size_t>(i)];
    const Time bound = outcome.wcrt[static_cast<std::size_t>(i)];
    if (st.jobs_completed == 0 || bound >= kTimeInfinity || bound <= 0)
      continue;
    cc.ratios.emplace_back(st.max_response, bound);
    if (cc.worst_task < 0 ||
        static_cast<__int128>(st.max_response) * cc.worst_bound >
            static_cast<__int128>(cc.worst_observed) * bound) {
      cc.worst_task = i;
      cc.worst_observed = st.max_response;
      cc.worst_bound = bound;
    }
  }
  const bool bound_exceeded =
      cc.worst_task >= 0 && cc.worst_observed > cc.worst_bound;
  cc.unsound = cc.verdict.deadline_misses > 0 || !cc.verdict.drained ||
               bound_exceeded;
  return cc;
}

/// The traced path: one request re-issued layer by layer.
RequestOutcome traced_request(const Scenario& scenario,
                              const std::vector<AnalysisKind>& kinds,
                              const SweepOptions& options, Tracer& t,
                              const SpanKinds& k, LayerCounters* counters,
                              RunReport* report) {
  const Clock::time_point t0 = Clock::now();
  Tracer::Span root(t, k.request);
  const std::size_t n_acol = kinds.size();
  SimBackendOptions sim_opts = options.sim;
  sim_opts.enabled = sim_opts.enabled || sim_opts.validate;
  const bool sim_on = sim_opts.enabled;
  const bool validate = sim_opts.validate;
  const PlacementStrategy& wfd = placement_strategy(PlacementKind::kWfd);

  std::vector<std::unique_ptr<SchedAnalysis>> analyses;
  std::vector<std::optional<SimProtocol>> protocols(n_acol);
  SweepResult res;
  res.curves.resize(1);
  AcceptanceCurve& curve = res.curves[0];
  curve.scenario = scenario;
  curve.utilization = utilization_grid(scenario);
  const std::size_t points = curve.utilization.size();
  for (std::size_t a = 0; a < n_acol; ++a) {
    analyses.push_back(make_analysis(kinds[a], options.analysis));
    const std::string name = analyses[a]->name();
    curve.names.push_back(name);
    res.column_analysis.push_back(name);
    res.column_placement.push_back(
        analyses[a]->placement() == ResourcePlacement::kNone ? ""
                                                             : wfd.name());
    res.column_opt.push_back(0);
    if (validate) protocols[a] = sim_protocol_for(kinds[a]);
  }
  if (sim_on) curve.names.push_back(kSimColumnName);
  const std::size_t n_cols = curve.names.size();
  curve.accepted.assign(n_cols, std::vector<std::int64_t>(points, 0));
  curve.samples.assign(points, 0);
  res.sim_enabled = sim_on;
  res.validated = validate;
  if (sim_on) res.sim_stats.assign(1, std::vector<SimPointStats>(points));
  if (validate) {
    res.validation.analyses.resize(n_acol);
    for (std::size_t a = 0; a < n_acol; ++a) {
      res.validation.analyses[a].name = curve.names[a];
      res.validation.analyses[a].comparable = protocols[a].has_value();
    }
    res.validation_points.assign(
        1, std::vector<std::vector<ValidationPointStats>>(
               n_acol, std::vector<ValidationPointStats>(points)));
  }

  const Rng base(scenario_seed(options.seed, 0));
  const std::size_t samples =
      static_cast<std::size_t>(options.samples_per_point);
  for (std::size_t point = 0; point < points; ++point) {
    for (std::size_t sample = 0; sample < samples; ++sample) {
      GenParams params;
      params.scenario = scenario;
      params.total_utilization = curve.utilization[point];
      params.light_tasks = options.light_tasks;
      Rng rng = base.fork((point << 20) ^ sample);
      std::optional<TaskSet> ts;
      {
        Tracer::Span span(t, k.gen);
        ts = generate_taskset(rng, params, &res.gen_stats);
      }
      if (!ts) continue;
      counters->gen_tasks_kept += ts->size();
      ++curve.samples[point];

      std::optional<AnalysisSession> session;
      {
        Tracer::Span span(t, k.prepare);
        session.emplace(*ts);
      }
      std::vector<char> enumerated(static_cast<std::size_t>(ts->size()), 0);
      for (std::size_t a = 0; a < n_acol; ++a) {
        const int ki = kind_index(kinds[a]);
        PartitionOptions po;
        std::unique_ptr<PreparedAnalysis> prepared;
        {
          Tracer::Span span(t, k.prepare);
          po.placement = analyses[a]->placement();
          po.priority_order = &session->priority_order();
          if (po.placement != ResourcePlacement::kNone) {
            po.strategy = &wfd;
            po.placement_cache = &session->placement_cache(wfd.cache_key());
          }
          prepared = analyses[a]->prepare(*session);
        }
        const bool ep = kinds[a] == AnalysisKind::kDpcpPEp;
        TracedOracle oracle(*prepared, t, k.wcrt[ki], k.bind[ki], k.paths,
                            ep ? &*session : nullptr,
                            options.analysis.max_paths, &enumerated,
                            counters);
        PartitionOutcome outcome;
        {
          Tracer::Span span(t, k.partition);
          outcome = partition_and_analyze(*ts, scenario.m, oracle, po);
        }
        counters->rounds += outcome.rounds;
        counters->wcrt_calls[ki] += outcome.oracle_calls;
        counters->binds[ki] += prepared->binds();
        counters->diffs_unchanged += prepared->diffs_unchanged();
        counters->diffs_invalidated += prepared->diffs_invalidated();
        if (!outcome.schedulable) continue;
        ++curve.accepted[a][point];
        if (!validate || !protocols[a]) continue;

        Rng check_rng = rng.fork(kValidateSalt + a);
        SimResult sim_res;
        {
          Tracer::Span span(t, k.sim);
          SimConfig cfg = sample_sim_config(sim_opts, *ts, check_rng);
          cfg.protocol = *protocols[a];
          sim_res = simulate(*ts, outcome.partition, cfg);
        }
        counters->sim_events += sim_res.events_processed;
        Tracer::Span span(t, k.validate);
        const CrossCheckResult cc = compare_accept(*ts, outcome, sim_res);
        AnalysisValidation& av = res.validation.analyses[a];
        ValidationPointStats& vp = res.validation_points[0][a][point];
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
          f.point = point;
          f.sample = sample;
          f.analysis = av.name;
          f.deadline_misses = cc.verdict.deadline_misses;
          f.drained = cc.verdict.drained;
          f.worst_task = cc.worst_task;
          f.observed = cc.worst_observed;
          f.bound = cc.worst_bound;
          res.validation.failures.push_back(std::move(f));
        }
      }
      std::int64_t enumerations = 0;
      for (char e : enumerated) enumerations += e;
      if (session->path_enumerations() != enumerations)
        report->fail_check(
            "traced replay predicted " + std::to_string(enumerations) +
            " path enumerations, the EP oracle performed " +
            std::to_string(session->path_enumerations()));

      if (!sim_on) continue;
      SimPointStats& sp = res.sim_stats[0][point];
      std::optional<Partition> part;
      {
        Tracer::Span span(t, k.partition);
        part = baseline_partition(*ts, scenario.m);
      }
      if (!part) {
        ++sp.unpartitionable;
        continue;
      }
      SimResult sim_res;
      {
        Tracer::Span span(t, k.sim);
        Rng sim_rng = rng.fork(kSimColumnSalt);
        SimConfig cfg = sample_sim_config(sim_opts, *ts, sim_rng);
        cfg.protocol = SimProtocol::kDpcpP;
        sim_res = simulate(*ts, *part, cfg);
      }
      counters->sim_events += sim_res.events_processed;
      Tracer::Span span(t, k.validate);
      const SimVerdict v = classify_sim(sim_res);
      ++sp.simulated;
      sp.deadline_misses += v.deadline_misses;
      if (!v.drained) ++sp.unfinished;
      sp.invariant_violations += v.invariant_violations;
      for (const auto& st : sim_res.task)
        sp.max_response = std::max(sp.max_response, st.max_response);
      if (v.schedulable) ++curve.accepted[n_acol][point];
    }
  }
  std::sort(res.validation.failures.begin(), res.validation.failures.end(),
            [](const UnsoundAccept& a, const UnsoundAccept& b) {
              return std::tie(a.scenario, a.point, a.sample, a.analysis) <
                     std::tie(b.scenario, b.point, b.sample, b.analysis);
            });
  counters->gen_task_retries += res.gen_stats.task_retries;

  std::string csv, json;
  {
    Tracer::Span span(t, k.report);
    csv = sweep_to_csv(res);
    json = sweep_to_json(res);
  }
  RequestOutcome out = summarize_result(res, csv, json);
  out.wall_s = seconds_since(t0);
  out.attempted = static_cast<std::int64_t>(points * samples);
  return out;
}

/// Compares the traced replay of a request with its timed run.
void check_replay(const RequestOutcome& timed, const RequestOutcome& traced,
                  std::size_t request, RunReport* report) {
  if (timed.column_totals != traced.column_totals)
    report->fail_check("request " + std::to_string(request) +
                       ": per-column accept totals differ between run_sweep "
                       "and the traced replay");
  if (timed.digest != traced.digest)
    report->fail_check("request " + std::to_string(request) +
                       ": report digest " + traced.digest +
                       " of the traced replay != " + timed.digest);
}

}  // namespace

bool sweep_setup(const RunConfig& config) {
  const SweepSpec spec = spec_for(config.workload);
  const auto scenarios = scenarios_from_spec(spec.scenarios);
  if (!scenarios || scenarios->empty()) return false;
  std::vector<std::unique_ptr<SchedAnalysis>> analyses;
  for (AnalysisKind kind : all_analysis_kinds())
    analyses.push_back(make_analysis(kind));
  GenParams params;
  params.scenario = scenarios->front();
  params.total_utilization = utilization_grid(params.scenario).front();
  Rng rng = Rng(scenario_seed(config.seed, 0)).fork(0);
  return generate_taskset(rng, params).has_value();
}

RunReport run_sweep_workload(const RunConfig& config) {
  RunReport report;
  const SweepSpec spec = spec_for(config.workload);
  const std::vector<AnalysisKind> kinds = all_analysis_kinds();

  // Set-up: process start to the first generated task set, measured by
  // spawning this binary in probe mode (sweep_setup(), then a ready byte on
  // a pipe).  Repeated; setup_s is the median.
  CpuRotation cpus;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cpus.next();
    const double seconds = time_setup_probe(config);
    if (seconds < 0.0)
      report.fail_check("set-up probe failed");
    else
      setups.push_back(seconds);
  }
  const std::vector<Scenario> scenarios =
      scenarios_from_spec(spec.scenarios).value();

  SweepOptions options;
  options.samples_per_point = spec.samples;
  options.threads = 1;
  options.sim.validate = spec.validate;
  const std::size_t n_scen = scenarios.size();

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<SpanKinds> spans;
  LayerCounters counters;
  RequestOutcome first;
  if (config.trace) {
    tracer = std::make_unique<Tracer>();
    spans = std::make_unique<SpanKinds>(*tracer);
  }

  std::vector<double> latencies_ms, rss_samples;
  std::vector<double> cycle_rates;
  double cycle_cpu = 0.0;
  std::int64_t cycle_tasksets = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0;; ++r) {
    const std::size_t i = r % n_scen;
    if (i == 0 && r > 0 && seconds_since(start) >= config.seconds) break;
    options.seed = scenario_seed(sub_seed(config.seed, r / n_scen), i);
    cpus.next();
    const RequestOutcome timed = timed_request(scenarios[i], kinds, options);
    report.attempted += timed.attempted;
    report.failed += timed.gen_failures + timed.unsound;
    if (timed.unsound > 0 || timed.invariant_violations > 0)
      report.fail_check("request " + std::to_string(r) + ": " +
                        std::to_string(timed.unsound) + " unsound accepts, " +
                        std::to_string(timed.invariant_violations) +
                        " invariant violations");
    if (r == 0 && !config.expect_digest.empty() &&
        timed.digest != config.expect_digest)
      report.fail_check("request 0 digest " + timed.digest +
                        " != pinned " + config.expect_digest);
    if (r == 0) first = timed;
    latencies_ms.push_back(timed.cpu_s * 1e3);
    rss_samples.push_back(rss_mb());
    cycle_cpu += timed.cpu_s;
    cycle_tasksets += timed.tasksets;
    if (i + 1 == n_scen) {
      cycle_rates.push_back(static_cast<double>(cycle_tasksets) / cycle_cpu);
      cycle_cpu = 0.0;
      cycle_tasksets = 0;
    }

    if (config.trace) {
      tracer->set_request(static_cast<std::int64_t>(r));
      const RequestOutcome traced = traced_request(
          scenarios[i], kinds, options, *tracer, *spans, &counters, &report);
      counters.untraced_s += timed.wall_s;
      check_replay(timed, traced, r, &report);
    }
  }
  std::fprintf(stderr, "request 0 digest %s\n", first.digest.c_str());

  if (config.trace) {
    add_layer_metrics(config.workload, *tracer, counters, &report);
    if (!config.trace_out.empty() &&
        !tracer->write_chrome_trace(config.trace_out))
      std::fprintf(stderr, "warning: cannot write %s\n",
                   config.trace_out.c_str());
    return report;
  }

  const double p90 = supported_percentile(latencies_ms.size(), 90.0);
  std::fprintf(stderr,
               "%s: %zu requests (%zu cycles of %zu scenarios x %d samples), "
               "latency p50/p%.0f over %zu samples\n",
               config.workload.c_str(), latencies_ms.size(),
               cycle_rates.size(), n_scen, spec.samples, p90,
               latencies_ms.size());
  std::fprintf(stderr, "cycle rates p25 %.1f p50 %.1f p75 %.1f /s\n",
               percentile(cycle_rates, 25.0), percentile(cycle_rates, 50.0),
               percentile(cycle_rates, 75.0));
  report.add("setup_s", median(setups), "s");
  report.add("throughput_per_s", median(cycle_rates), "1/s");
  report.add("latency_p50_ms", percentile(latencies_ms, 50.0), "ms");
  report.add("latency_p90_ms", percentile(latencies_ms, p90), "ms");
  std::fprintf(stderr, "resident memory: median after each request %.3f MiB, "
               "peak %.3f MiB\n", median(rss_samples), peak_rss_mb());

  // Untraced runs replay request 0 once, after the measured time, so
  // every run cross-checks the two paths.
  Tracer check_tracer(0);
  LayerCounters check_counters;
  options.seed = scenario_seed(config.seed, 0);
  const RequestOutcome traced =
      traced_request(scenarios[0], kinds, options, check_tracer,
                     SpanKinds(check_tracer), &check_counters, &report);
  check_replay(first, traced, 0, &report);
  return report;
}

}  // namespace perfbench
