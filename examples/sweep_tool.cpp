// Unified sweep CLI over the parallel experiment engine (src/exp/).
//
// Runs any scenario set through any analysis set and renders/exports the
// results; every experiment of the paper's Sec. VII is one invocation:
//
//   sweep_tool --scenarios fig2 --samples 100          # Fig. 2 curves
//   sweep_tool --scenarios all --analyses locking --samples 10 --tables
//                                                      # Tables 2 and 3
//   sweep_tool --scenarios a --light 2 --utils 0.2,0.3,0.4,0.5,0.6
//                                                      # Sec. VI extension
//   sweep_tool --scenarios first:4 --sim --validate    # simulation-backed
//                                                      # soundness sweep
//   sweep_tool --scenarios first:4 --optimize 200      # anytime partition
//                                                      # search columns
//   sweep_tool --scenarios all --csv out.csv --json out.json
//
// With --validate, every analysis accept is re-executed on the
// discrete-event simulator; the tool exits 1 if any accept is refuted
// (an unsound analysis or simulator bug — never ignorable).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>

#include "core/dpcp.hpp"
#include "obs/chrome_trace.hpp"
#include "util/parse.hpp"

using namespace dpcp;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "Usage: %s [options]\n"
      "  --scenarios SPEC  all | fig2 | a..d | first:K, comma-combinable\n"
      "                    (default: fig2)\n"
      "  --analyses LIST   comma list of ep,en,spin,lpp,fed, or\n"
      "                    paper (all five) | locking (no fed)\n"
      "                    (default: paper)\n"
      "  --placement LIST  placement-strategy axis: comma list of\n"
      "                    wfd,ffd,bfd,sync, or all; every\n"
      "                    placement-requiring analysis runs once per\n"
      "                    strategy on the same task sets, as columns\n"
      "                    NAME@strategy (default: wfd only, plain names)\n"
      "  --optimize EVALS  anytime partition-search column: every\n"
      "                    placement-requiring analysis gains a\n"
      "                    NAME@opt<EVALS> column seeding Algorithm 1 from\n"
      "                    every strategy, then local-searching rejected\n"
      "                    partitions with an EVALS evaluation budget\n"
      "  --samples N       task sets per utilization point (default: 100)\n"
      "  --seed S          root seed of the sweep, uint64 (default: 42)\n"
      "  --threads T       worker threads, 0 = hardware cores (default: 0)\n"
      "  --light N         extra light tasks per set, Sec. VI (default: 0)\n"
      "  --utils LIST      normalized utilization points, e.g. 0.2,0.4,0.6\n"
      "                    (default: the paper's per-scenario grid)\n"
      "  --max-paths N     EP complete-path budget (default: 100000)\n"
      "  --max-signatures N  EP signature budget before the envelope\n"
      "                    fallback kicks in (default: 20000)\n"
      "  --sim             run the discrete-event simulator on every task\n"
      "                    set; appends a 'sim' observation column\n"
      "  --validate        cross-check every analysis accept against the\n"
      "                    simulator (implies --sim); exit 1 on refutation\n"
      "  --horizon-ms N    simulated release span per task set\n"
      "                    (default: 100)\n"
      "  --sim-mode M      worst | random: worst-case periodic releases or\n"
      "                    jittered arrivals with scaled executions\n"
      "                    (default: worst)\n"
      "  --sim-trace-out PATH  export one simulated task set (first\n"
      "                    scenario, first utilization point, first\n"
      "                    generable sample, DPCP-p on the baseline\n"
      "                    partition) as Chrome trace-event JSON --\n"
      "                    loadable in Perfetto / chrome://tracing;\n"
      "                    deterministic for a given seed\n"
      "  --csv PATH        write long-format CSV\n"
      "  --json PATH       write JSON\n"
      "  --curves          print per-scenario acceptance tables\n"
      "                    (default when <= 8 scenarios)\n"
      "  --tables          print pairwise dominance/outperformance tables\n"
      "  --quiet           suppress progress on stderr\n",
      argv0);
  return 2;
}

bool parse_doubles(const std::string& list, std::vector<double>* out) {
  for (const std::string& token : split(list, ',')) {
    const auto v = parse_double(token);
    if (!v || *v <= 0.0) {
      std::fprintf(stderr, "bad utilization '%s'\n", token.c_str());
      return false;
    }
    out->push_back(*v);
  }
  return !out->empty();
}

/// Exports one simulated task set as Chrome trace-event JSON: the first
/// scenario's first utilization point, at the first sample index that
/// both generates and admits a baseline partition, executed under DPCP-p
/// with trace recording on.  Seeding mirrors the sweep engine
/// (Rng(scenario_seed(seed, 0)).fork(sample)), so the exported trace is
/// a pure function of --seed and the sim knobs.
bool export_sim_trace(const std::string& path, const Scenario& scenario,
                      const SweepOptions& options, std::string* error) {
  const double utilization = options.norm_utilizations.empty()
                                 ? utilization_grid(scenario).front()
                                 : options.norm_utilizations.front() *
                                       scenario.m;
  constexpr int kMaxSampleProbes = 64;
  for (int sample = 0; sample < kMaxSampleProbes; ++sample) {
    GenParams params;
    params.scenario = scenario;
    params.total_utilization = utilization;
    params.light_tasks = options.light_tasks;
    Rng rng = Rng(scenario_seed(options.seed, 0))
                  .fork(static_cast<std::uint64_t>(sample));
    const auto ts = generate_taskset(rng, params);
    if (!ts) continue;
    const auto part = baseline_partition(*ts, scenario.m);
    if (!part) continue;
    Rng sim_rng = rng.fork(7);
    SimConfig cfg = sample_sim_config(options.sim, *ts, sim_rng);
    cfg.protocol = SimProtocol::kDpcpP;
    std::vector<TraceEvent> trace;
    simulate(*ts, *part, cfg, &trace);
    std::ofstream out(path);
    if (!out) {
      *error = "cannot open '" + path + "' for writing";
      return false;
    }
    out << chrome_trace_json(trace);
    return true;
  }
  *error = "no generable+partitionable sample in the first " +
           std::to_string(kMaxSampleProbes) + " probes of scenario " +
           scenario.name();
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_spec = "fig2";
  std::string analysis_list = "paper";
  SweepOptions options;
  std::string csv_path, json_path, sim_trace_path;
  bool want_curves = false, want_tables = false, quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    // Numeric flags parse strictly: "--samples abc" (historically a silent
    // 1-sample sweep via atoi) and out-of-range values are hard errors.
    // The seed is uint64, so its bounds parse unsigned.
    auto number = [&](auto lo, auto hi) {
      const auto v = parse_knob(arg, value(), lo, hi);
      if (!v) std::exit(usage(argv[0]));
      return *v;
    };
    if (arg == "--scenarios") scenario_spec = value();
    else if (arg == "--analyses") analysis_list = value();
    else if (arg == "--placement") {
      // A garbled strategy token is a hard usage error (exit 2), never a
      // silent fall-back to the default placement.
      std::string perror;
      const auto placements = placements_from_spec(value(), &perror);
      if (!placements) {
        std::fprintf(stderr, "--placement: %s\n", perror.c_str());
        return usage(argv[0]);
      }
      options.placements = *placements;
    }
    else if (arg == "--optimize") options.optimize_evals = number(1, 1 << 30);
    else if (arg == "--samples") options.samples_per_point = number(1, 1 << 20);
    else if (arg == "--seed") options.seed = number(std::uint64_t{0}, UINT64_MAX);
    else if (arg == "--threads") options.threads = number(0, 1 << 16);
    else if (arg == "--light") options.light_tasks = number(0, 1 << 20);
    else if (arg == "--utils") { options.norm_utilizations.clear(); if (!parse_doubles(value(), &options.norm_utilizations)) return usage(argv[0]); }
    else if (arg == "--max-paths") options.analysis.max_paths = number(std::int64_t{1}, INT64_MAX);
    else if (arg == "--max-signatures") options.analysis.max_signatures = number(std::int64_t{1}, INT64_MAX);
    else if (arg == "--sim") options.sim.enabled = true;
    else if (arg == "--validate") options.sim.validate = true;
    else if (arg == "--horizon-ms") options.sim.horizon = millis(number(1, 10'000'000));
    else if (arg == "--sim-mode") {
      const std::string mode = value();
      if (mode == "worst") options.sim.mode = SimSweepMode::kWorst;
      else if (mode == "random") options.sim.mode = SimSweepMode::kRandom;
      else { std::fprintf(stderr, "--sim-mode: expected worst|random, got '%s'\n", mode.c_str()); return usage(argv[0]); }
    }
    else if (arg == "--sim-trace-out") sim_trace_path = value();
    else if (arg == "--csv") csv_path = value();
    else if (arg == "--json") json_path = value();
    else if (arg == "--curves") want_curves = true;
    else if (arg == "--tables") want_tables = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") return usage(argv[0]);
    else { std::fprintf(stderr, "unknown option '%s'\n", arg.c_str()); return usage(argv[0]); }
  }

  std::string error;
  const auto scenarios = scenarios_from_spec(scenario_spec, &error);
  if (!scenarios || scenarios->empty()) {
    std::fprintf(stderr, "%s\n", error.empty() ? "no scenarios" : error.c_str());
    return usage(argv[0]);
  }
  const auto parsed_kinds = analyses_from_spec(analysis_list, &error);
  if (!parsed_kinds) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return usage(argv[0]);
  }
  const std::vector<AnalysisKind>& kinds = *parsed_kinds;

  // Optimizer columns exist only for placement-requiring analyses; an
  // --optimize request that cannot take effect must say so instead of
  // silently sweeping without a search.
  bool any_placement_requiring = false;
  for (AnalysisKind k : kinds)
    if (SchedAnalysis(k).placement() != ResourcePlacement::kNone)
      any_placement_requiring = true;
  if (options.optimize_evals > 0 && !any_placement_requiring)
    std::fprintf(stderr,
                 "warning: --optimize has no effect: no selected analysis "
                 "is placement-requiring\n");

  if (!quiet) {
    std::fprintf(stderr, "sweep: %zu scenario(s), %zu analyses, %d samples/point, seed %llu\n",
                 scenarios->size(), kinds.size(), options.samples_per_point,
                 static_cast<unsigned long long>(options.seed));
    if (!options.placements.empty()) {
      std::string axis;
      for (PlacementKind p : options.placements) {
        if (!axis.empty()) axis += ",";
        axis += placement_kind_token(p);
      }
      std::fprintf(stderr, "placement axis: %s\n", axis.c_str());
    }
    if (options.optimize_evals > 0 && any_placement_requiring)
      std::fprintf(stderr,
                   "optimizer: opt@%lld columns (all-strategy seeds + "
                   "budgeted local search)\n",
                   static_cast<long long>(options.optimize_evals));
    if (options.sim.enabled || options.sim.validate)
      std::fprintf(stderr, "sim: horizon %lld ms, %s mode%s\n",
                   static_cast<long long>(options.sim.horizon / kMillisecond),
                   options.sim.mode == SimSweepMode::kWorst ? "worst-case"
                                                            : "randomized",
                   options.sim.validate ? ", cross-checking accepts" : "");
    options.progress = stderr_progress();
  }

  const SweepResult result = run_sweep(*scenarios, kinds, options);

  if (want_curves || (!want_tables && scenarios->size() <= 8)) {
    for (const AcceptanceCurve& curve : result.curves) {
      std::printf("=== %s ===\n", curve.scenario.name().c_str());
      std::fputs(curve.to_table().c_str(), stdout);
      std::printf("\n");
    }
  }
  if (want_tables) {
    const PairwiseStats stats = compute_pairwise(result.curves);
    std::printf("Dominance (out of %d scenarios):\n", stats.scenarios);
    std::fputs(stats.to_table(/*dominance_table=*/true).c_str(), stdout);
    std::printf("\nOutperformance (out of %d scenarios):\n", stats.scenarios);
    std::fputs(stats.to_table(/*dominance_table=*/false).c_str(), stdout);
    std::printf("\n");
  }

  std::printf("Summary over %zu scenario(s):\n", scenarios->size());
  std::fputs(summarize(result).to_text().c_str(), stdout);

  if (result.validated) {
    std::printf("\nValidation (analysis accepts vs. simulated execution):\n");
    std::fputs(result.validation.to_text().c_str(), stdout);
  }

  if (!csv_path.empty()) {
    if (!write_sweep_csv(csv_path, result, &error)) {
      std::fprintf(stderr, "csv: %s\n", error.c_str());
      return 1;
    }
    if (!quiet) std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    if (!write_sweep_json(json_path, result, &error)) {
      std::fprintf(stderr, "json: %s\n", error.c_str());
      return 1;
    }
    if (!quiet) std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  if (!sim_trace_path.empty()) {
    if (!export_sim_trace(sim_trace_path, scenarios->front(), options,
                          &error)) {
      std::fprintf(stderr, "sim-trace: %s\n", error.c_str());
      return 1;
    }
    if (!quiet) std::fprintf(stderr, "wrote %s\n", sim_trace_path.c_str());
  }

  if (result.validated && !result.validation.sound()) {
    for (const UnsoundAccept& u : result.validation.failures)
      std::fprintf(
          stderr,
          "UNSOUND: %s accepted scenario %zu point %zu sample %zu but the "
          "simulator observed %lld deadline miss(es)%s (worst task %d: "
          "observed %s vs bound %s)\n",
          u.analysis.c_str(), u.scenario, u.point, u.sample,
          static_cast<long long>(u.deadline_misses),
          u.drained ? "" : " and an undrained backlog", u.worst_task,
          format_time(u.observed).c_str(), format_time(u.bound).c_str());
    return 1;
  }
  return 0;
}
