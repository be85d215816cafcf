// online_tool: replay seeded arrival/departure streams through the
// AdmissionController and report acceptance + count-based admission-
// latency percentiles per stream (exp/online.hpp).
//
// The CSV is byte-identical at any --threads value (streams are
// independent, results are emitted in order, and all statistics are
// integer counts) — CI diffs a 1-thread against an 8-thread run.  With
// --validate every accept is re-executed on the discrete-event simulator
// and the tool exits 1 if any accept is refuted.  A garbled flag is a
// hard usage error (exit 2).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/grid.hpp"
#include "exp/online.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "\n"
               "options:\n"
               "  --scenarios SPEC    all | fig2 | a..d | first:K (default a)\n"
               "  --streams N         event streams per scenario (default 4)\n"
               "  --events N          events per stream (default 100)\n"
               "  --depart-prob P     departure probability in [0,1)\n"
               "                      (default 0.3)\n"
               "  --util F            generator utilization as a fraction of\n"
               "                      m (default 0.4)\n"
               "  --analysis NAME     ep|en|spin|lpp|fed (default ep)\n"
               "  --repair-evals N    repair budget per admission (default\n"
               "                      200; 0 disables)\n"
               "  --retry-cap N       retry-queue capacity (default 16)\n"
               "  --seed S            stream seed (default 42)\n"
               "  --threads N         worker threads (default 1)\n"
               "  --validate          simulate every accept; exit 1 on any\n"
               "                      refuted accept\n"
               "  --csv FILE          write the CSV there instead of stdout\n"
               "  --metrics-json FILE write the merged controller metrics\n"
               "                      (obs/metrics.hpp registry + analysis\n"
               "                      cache counters) as one JSON line;\n"
               "                      byte-identical at any --threads\n"
               "  --help              this text\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dpcp::OnlineOptions options;
  std::string scenario_spec = "a";
  std::string csv_path;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value\n", arg.c_str());
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    // A bad number is named, then the usage text follows (exit 2).
    auto number = [&](auto lo, auto hi) {
      const auto v = dpcp::parse_knob(arg, value(), lo, hi);
      if (!v) std::exit(usage(argv[0]));
      return *v;
    };
    if (arg == "--scenarios") {
      scenario_spec = value();
    } else if (arg == "--streams") {
      options.streams = number(1, 1 << 16);
    } else if (arg == "--events") {
      options.events = number(1, 1 << 24);
    } else if (arg == "--depart-prob") {
      const auto v = dpcp::parse_double(value());
      if (!v || *v < 0.0 || *v >= 1.0) {
        std::fprintf(stderr, "--depart-prob: expected a value in [0,1)\n");
        return usage(argv[0]);
      }
      options.depart_prob = *v;
    } else if (arg == "--util") {
      const auto v = dpcp::parse_double(value());
      if (!v || *v <= 0.0 || *v > 1.0) {
        std::fprintf(stderr, "--util: expected a value in (0,1]\n");
        return usage(argv[0]);
      }
      options.util_frac = *v;
    } else if (arg == "--analysis") {
      const std::string token = value();
      if (!dpcp::analysis_kind_from_token(token, &options.admit.kind)) {
        std::fprintf(stderr, "unknown analysis '%s'\n", token.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--repair-evals") {
      options.admit.repair_evals = number(0, dpcp::kMaxRepairEvals);
    } else if (arg == "--retry-cap") {
      options.admit.retry_capacity =
          number(std::size_t{0}, std::size_t{1} << 20);
    } else if (arg == "--seed") {
      options.admit.seed = number(std::uint64_t{0}, UINT64_MAX);
    } else if (arg == "--threads") {
      options.threads = number(1, 1024);
    } else if (arg == "--validate") {
      options.validate = true;
    } else if (arg == "--csv") {
      csv_path = value();
    } else if (arg == "--metrics-json") {
      metrics_path = value();
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  std::string spec_error;
  const auto scenarios = dpcp::scenarios_from_spec(scenario_spec, &spec_error);
  if (!scenarios) {
    std::fprintf(stderr, "--scenarios: %s\n", spec_error.c_str());
    return usage(argv[0]);
  }
  options.scenarios = *scenarios;

  const auto results = dpcp::run_online(options);

  if (csv_path.empty()) {
    dpcp::write_online_csv(results, options, std::cout);
  } else {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   csv_path.c_str());
      return 1;
    }
    dpcp::write_online_csv(results, options, out);
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   metrics_path.c_str());
      return 1;
    }
    out << dpcp::merge_online_metrics(results).to_json() << "\n";
  }

  int unsound = 0;
  for (const auto& r : results) unsound += r.unsound;
  if (unsound > 0) {
    std::fprintf(stderr, "UNSOUND: %d simulator-refuted accepts\n", unsound);
    return 1;
  }
  return 0;
}
