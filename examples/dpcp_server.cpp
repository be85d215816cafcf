// dpcp_server: schedulability-as-a-service over stdin/stdout.
//
// Reads the line-oriented command protocol of serve/server.hpp (load /
// admit / depart / query / stats / slo / snapshot / restore / quit;
// payload blocks end with a lone '.') and answers deterministically: the
// same command stream and options always produce the same byte stream,
// which CI pins with a golden transcript diff.
//
// With --shards K the input switches to the multiplexed grammar of
// serve/router.hpp: every line is `@<session> <line>`, each session is
// an independent client pinned to shard  session mod K,  and replies
// come back grouped by session in ascending id order — byte-identical
// at any --threads value.  A garbled flag is a hard usage error (exit 2),
// never a silent fallback.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "serve/router.hpp"
#include "serve/server.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] < commands\n"
               "\n"
               "options:\n"
               "  --m M               processors per platform (default 16)\n"
               "  --analysis NAME     ep|en|spin|lpp|fed (default ep)\n"
               "  --repair-evals N    Move-search budget per admission, 0\n"
               "                      disables the repair rung (default 200)\n"
               "  --retry-cap N       retry-queue capacity (default 16)\n"
               "  --seed S            repair-search root seed (default 42)\n"
               "  --shards K          multiplexed front: '@<session> <line>'\n"
               "                      input, sessions grouped into K shards\n"
               "                      (default: single-session mode)\n"
               "  --threads T         workers draining the shards (default 1;\n"
               "                      output is identical for any T)\n"
               "  --strict            exit 2 at the first 'error' reply\n"
               "  --help              this text\n"
               "\n"
               "commands (one per line on stdin):\n"
               "  load | admit        followed by a 'dpcp-taskset v1' block\n"
               "                      terminated by a lone '.'\n"
               "  restore             followed by a 'dpcp-snapshot v1' block\n"
               "                      terminated by a lone '.'\n"
               "  depart <id> | query | stats | slo <pct> <budget>\n"
               "  metrics [json]      controller metrics registry, Prometheus\n"
               "                      text (or one JSON line)\n"
               "  trace [n]           most recent admission decision records\n"
               "                      (default: the whole ring)\n"
               "  snapshot | quit\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dpcp::ServeOptions options;
  int shards = 0;  // 0 = classic single-session mode
  int threads = 1;

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
    if (arg == "--m") {
      options.m = number(1, dpcp::kMaxProcessors);
    } else if (arg == "--analysis") {
      const std::string token = value();
      if (!dpcp::analysis_kind_from_token(token, &options.kind)) {
        std::fprintf(stderr, "unknown analysis '%s'\n", token.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--repair-evals") {
      options.repair_evals = number(0, dpcp::kMaxRepairEvals);
    } else if (arg == "--retry-cap") {
      options.retry_capacity = number(std::size_t{0}, std::size_t{1} << 20);
    } else if (arg == "--seed") {
      options.seed = number(std::uint64_t{0}, UINT64_MAX);
    } else if (arg == "--shards") {
      shards = number(1, 4096);
    } else if (arg == "--threads") {
      threads = number(1, 4096);
    } else if (arg == "--strict") {
      options.strict = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (shards > 0) {
    dpcp::MuxOptions mux;
    mux.serve = options;
    mux.shards = shards;
    mux.threads = threads;
    return dpcp::run_mux_server(std::cin, std::cout, mux);
  }
  return dpcp::run_server(std::cin, std::cout, options);
}
