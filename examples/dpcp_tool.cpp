// dpcp_tool: a file-driven command-line front end for the library --
// generate a workload once, then analyse, partition and simulate it
// reproducibly from the saved file.
//
//   dpcp_tool gen <out.taskset> [--util U] [--m M] [--seed S] [--pr P]
//   dpcp_tool show <in.taskset>
//   dpcp_tool analyze <in.taskset> [--m M] [--protocol NAME] [--save-partition F]
//   dpcp_tool simulate <in.taskset> <in.partition> [--horizon-ms H] [--trace]
//
// Protocols: DPCP-p-EP (default), DPCP-p-EN, SPIN-SON, LPP, FED-FP.
//
// Exit status: 0 on success; 1 on a runtime failure (an unreadable or
// malformed file, a partition `simulate` cannot run); 2 on a usage error
// (a bad or unknown flag, a missing or unknown command) and when `analyze`
// finds the set unschedulable; 3 when a simulated run violated a protocol
// invariant.
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/dpcp.hpp"
#include "io/taskset_io.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"

using namespace dpcp;

namespace {

struct Args {
  std::vector<std::string> positional;
  double util = 6.0;
  int m = 16;
  std::uint64_t seed = 1;
  double pr = 0.5;
  std::string protocol = "DPCP-p-EP";
  std::string save_partition;
  Time horizon = millis(500);
  bool trace = false;
};

/// Numeric flags parse strictly (util/parse.hpp): a garbled or
/// out-of-range value prints `--<flag>: ...` and fails the whole command
/// line before any file is read or written.
bool parse_args(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto bad = [&a](const char* v, const std::string& expected) {
      std::fprintf(stderr, "%s: invalid value '%s' (expected %s)\n",
                   a.c_str(), v, expected.c_str());
      return false;
    };
    if (a == "--util") {
      const char* v = value();
      if (!v) return false;
      const auto u = parse_double(v);
      if (!u || *u <= 0.0) return bad(v, "a positive number");
      out->util = *u;
    } else if (a == "--m") {
      const char* v = value();
      if (!v) return false;
      const auto m = parse_int(v, 1, kMaxProcessors);
      if (!m)
        return bad(v, "an integer in 1.." + std::to_string(kMaxProcessors));
      out->m = static_cast<int>(*m);
    } else if (a == "--seed") {
      const char* v = value();
      if (!v) return false;
      const auto seed = parse_uint(v);
      if (!seed) return bad(v, "an unsigned 64-bit integer");
      out->seed = *seed;
    } else if (a == "--pr") {
      const char* v = value();
      if (!v) return false;
      const auto pr = parse_double(v);
      if (!pr || *pr < 0.0 || *pr > 1.0) return bad(v, "a value in [0,1]");
      out->pr = *pr;
    } else if (a == "--protocol") {
      const char* v = value();
      if (!v) return false;
      out->protocol = v;
    } else if (a == "--save-partition") {
      const char* v = value();
      if (!v) return false;
      out->save_partition = v;
    } else if (a == "--horizon-ms") {
      const char* v = value();
      if (!v) return false;
      const auto ms = parse_int(v, 1, 10'000'000);
      if (!ms) return bad(v, "an integer in 1..10000000");
      out->horizon = millis(*ms);
    } else if (a == "--trace") {
      out->trace = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    } else {
      out->positional.push_back(a);
    }
  }
  return !out->positional.empty();
}

std::optional<AnalysisKind> kind_by_name(const std::string& name) {
  for (AnalysisKind k : all_analysis_kinds())
    if (SchedAnalysis(k).name() == name) return k;
  return std::nullopt;
}

std::optional<TaskSet> load_taskset(const std::string& path) {
  std::string error;
  const auto text = read_text_file(path, &error);
  if (!text) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return std::nullopt;
  }
  auto ts = taskset_from_text(*text, &error);
  if (!ts) std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
  return ts;
}

int cmd_gen(const Args& args) {
  Rng rng(args.seed);
  GenParams params;
  params.scenario.m = args.m;
  params.scenario.p_r = args.pr;
  params.total_utilization = args.util;
  const auto ts = generate_taskset(rng, params);
  if (!ts) {
    std::fputs("generation failed\n", stderr);
    return 1;
  }
  std::string error;
  if (!write_text_file(args.positional[1], taskset_to_text(*ts), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %d tasks (%d resources, U=%.2f) to %s\n", ts->size(),
              ts->num_resources(), ts->total_utilization(),
              args.positional[1].c_str());
  return 0;
}

int cmd_show(const Args& args) {
  const auto ts = load_taskset(args.positional[1]);
  if (!ts) return 1;
  std::printf("%d tasks, %d resources (%zu global, %zu local), U=%.2f\n",
              ts->size(), ts->num_resources(), ts->global_resources().size(),
              ts->local_resources().size(), ts->total_utilization());
  for (int i = 0; i < ts->size(); ++i) {
    const DagTask& t = ts->task(i);
    std::printf("  tau_%d: |V|=%d C=%s L*=%s T=%s U=%.2f prio=%d uses:", i,
                t.vertex_count(), format_time(t.wcet()).c_str(),
                format_time(t.longest_path_length()).c_str(),
                format_time(t.period()).c_str(), t.utilization(),
                t.priority());
    for (ResourceId q : t.used_resources())
      std::printf(" l%d(N=%d,L=%s)", q, t.usage(q).max_requests,
                  format_time(t.usage(q).cs_length).c_str());
    std::printf("\n");
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  const auto ts = load_taskset(args.positional[1]);
  if (!ts) return 1;
  const auto kind = kind_by_name(args.protocol);
  if (!kind) {
    std::fprintf(stderr, "unknown protocol '%s'\n", args.protocol.c_str());
    return 2;
  }
  const SchedAnalysis analysis(*kind);
  const PartitionOutcome out = analysis.test(*ts, args.m);
  std::printf("%s on m=%d: %s (%d partitioning rounds)\n",
              analysis.name().c_str(), args.m,
              out.schedulable ? "SCHEDULABLE" : "unschedulable", out.rounds);
  if (!out.schedulable) {
    std::printf("  reason: %s\n", out.failure.c_str());
    return 2;
  }
  for (int i = 0; i < ts->size(); ++i)
    std::printf("  tau_%d: WCRT %s <= D %s (m_i=%d)\n", i,
                format_time(out.wcrt[i]).c_str(),
                format_time(ts->task(i).deadline()).c_str(),
                out.partition.cluster_size(i));
  if (!args.save_partition.empty()) {
    std::string error;
    if (!write_text_file(args.save_partition,
                         partition_to_text(out.partition), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("partition saved to %s\n", args.save_partition.c_str());
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto ts = load_taskset(args.positional[1]);
  if (!ts) return 1;
  std::string error;
  const auto ptext = read_text_file(args.positional[2], &error);
  if (!ptext) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto part = partition_from_text(*ptext, &error);
  if (!part) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  SimConfig cfg;
  cfg.horizon = args.horizon;
  std::vector<TraceEvent> trace;
  SimResult res;
  try {
    res = simulate(*ts, *part, cfg, args.trace ? &trace : nullptr);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::fputs(trace_to_string(trace).c_str(), stdout);
  std::printf("simulated %s: %lld global requests, invariants %s\n",
              format_time(res.end_time).c_str(),
              static_cast<long long>(res.global_requests_completed),
              res.all_invariants_hold() ? "ok" : "VIOLATED");
  for (int i = 0; i < ts->size(); ++i)
    std::printf("  tau_%d: jobs=%lld max-response=%s misses=%lld\n", i,
                static_cast<long long>(res.task[i].jobs_completed),
                format_time(res.task[i].max_response).c_str(),
                static_cast<long long>(res.task[i].deadline_misses));
  return res.all_invariants_hold() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fputs(
        "usage: dpcp_tool gen|show|analyze|simulate <files...> [flags]\n",
        stderr);
    return 2;
  }
  const std::string& cmd = args.positional[0];
  if (cmd == "gen" && args.positional.size() >= 2) return cmd_gen(args);
  if (cmd == "show" && args.positional.size() >= 2) return cmd_show(args);
  if (cmd == "analyze" && args.positional.size() >= 2)
    return cmd_analyze(args);
  if (cmd == "simulate" && args.positional.size() >= 3)
    return cmd_simulate(args);
  std::fprintf(stderr, "unknown/incomplete command '%s'\n", cmd.c_str());
  return 2;
}
