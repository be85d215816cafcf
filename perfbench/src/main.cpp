// Benchmark driver binary; perfbench/run.py builds and invokes it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--expect-digest HEX]
//
// Prints a human-readable report on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 0 when the run completed (correct or not), 2 on bad arguments,
// 1 when a workload threw.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The `field` line of /proc/self/status in MiB (0 when unreadable).
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  long kib = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kib = std::atol(line + len + 1);
      break;
    }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace

// VmHWM, not getrusage(): ru_maxrss carries the pre-exec image's peak
// across execve, so it would report the launcher's memory.
double peak_rss_mb() { return status_mb("VmHWM"); }
double rss_mb() { return status_mb("VmRSS"); }

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

double time_setup_probe(const RunConfig& config) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) return -1.0;
  exe[len] = '\0';
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  const std::string seed = std::to_string(config.seed);
  const std::string fd = std::to_string(fds[1]);
  const char* argv[] = {exe,          "--setup-probe", config.workload.c_str(),
                        "--seed",     seed.c_str(),    "--ready-fd",
                        fd.c_str(),   nullptr};
  const Clock::time_point t0 = Clock::now();
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe, nullptr, nullptr,
                                  const_cast<char* const*>(argv), environ);
  close(fds[1]);
  char ready = 0;
  const bool ok = spawned == 0 && read(fds[0], &ready, 1) == 1;
  const double elapsed = seconds_since(t0);
  close(fds[0]);
  int status = 0;
  if (spawned == 0) waitpid(pid, &status, 0);
  return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0 ? elapsed : -1.0;
}

}  // namespace perfbench

namespace {

using perfbench::RunConfig;
using perfbench::RunReport;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep-paper|sweep-validate|"
               "admit-churn --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out PATH] [--expect-digest HEX]\n");
  return 2;
}

void print_result(const RunReport& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  int ready_fd = -1;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      const auto v = dpcp::parse_uint(value);
      if (!v) return usage();
      config.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = dpcp::parse_double(value);
      if (!v || *v <= 0.0 || *v > 600.0) return usage();
      config.seconds = *v;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--setup-probe") {
      config.workload = value;
      have_seconds = have_trace = true;
    } else if (arg == "--ready-fd") {
      const auto v = dpcp::parse_int(value, 0, 1 << 20);
      if (!v) return usage();
      ready_fd = static_cast<int>(*v);
    } else if (arg == "--expect-digest") {
      config.expect_digest = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  if (ready_fd >= 0) {
    // Set-up probe (see time_setup_probe): set up, signal, exit.
    if (!perfbench::sweep_setup(config)) return 1;
    const char ready = 1;
    return write(ready_fd, &ready, 1) == 1 ? 0 : 1;
  }

  RunReport report;
  try {
    if (config.workload == "sweep-paper" || config.workload == "sweep-validate")
      report = perfbench::run_sweep_workload(config);
    else if (config.workload == "admit-churn")
      report = perfbench::run_churn_workload(config);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!config.trace)
    for (const perfbench::Metric& m : report.metrics)
      std::fprintf(stderr, "  %-22s %14.6f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
  std::fflush(stderr);
  print_result(report);
  return 0;
}
