// Shared plumbing of the benchmark's workloads: run configuration, the
// result record every workload fills, output digests, and the order
// statistics the end-to-end metrics report.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Process CPU time, the clock of the end-to-end metrics.  Every workload
/// runs one worker thread and does no I/O, so on an idle host this equals
/// wall time; on a shared host it leaves out the time the hypervisor takes
/// the CPU away (steal), which wall time would count against the program.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(
        duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec));
  }
};

template <class C, class D>
double seconds_since(std::chrono::time_point<C, D> t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
  /// Digest the first request's outputs must match ("" = unchecked).
  std::string expect_digest;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void fail_check(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

/// FNV-1a over every byte fed in; order-sensitive.
class Digest {
 public:
  void add(const std::string& bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Seed of request stream `index` under run seed `seed`: index 0 is the
/// run seed itself (so the first request reproduces the plain CLI run at
/// that seed); later indices are splitmix64-scrambled.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  if (index == 0) return seed;
  std::uint64_t z = seed + index * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail percentile a sample of `n` supports: `want` (e.g. 90) when at
/// least ten samples lie beyond it, else the highest percentile that
/// still leaves ten beyond (never below the median).
inline double supported_percentile(std::size_t n, double want) {
  if (n == 0) return want;
  const double beyond = static_cast<double>(n) * (1.0 - want / 100.0);
  if (beyond >= 10.0) return want;
  const double p = 100.0 * (static_cast<double>(n) - 10.0) /
                   static_cast<double>(n);
  return std::max(50.0, p);
}

/// Nearest-rank percentile of `v` (0 < p <= 100).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

/// Peak and current resident set size of this process, in MiB.
double peak_rss_mb();
double rss_mb();

/// Steps the calling thread round-robin over the CPUs it may run on.  On
/// a shared host the CPUs differ in speed from moment to moment; a run
/// that stays on one of them inherits its luck.  Calling next() before
/// every request spreads each run evenly over all CPUs, so runs agree.
/// Threads the library spawns inherit the current CPU.
class CpuRotation {
 public:
  CpuRotation();
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
