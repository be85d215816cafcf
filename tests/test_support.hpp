// Helpers shared by the test suites: a WCRT oracle over a lambda, the
// scenario corners of the paper's grid, a heavy-task factory, an FNV-1a
// digest for behaviour pins, and a heap gauge for flat-memory pins.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/scenario.hpp"
#include "partition/partitioner.hpp"

namespace dpcp {

/// WcrtOracle over a stateless lambda (task set, bound partition, task,
/// hints) -> bound.  Never reports task_unchanged(), so Algorithm 1
/// re-queries every task every round.
class LambdaOracle final : public WcrtOracle {
 public:
  using Fn = std::function<std::optional<Time>(
      const TaskSet& ts, const Partition& part, int task,
      const std::vector<Time>& hint)>;

  LambdaOracle(const TaskSet& ts, Fn fn) : ts_(ts), fn_(std::move(fn)) {}

  std::optional<Time> wcrt(int task, const std::vector<Time>& hint) override {
    return fn_(ts_, partition(), task, hint);
  }

 private:
  const TaskSet& ts_;
  Fn fn_;
};

/// Scenario corners of the paper's grid (small/dense/mid/wide): extremes of
/// processor count, resource count, utilization, request probability,
/// request count, and critical-section length.
inline std::vector<Scenario> scenario_corners() {
  Scenario small;
  small.m = 8;
  small.nr_min = 2;
  small.nr_max = 4;
  small.u_avg = 1.5;
  small.p_r = 0.5;
  small.n_req_max = 25;
  small.cs_min = micros(15);
  small.cs_max = micros(50);

  Scenario dense = small;
  dense.nr_min = 8;
  dense.nr_max = 16;
  dense.u_avg = 2.0;
  dense.p_r = 1.0;
  dense.n_req_max = 50;
  dense.cs_min = micros(50);
  dense.cs_max = micros(100);

  Scenario mid;
  mid.m = 16;
  mid.nr_min = 4;
  mid.nr_max = 8;
  mid.u_avg = 1.5;
  mid.p_r = 0.75;
  mid.n_req_max = 50;
  mid.cs_min = micros(50);
  mid.cs_max = micros(100);

  Scenario wide = mid;
  wide.nr_min = 8;
  wide.nr_max = 16;
  wide.u_avg = 2.0;
  wide.p_r = 0.5;
  wide.n_req_max = 25;
  wide.cs_min = micros(15);
  wide.cs_max = micros(50);

  return {small, dense, mid, wide};
}

/// A heavy task with C = `wcet`, L* = `lstar` (chain head + parallel body),
/// T = D = `period`.
inline DagTask& add_heavy_task(TaskSet& ts, Time period, Time wcet,
                               Time lstar) {
  DagTask& t = ts.add_task(period, period);
  // Chain of 2 vertices making up L*, plus parallel slices, each strictly
  // shorter than the chain so L* is exactly `lstar`.
  const Time head = lstar / 2;
  t.add_vertex(head);
  t.add_vertex(lstar - head);
  t.add_edge(0, 1);
  for (Time rest = wcet - lstar; rest > 0; rest -= std::min(rest, head))
    t.add_vertex(std::min(rest, head));
  return t;
}

/// Heap bytes in use: glibc's allocated arena blocks plus its mmapped
/// blocks.  Sanitizer builds replace malloc, so tests that read this are
/// compiled out there.
inline std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// FNV-1a 64 over a stream of strings.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
};

}  // namespace dpcp
