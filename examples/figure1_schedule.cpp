// Reproduces Fig. 1 of the paper: two DAG tasks on four processors, the
// global resource l_1 served by an agent on processor p_2, the local
// resource l_2 handled inside tau_i's cluster.  Prints the full event
// trace so the paper's narrative can be followed step by step:
//
//   * <j,1 locks l_1 at t=1 and releases it at t=4;
//   * <i,1 arrives at t=2, is blocked by the (lower-priority!) request
//     <j,1 -- the single lower-priority blocking Lemma 1 permits -- and
//     executes during [4,7];
//   * v_{i,3} holds l_2 during [2,4] while v_{i,4} waits.
//
//   $ ./examples/figure1_schedule
#include <cstdio>

#include "core/dpcp.hpp"

using namespace dpcp;

int main() {
  TaskSet ts(2);

  // tau_i (Fig. 1a left): 8 vertices; v_{i,2} uses l_1, v_{i,3}/v_{i,4}
  // use l_2.
  DagTask& ti = ts.add_task(20, 20);
  ti.add_vertex(2);          // v_{i,1}
  ti.add_vertex(3, {1, 0});  // v_{i,2}
  ti.add_vertex(2, {0, 1});  // v_{i,3}
  ti.add_vertex(2, {0, 1});  // v_{i,4}
  ti.add_vertex(4);          // v_{i,5}
  ti.add_vertex(2);          // v_{i,6}
  ti.add_vertex(2);          // v_{i,7}
  ti.add_vertex(2);          // v_{i,8}
  ti.add_edge(0, 1);
  ti.add_edge(0, 2);
  ti.add_edge(0, 3);
  ti.add_edge(0, 4);
  ti.add_edge(1, 5);
  ti.add_edge(2, 6);
  ti.add_edge(4, 6);
  ti.add_edge(3, 7);
  ti.add_edge(5, 7);
  ti.add_edge(6, 7);
  ti.set_cs_length(0, 3);
  ti.set_cs_length(1, 2);

  // tau_j (Fig. 1a right): 6 vertices; v_{j,2} uses l_1.
  DagTask& tj = ts.add_task(20, 20);
  tj.add_vertex(1);
  tj.add_vertex(3, {1, 0});
  tj.add_vertex(3);
  tj.add_vertex(4);
  tj.add_vertex(4);
  tj.add_vertex(1);
  for (VertexId v = 1; v <= 4; ++v) {
    tj.add_edge(0, v);
    tj.add_edge(v, 5);
  }
  tj.set_cs_length(0, 3);

  ts.assign_rm_priorities();
  ts.finalize();

  std::printf("tau_i: C=%ld L*=%ld (paper: C=19, L*=10)\n",
              static_cast<long>(ts.task(0).wcet()),
              static_cast<long>(ts.task(0).longest_path_length()));

  // Fig. 1b placement: tau_i on {p1,p2}, tau_j on {p3,p4}, l_1 on p2.
  Partition part(4, 2, 2);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 1);
  part.add_processor_to_task(1, 2);
  part.add_processor_to_task(1, 3);
  part.assign_resource(0, 1);

  SimConfig cfg;
  cfg.horizon = 19;  // one job per task
  std::vector<TraceEvent> trace;
  const SimResult res = simulate(ts, part, cfg, &trace);

  std::puts("\nEvent trace (times are abstract units, as in the paper):");
  std::fputs(trace_to_string(trace).c_str(), stdout);

  std::printf(
      "\nResponses: J_i=%ld J_j=%ld; lower-priority blockers observed per "
      "request <= %d (Lemma 1); invariants: %s\n",
      static_cast<long>(res.task[0].max_response),
      static_cast<long>(res.task[1].max_response),
      res.max_lower_priority_blockers,
      res.all_invariants_hold() ? "ok" : "VIOLATED");
  return res.all_invariants_hold() ? 0 : 1;
}
