#include "gen/taskset_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gen/erdos_renyi.hpp"

namespace dpcp {
namespace {

struct UsageDraw {
  std::vector<int> n;    // N_{i,q} (0 = unused)
  std::vector<Time> len; // L_{i,q}
  Time demand() const {
    Time d = 0;
    for (std::size_t q = 0; q < n.size(); ++q)
      d += static_cast<Time>(n[q]) * len[q];
    return d;
  }
};

UsageDraw draw_usage(Rng& rng, const Scenario& sc, int nr) {
  UsageDraw u;
  u.n.assign(static_cast<std::size_t>(nr), 0);
  u.len.assign(static_cast<std::size_t>(nr), 0);
  for (int q = 0; q < nr; ++q) {
    if (!rng.bernoulli(sc.p_r)) continue;
    u.n[q] = static_cast<int>(rng.uniform_int(1, sc.n_req_max));
    u.len[q] = rng.uniform_int(sc.cs_min, sc.cs_max);
  }
  return u;
}

/// Shrinks request counts until the critical-section demand fits in
/// `budget`; drops whole resources as a last resort.  Keeps the draw's
/// proportions roughly intact.
void clamp_usage(UsageDraw& u, Time budget, GenStats& stats) {
  if (u.demand() <= budget) return;
  ++stats.usage_downscales;
  const double scale =
      static_cast<double>(budget) / static_cast<double>(u.demand());
  for (std::size_t q = 0; q < u.n.size(); ++q) {
    if (u.n[q] == 0) continue;
    u.n[q] = std::max(
        1, static_cast<int>(std::floor(u.n[q] * scale)));
  }
  // Still over budget (the >=1 floors can overshoot): drop resources with
  // the largest demand until it fits.
  while (u.demand() > budget) {
    std::size_t worst = 0;
    Time worst_d = -1;
    for (std::size_t q = 0; q < u.n.size(); ++q) {
      const Time d = static_cast<Time>(u.n[q]) * u.len[q];
      if (d > worst_d) {
        worst_d = d;
        worst = q;
      }
    }
    if (worst_d <= 0) break;
    u.n[worst] = 0;
    u.len[worst] = 0;
  }
}

/// Buffers the attempts of one generate_taskset() call share.
struct Scratch {
  explicit Scratch(double edge_prob) : edge_test(edge_prob) {}
  EdgeTest edge_test;
  std::vector<Edge> edges;  // x-major forward edges of the current attempt
  std::vector<Time> start;  // longest path ending just before each vertex
};

/// L* of the DAG whose edges are edges[0, count) in x-major order.  Edges
/// run from lower to higher ids, so the pass meets every in-edge of x
/// before x's out-edges: one pass over the list settles each start[x].
Time longest_path(const std::vector<Time>& wcet,
                  const std::vector<Edge>& edges, std::size_t count,
                  std::vector<Time>& start) {
  start.assign(wcet.size(), 0);
  for (std::size_t e = 0; e < count; ++e) {
    const auto [x, y] = edges[e];
    start[y] = std::max(start[y], start[x] + wcet[x]);
  }
  Time lstar = 0;
  for (std::size_t x = 0; x < wcet.size(); ++x)
    lstar = std::max(lstar, start[x] + wcet[x]);
  return lstar;
}

/// Builds one task with the given utilization; respects the plausibility
/// constraints by bounded resampling.  Each attempt draws its structure
/// and vertex WCETs into flat arrays and decides L* < D/2 there; only an
/// attempt that passes builds its DagTask.
std::optional<DagTask> generate_task(Rng& rng, const GenParams& p, int nr,
                                     double util, Scratch& scratch,
                                     GenStats& stats) {
  const Scenario& sc = p.scenario;
  const Time T = rng.log_uniform_time(p.period_min, p.period_max);
  const Time D = T;  // implicit deadline instance of the constrained model
  const Time C = std::max<Time>(1, std::llround(util * static_cast<double>(T)));

  for (int attempt = 0; attempt < p.max_task_retries; ++attempt) {
    if (attempt > 0) ++stats.task_retries;
    const bool last_resort = attempt + 2 >= p.max_task_retries;

    const int nv =
        static_cast<int>(rng.uniform_int(p.vertices_min, p.vertices_max));
    UsageDraw usage = draw_usage(rng, sc, nr);

    // Feasibility: C' = C - sum N*L must leave every vertex a minimum
    // non-critical slice.  Resample first; clamp when retries run short.
    const Time floor_need = static_cast<Time>(nv) * p.min_vertex_slice;
    if (usage.demand() + floor_need > C) {
      if (attempt * 2 < p.max_task_retries) continue;
      clamp_usage(usage, C - floor_need, stats);
      if (usage.demand() + floor_need > C) continue;
    }

    // Last-resort structure: an edgeless DAG caps L* at the heaviest single
    // vertex, which the even spread below keeps < D/2.
    const std::size_t num_edges =
        last_resort ? 0
                    : draw_forward_edges(rng, nv, scratch.edge_test,
                                         scratch.edges);

    // Spread the N_{i,q} requests over vertices by uniform composition.
    std::vector<std::vector<std::int64_t>> req_of(usage.n.size());
    for (std::size_t q = 0; q < usage.n.size(); ++q)
      if (usage.n[q] > 0)
        req_of[q] = rng.composition(usage.n[q], static_cast<std::size_t>(nv));

    // Vertex WCET = own CS demand + min slice + share of the remaining C'.
    // The share vector becomes the WCET vector in place.
    const Time spread = C - usage.demand() - floor_need;
    std::vector<Time> wcet =
        last_resort ? std::vector<Time>(static_cast<std::size_t>(nv),
                                        spread / nv)
                    : rng.composition(spread, static_cast<std::size_t>(nv));
    if (last_resort) {
      // Hand the rounding remainder to vertex 0 to keep sum C exact.
      wcet[0] += spread - (spread / nv) * nv;
    }
    for (std::size_t x = 0; x < wcet.size(); ++x) {
      Time cs_x = 0;
      for (std::size_t q = 0; q < usage.n.size(); ++q)
        if (usage.n[q] > 0) cs_x += req_of[q][x] * usage.len[q];
      wcet[x] += cs_x + p.min_vertex_slice;
    }

    const Time lstar =
        longest_path(wcet, scratch.edges, num_edges, scratch.start);
    if (lstar >= D / 2) continue;  // L* < D/2 (paper)

    DagTask task(-1, T, D, nr);
    std::vector<int> reqs;
    for (std::size_t x = 0; x < wcet.size(); ++x) {
      // The common all-zero vertex passes an empty vector.
      reqs.clear();
      for (std::size_t q = 0; q < usage.n.size(); ++q) {
        if (usage.n[q] == 0 || req_of[q][x] == 0) continue;
        if (reqs.empty()) reqs.assign(usage.n.size(), 0);
        reqs[q] = static_cast<int>(req_of[q][x]);
      }
      task.add_vertex(wcet[x], reqs);
    }
    for (std::size_t e = 0; e < num_edges; ++e)
      task.add_edge(scratch.edges[e].first, scratch.edges[e].second);
    for (std::size_t q = 0; q < usage.len.size(); ++q)
      task.set_cs_length(static_cast<ResourceId>(q), usage.len[q]);
    task.finalize();
    assert(task.longest_path_length() == lstar);
    assert(task.wcet() == C);
    return task;
  }
  return std::nullopt;
}

}  // namespace

std::optional<TaskSet> generate_taskset(Rng& rng, const GenParams& params,
                                        GenStats* stats) {
  GenStats local;
  GenStats& st = stats ? *stats : local;
  const Scenario& sc = params.scenario;

  const int nr = static_cast<int>(rng.uniform_int(sc.nr_min, sc.nr_max));
  const int n = choose_task_count(params.total_utilization, sc.u_avg);
  const double hi = 2.0 * sc.u_avg;
  // Clamp the target into the feasible simplex (the U=1 grid start yields
  // n=1 whose single utilization is exactly 1.0).
  const double sum = std::clamp(params.total_utilization,
                                static_cast<double>(n), n * hi);
  const std::vector<double> utils =
      rand_fixed_sum(rng, n, sum, 1.0, hi, &st.rfs);

  Scratch scratch(params.edge_prob);
  TaskSet ts(nr);
  for (double u : utils) {
    auto task = generate_task(rng, params, nr, u, scratch, st);
    if (!task) {
      ++st.failures;
      return std::nullopt;
    }
    ts.adopt_task(std::move(*task));
  }
  for (int k = 0; k < params.light_tasks; ++k) {
    const double u =
        rng.uniform_real(params.light_util_min, params.light_util_max);
    auto task = generate_task(rng, params, nr, u, scratch, st);
    if (!task) {
      ++st.failures;
      return std::nullopt;
    }
    ts.adopt_task(std::move(*task));
  }
  ts.assign_rm_priorities();
  assert(!ts.validate().has_value());
  return ts;
}

DagTask TaskPool::next() {
  while (pool_.empty()) {
    Rng fork = rng_.fork(++refills_);
    const auto ts = generate_taskset(fork, refill_);
    if (!ts) continue;
    for (int i = 0; i < ts->size(); ++i) pool_.push_back(ts->task(i));
  }
  DagTask t = std::move(pool_.back());
  pool_.pop_back();
  return t;
}

}  // namespace dpcp
