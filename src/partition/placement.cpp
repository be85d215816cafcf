#include "partition/placement.hpp"

#include <algorithm>
#include <cassert>

#include "util/table.hpp"

namespace dpcp {
namespace {

/// Picks the cluster for global resource `q` (utilization `uq`) given each
/// cluster's capacity (processor count) and current load (task utilization
/// plus the resources already placed there); -1 when no capacity-respecting
/// cluster exists.
using Chooser = int (*)(const TaskSet& ts, const Partition& part, ResourceId q,
                        double uq, const std::vector<double>& capacity,
                        const std::vector<double>& load);

/// Shared scaffolding of the decreasing-utilization placement family:
/// per-cluster capacity/load bookkeeping, the global-resource ordering of
/// Algorithm 2 (decreasing utilization, id tie-break), and the
/// least-resource-load processor rule within the chosen cluster.  (Algorithm
/// 2 line 3 initialises the capacity; the cluster utilization definition is
/// given in Sec. V.)
bool place_decreasing(const TaskSet& ts, Partition& part, Chooser choose) {
  part.clear_resource_assignment();

  const int n = ts.size();
  std::vector<double> capacity(static_cast<std::size_t>(n));
  std::vector<double> load(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    capacity[static_cast<std::size_t>(i)] =
        static_cast<double>(part.cluster_size(i));
    load[static_cast<std::size_t>(i)] = ts.task(i).utilization();
  }
  std::vector<double> proc_load(
      static_cast<std::size_t>(part.num_processors()), 0.0);

  std::vector<ResourceId> globals = ts.global_resources();
  std::sort(globals.begin(), globals.end(), [&](ResourceId a, ResourceId b) {
    const double ua = ts.resource_utilization(a);
    const double ub = ts.resource_utilization(b);
    if (ua != ub) return ua > ub;
    return a < b;
  });

  for (ResourceId q : globals) {
    const double uq = ts.resource_utilization(q);
    const int chosen = choose(ts, part, q, uq, capacity, load);
    if (chosen < 0) return false;

    ProcessorId target = Partition::kUnassigned;
    double target_load = 0.0;
    for (ProcessorId p : part.cluster(chosen)) {
      const double lp = proc_load[static_cast<std::size_t>(p)];
      if (target == Partition::kUnassigned || lp < target_load) {
        target = p;
        target_load = lp;
      }
    }
    assert(target != Partition::kUnassigned);
    part.assign_resource(q, target);
    proc_load[static_cast<std::size_t>(target)] += uq;
    load[static_cast<std::size_t>(chosen)] += uq;
  }
  return true;
}

/// Worst-fit decreasing, Algorithm 2 of the paper: each resource, in
/// decreasing utilization u^Phi_q = sum_j N_{j,q} L_{j,q} / T_j, goes to
/// the cluster with the largest utilization slack (capacity m_x minus the
/// task's utilization minus the resources already placed there).
/// Placement is infeasible when that cluster would overflow its capacity.
int choose_worst_fit(const TaskSet& ts, const Partition& part, ResourceId,
                     double uq, const std::vector<double>& capacity,
                     const std::vector<double>& load) {
  int best = -1;
  double best_slack = -1.0;
  for (int i = 0; i < ts.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (part.cluster_size(i) == 0) continue;
    const double slack = capacity[ui] - load[ui];
    if (slack > best_slack) {
      best_slack = slack;
      best = i;
    }
  }
  if (best < 0 || load[static_cast<std::size_t>(best)] + uq >
                      capacity[static_cast<std::size_t>(best)])
    return -1;
  return best;
}

/// First-fit decreasing (ablation baseline): the lowest-index cluster that
/// still fits the resource.
int choose_first_fit(const TaskSet& ts, const Partition& part, ResourceId,
                     double uq, const std::vector<double>& capacity,
                     const std::vector<double>& load) {
  for (int i = 0; i < ts.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (part.cluster_size(i) == 0) continue;
    if (load[ui] + uq <= capacity[ui]) return i;
  }
  return -1;
}

/// Best fit: the cluster whose remaining slack is smallest among those that
/// still fit the resource (the bin-packing dual of WFD's max-slack
/// spreading).
int choose_best_fit(const TaskSet& ts, const Partition& part, ResourceId,
                    double uq, const std::vector<double>& capacity,
                    const std::vector<double>& load) {
  int best = -1;
  double best_slack = 0.0;
  for (int i = 0; i < ts.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (part.cluster_size(i) == 0) continue;
    const double slack = capacity[ui] - load[ui];
    if (load[ui] + uq > capacity[ui]) continue;
    if (best < 0 || slack < best_slack) {
      best = i;
      best_slack = slack;
    }
  }
  return best;
}

/// Synchronization-aware: co-locate each resource with the cluster
/// generating the most requests per unit time for it (N_{i,q} / T_i), so
/// the heaviest requester's agent traffic stays cluster-local.  Capacity
/// still rules: among clusters that fit, highest request rate wins; rate
/// ties (including rate 0) break toward the lower index.
int choose_sync_aware(const TaskSet& ts, const Partition& part, ResourceId q,
                      double uq, const std::vector<double>& capacity,
                      const std::vector<double>& load) {
  int best = -1;
  double best_rate = -1.0;
  for (int i = 0; i < ts.size(); ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (part.cluster_size(i) == 0) continue;
    if (load[ui] + uq > capacity[ui]) continue;
    const double rate =
        static_cast<double>(ts.task(i).usage(q).max_requests) /
        static_cast<double>(ts.task(i).period());
    if (rate > best_rate) {
      best = i;
      best_rate = rate;
    }
  }
  return best;
}

/// A built-in strategy: one cluster chooser over place_decreasing().
class DecreasingStrategy final : public PlacementStrategy {
 public:
  DecreasingStrategy(const char* name, Chooser choose)
      : name_(name), choose_(choose) {}

  std::string name() const override { return name_; }
  bool place_resources(const TaskSet& ts, Partition& part) const override {
    return place_decreasing(ts, part, choose_);
  }

 private:
  const char* name_;
  Chooser choose_;
};

}  // namespace

const PlacementStrategy& placement_strategy(PlacementKind kind) {
  // Indexed by PlacementKind.
  static const DecreasingStrategy strategies[] = {
      {"wfd", choose_worst_fit},
      {"ffd", choose_first_fit},
      {"bfd", choose_best_fit},
      {"sync", choose_sync_aware},
  };
  return strategies[static_cast<std::size_t>(kind)];
}

std::vector<PlacementKind> all_placement_kinds() {
  return {PlacementKind::kWfd, PlacementKind::kFirstFit,
          PlacementKind::kBestFit, PlacementKind::kSyncAware};
}

std::string placement_kind_token(PlacementKind kind) {
  return placement_strategy(kind).name();
}

std::optional<PlacementKind> placement_kind_from_token(
    const std::string& token) {
  for (PlacementKind kind : all_placement_kinds())
    if (placement_kind_token(kind) == token) return kind;
  return std::nullopt;
}

std::optional<std::vector<PlacementKind>> placements_from_spec(
    const std::string& spec, std::string* error) {
  std::vector<PlacementKind> out;
  const auto add = [&out](PlacementKind kind) {
    if (std::find(out.begin(), out.end(), kind) == out.end())
      out.push_back(kind);
  };
  for (const std::string& token : split(spec, ',')) {
    if (token == "all") {
      for (PlacementKind kind : all_placement_kinds()) add(kind);
      continue;
    }
    const auto kind = placement_kind_from_token(token);
    if (!kind) {
      if (error)
        *error = strfmt(
            "unknown placement strategy '%s' "
            "(expect all | wfd | ffd | bfd | sync)",
            token.c_str());
      return std::nullopt;
    }
    add(*kind);
  }
  if (out.empty()) {
    if (error) *error = "empty placement spec";
    return std::nullopt;
  }
  return out;
}

}  // namespace dpcp
