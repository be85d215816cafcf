#include "opt/move.hpp"

#include <algorithm>
#include <cassert>

#include "util/table.hpp"

namespace dpcp {

Move Move::regrant(int from_task, int to_task) {
  return Move(MoveKind::kRegrantSpare, from_task, to_task,
              Partition::kUnassigned);
}

Move Move::relocate(ResourceId q, ProcessorId to) {
  return Move(MoveKind::kRelocateResource, q, -1, to);
}

Move Move::widen(int task, ProcessorId spare) {
  return Move(MoveKind::kWidenCluster, task, -1, spare);
}

Move Move::narrow(int task, ProcessorId p) {
  return Move(MoveKind::kNarrowCluster, task, -1, p);
}

Move Move::swap_resources(ResourceId a, ResourceId b) {
  return Move(MoveKind::kSwapResources, a, b, Partition::kUnassigned);
}

bool Move::apply(Partition& part) {
  assert(!applied_);
  // Operand existence is part of apply()'s refusal contract: an
  // out-of-range task or resource id is a structural impossibility, not
  // UB (the optimizer's proposer never generates one, but the factories
  // are public API).
  const auto task_ok = [&](int i) { return i >= 0 && i < part.num_tasks(); };
  const auto res_ok = [&](int q) {
    return q >= 0 && q < part.num_resources();
  };
  switch (kind_) {
    case MoveKind::kRegrantSpare: {
      if (a_ == b_ || !task_ok(a_) || !task_ok(b_)) return false;
      const auto& from = part.cluster(a_);
      // A multi-processor cluster is dedicated by the sharing invariant,
      // so shrinking it cannot orphan a co-hosted light task.
      if (from.size() < 2) return false;
      saved_cluster_a_ = from;
      saved_cluster_b_ = part.cluster(b_);
      const ProcessorId moved = from.back();
      part.set_cluster(a_, std::vector<ProcessorId>(from.begin(),
                                                    from.end() - 1));
      part.grant(b_, moved);
      break;
    }
    case MoveKind::kRelocateResource: {
      if (!res_ok(a_)) return false;
      saved_proc_a_ = part.processor_of_resource(a_);
      if (saved_proc_a_ == Partition::kUnassigned || saved_proc_a_ == proc_ ||
          proc_ < 0 || proc_ >= part.num_processors())
        return false;
      part.assign_resource(a_, proc_);
      break;
    }
    case MoveKind::kWidenCluster: {
      if (!task_ok(a_)) return false;
      if (proc_ < 0 || proc_ >= part.num_processors()) return false;
      if (part.task_of_processor(proc_) != -1) return false;  // not spare
      saved_cluster_a_ = part.cluster(a_);
      part.grant(a_, proc_);
      break;
    }
    case MoveKind::kNarrowCluster: {
      if (!task_ok(a_)) return false;
      const auto& c = part.cluster(a_);
      if (c.size() < 2) return false;
      const auto it = std::find(c.begin(), c.end(), proc_);
      if (it == c.end()) return false;
      saved_cluster_a_ = c;
      std::vector<ProcessorId> shrunk = c;
      shrunk.erase(shrunk.begin() + (it - c.begin()));
      part.set_cluster(a_, std::move(shrunk));
      break;
    }
    case MoveKind::kSwapResources: {
      if (a_ == b_ || !res_ok(a_) || !res_ok(b_)) return false;
      saved_proc_a_ = part.processor_of_resource(a_);
      saved_proc_b_ = part.processor_of_resource(b_);
      if (saved_proc_a_ == Partition::kUnassigned ||
          saved_proc_b_ == Partition::kUnassigned ||
          saved_proc_a_ == saved_proc_b_)
        return false;
      part.assign_resource(a_, saved_proc_b_);
      part.assign_resource(b_, saved_proc_a_);
      break;
    }
  }
  applied_ = true;
  return true;
}

void Move::undo(Partition& part) {
  assert(applied_);
  switch (kind_) {
    case MoveKind::kRegrantSpare:
      part.set_cluster(a_, saved_cluster_a_);
      part.set_cluster(b_, saved_cluster_b_);
      break;
    case MoveKind::kRelocateResource:
      part.assign_resource(a_, saved_proc_a_);
      break;
    case MoveKind::kWidenCluster:
      part.set_cluster(a_, saved_cluster_a_);
      break;
    case MoveKind::kNarrowCluster:
      part.set_cluster(a_, saved_cluster_a_);
      break;
    case MoveKind::kSwapResources:
      part.assign_resource(a_, saved_proc_a_);
      part.assign_resource(b_, saved_proc_b_);
      break;
  }
  applied_ = false;
}

std::string Move::to_string() const {
  switch (kind_) {
    case MoveKind::kRegrantSpare:
      return strfmt("regrant(tau%d -> tau%d)", a_, b_);
    case MoveKind::kRelocateResource:
      return strfmt("relocate(l%d -> p%d)", a_, proc_);
    case MoveKind::kWidenCluster:
      return strfmt("widen(tau%d += p%d)", a_, proc_);
    case MoveKind::kNarrowCluster:
      return strfmt("narrow(tau%d -= p%d)", a_, proc_);
    case MoveKind::kSwapResources:
      return strfmt("swap(l%d <-> l%d)", a_, b_);
  }
  return "?";
}

}  // namespace dpcp
