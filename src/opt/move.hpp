// Reversible partition edits: the neighbourhood vocabulary of the
// partition-search optimizer (opt/optimizer.hpp).
//
// Algorithm 1 explores exactly one trajectory through partition space —
// grant-a-spare-on-failure under a fixed placement rule — so a task set it
// rejects may still have a schedulable partition a few edits away.  A Move
// is one such edit, chosen small on purpose:
//
//   * kRegrantSpare      — take the most recently granted processor of one
//                          task's dedicated cluster and grant it to another
//                          task (Algorithm 1's spare, redirected);
//   * kRelocateResource  — move one global resource's agent to a different
//                          processor (an Algorithm-2 decision, revisited);
//   * kWidenCluster      — grant a currently-spare processor to a task;
//   * kNarrowCluster     — return one processor of a multi-processor
//                          cluster to the spare pool (resources already on
//                          it stay put, turning it into a dedicated
//                          synchronization processor — a region no
//                          placement heuristic reaches);
//   * kSwapResources     — exchange the processors of two global resources.
//
// Moves are *proposals*: apply() performs only the structural checks that
// keep the edit meaningful (operands exist, clusters stay nonempty, the
// Sec. VI sharing discipline is respected) and records enough state to
// undo() in O(1) partition edits.  Capacity and the full structural
// invariants are enforced by the optimizer through Partition::validate()
// before any oracle query — an invalid candidate is undone having cost
// zero analysis work.
#pragma once

#include <string>
#include <vector>

#include "partition/partition.hpp"

namespace dpcp {

enum class MoveKind {
  kRegrantSpare,
  kRelocateResource,
  kWidenCluster,
  kNarrowCluster,
  kSwapResources,
};

inline constexpr int kNumMoveKinds = 5;

class Move {
 public:
  /// Moves the last processor of `from_task`'s multi-processor (hence
  /// dedicated) cluster to `to_task` — appended to a dedicated cluster,
  /// or replacing a shared light task's processor (promotion, mirroring
  /// Algorithm 1's grant rule).
  static Move regrant(int from_task, int to_task);
  /// Re-pins global resource `q` to processor `to`.
  static Move relocate(ResourceId q, ProcessorId to);
  /// Grants `spare` (a processor in no cluster) to `task`, with the same
  /// append-or-promote rule as regrant().
  static Move widen(int task, ProcessorId spare);
  /// Removes `p` from `task`'s multi-processor cluster, back to the spare
  /// pool.
  static Move narrow(int task, ProcessorId p);
  /// Exchanges the processors of global resources `a` and `b`.
  static Move swap_resources(ResourceId a, ResourceId b);

  /// Applies the edit to `part`.  Returns false — leaving `part` exactly
  /// as it was — when the move is structurally impossible (no such
  /// processor, cluster too small, no-op target, ...).  A successful
  /// apply() must be paired with undo() before the Move is reused.
  bool apply(Partition& part);

  /// Reverts the preceding successful apply().
  void undo(Partition& part);

  std::string to_string() const;

 private:
  Move(MoveKind kind, int a, int b, ProcessorId proc)
      : kind_(kind), a_(a), b_(b), proc_(proc) {}

  MoveKind kind_;
  int a_ = -1;                             // task or resource (kind-specific)
  int b_ = -1;                             // second task/resource operand
  ProcessorId proc_ = Partition::kUnassigned;  // processor operand

  // Undo state of the last successful apply().
  bool applied_ = false;
  std::vector<ProcessorId> saved_cluster_a_;
  std::vector<ProcessorId> saved_cluster_b_;
  ProcessorId saved_proc_a_ = Partition::kUnassigned;
  ProcessorId saved_proc_b_ = Partition::kUnassigned;
};

}  // namespace dpcp
