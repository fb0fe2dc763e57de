//===-- sim/TaskTable.h - Struct-of-arrays task state -----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's task set as a struct-of-arrays: one parallel column per
/// observable scheduling quantity (active threads, memory demand, working
/// set, finished flag), mirrored from the virtual Task accessors at add
/// time and after every slow-path step. The tick loop's reductions walk
/// the columns — contiguous, branch-predictable, no virtual dispatch —
/// and a generation counter tells the loop when any column changed so it
/// can reuse last tick's reduction results bit-for-bit (DESIGN.md §13).
///
/// Iteration order is insertion order throughout: the per-tick FP
/// reductions accumulate in task order, so removal tombstones a slot and
/// compaction erases stably. Removal is by rank among the live slots,
/// located in O(log n) through a Fenwick tree over the live flags. A
/// tombstoned (null) slot is never visible outside the table's own
/// iteration helpers.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_TASKTABLE_H
#define MEDLEY_SIM_TASKTABLE_H

#include "sim/Task.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace medley::sim {

/// Struct-of-arrays mirror of every task's observable scheduling state.
class TaskTable {
public:
  /// Appends \p T, capturing its observable state into the columns.
  /// (Named adopt, not add, so medley-lint's name-based call resolution
  /// doesn't conflate it with the dataset/statistics add() methods on the
  /// decision path.)
  void adopt(std::shared_ptr<Task> T);

  /// Tombstones the \p Rank-th live task in insertion order — the one
  /// owners()[Rank] would name — in O(log n); releases the task now,
  /// compacts later. Bumps the generation.
  void removeAt(size_t Rank);

  /// Erases tombstoned slots, preserving insertion order; cheap no-op
  /// when there are none.
  void compact() const;

  /// Live (non-tombstoned) task count.
  size_t size() const { return Owners.size() - Tombstones; }

  /// Monotonic counter bumped whenever any column value or the membership
  /// changes. Equal generations guarantee bit-identical column contents,
  /// so per-tick reductions cached under a generation can be reused.
  uint64_t generation() const { return Generation; }

  /// Raw slot count including tombstones — the iteration bound for the
  /// column accessors below. Slots with ptr(I) == nullptr are tombstones.
  size_t slots() const { return Owners.size(); }

  Task *ptr(size_t I) const { return Ptrs[I]; }
  unsigned threads(size_t I) const { return Threads[I]; }
  double memoryDemand(size_t I) const { return Demand[I]; }
  double workingSetMb(size_t I) const { return WorkingSet[I]; }
  bool finished(size_t I) const { return Finished[I] != 0; }

  /// Re-reads slot \p I's accessors after a slow-path step and folds any
  /// changes into the columns, bumping the generation only when a value
  /// actually changed (steady ticks keep the reduction cache warm).
  void refresh(size_t I);

  /// The owning pointers in insertion order, compacted first so callers
  /// never see a tombstone.
  const std::vector<std::shared_ptr<Task>> &owners() const;

private:
  /// Insertion-order owners; a null entry is a tombstone left by remove().
  /// Mutable (with the columns) so const accessors can compact lazily.
  mutable std::vector<std::shared_ptr<Task>> Owners;
  mutable std::vector<Task *> Ptrs;
  mutable std::vector<unsigned> Threads;
  mutable std::vector<double> Demand;
  mutable std::vector<double> WorkingSet;
  mutable std::vector<uint8_t> Finished;
  mutable size_t Tombstones = 0;
  uint64_t Generation = 0;

  /// 1-based Fenwick tree over the live flags of the slots, built lazily
  /// by the first removeAt() after adopt() or a real compact() cleared it
  /// (empty = not built). Capacity sticks, so steady churn reuses it.
  mutable std::vector<uint32_t> LiveIndex;

  /// Fills LiveIndex from the current slots in O(n).
  void buildLiveIndex();
};

} // namespace medley::sim

#endif // MEDLEY_SIM_TASKTABLE_H
