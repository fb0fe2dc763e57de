//===-- sim/TaskTable.cpp - Struct-of-arrays task state -------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/TaskTable.h"

#include <cassert>

using namespace medley;
using namespace medley::sim;

namespace {

/// Lowest set bit of \p I: the span a 1-based Fenwick node covers.
size_t lowBit(size_t I) { return I & (~I + 1); }

} // namespace

void TaskTable::adopt(std::shared_ptr<Task> T) {
  assert(T && "null task");
  Task *Raw = T.get();
  // Column capacities stick at the task-set high-water mark, so add/remove
  // churn at a stable population never reallocates.
  // medley-lint: allow(hotpath-escape) — amortized sticky column growth.
  Owners.push_back(std::move(T));
  Ptrs.push_back(Raw);
  Threads.push_back(Raw->activeThreads());
  Demand.push_back(Raw->memoryDemand());
  WorkingSet.push_back(Raw->workingSetMb());
  Finished.push_back(Raw->finished() ? 1 : 0);
  LiveIndex.clear();
  ++Generation;
}

void TaskTable::buildLiveIndex() {
  // Linear Fenwick construction: seed each node with its slot's live flag,
  // then push every node's partial sum into its parent.
  const size_t N = Owners.size();
  LiveIndex.assign(N + 1, 0);
  for (size_t I = 1; I <= N; ++I) {
    LiveIndex[I] += Owners[I - 1] ? 1 : 0;
    size_t Parent = I + lowBit(I);
    if (Parent <= N)
      LiveIndex[Parent] += LiveIndex[I];
  }
}

void TaskTable::removeAt(size_t Rank) {
  assert(Rank < size() && "rank past the live task count");
  if (LiveIndex.empty())
    buildLiveIndex();
  // Fenwick descent: the largest Pos whose prefix holds at most Rank live
  // slots; slot Pos (0-based) is then the (Rank+1)-th live one.
  const size_t N = Owners.size();
  size_t Pos = 0;
  size_t Remaining = Rank + 1;
  size_t Step = 1;
  while (Step * 2 <= N)
    Step *= 2;
  for (; Step != 0; Step /= 2)
    if (Pos + Step <= N && LiveIndex[Pos + Step] < Remaining) {
      Pos += Step;
      Remaining -= LiveIndex[Pos];
    }
  const size_t Slot = Pos;
  assert(Owners[Slot] && "rank resolved to a tombstone");
  // Tombstone instead of erase: nulling the slot releases the task now but
  // leaves the survivors in place, so k removals between ticks cost one
  // compaction pass rather than k element-shifting erases.
  Owners[Slot].reset();
  Ptrs[Slot] = nullptr;
  ++Tombstones;
  ++Generation;
  for (size_t I = Slot + 1; I <= N; I += lowBit(I))
    --LiveIndex[I];
}

void TaskTable::compact() const {
  if (Tombstones == 0)
    return;
  // Stable in-place erase across every column at once; survivors keep
  // insertion order so the step() reductions accumulate identically.
  size_t Out = 0;
  for (size_t I = 0, N = Owners.size(); I < N; ++I) {
    if (!Owners[I])
      continue;
    if (Out != I) {
      Owners[Out] = std::move(Owners[I]);
      Ptrs[Out] = Ptrs[I];
      Threads[Out] = Threads[I];
      Demand[Out] = Demand[I];
      WorkingSet[Out] = WorkingSet[I];
      Finished[Out] = Finished[I];
    }
    ++Out;
  }
  Owners.resize(Out);
  Ptrs.resize(Out);
  Threads.resize(Out);
  Demand.resize(Out);
  WorkingSet.resize(Out);
  Finished.resize(Out);
  Tombstones = 0;
  LiveIndex.clear();
  // Compaction only drops tombstones (which every reduction already
  // skips), so the generation is intentionally NOT bumped: cached
  // reduction results stay valid.
}

void TaskTable::refresh(size_t I) {
  assert(I < Owners.size() && Ptrs[I] && "refreshing a tombstoned slot");
  const Task *T = Ptrs[I];
  unsigned NewThreads = T->activeThreads();
  double NewDemand = T->memoryDemand();
  double NewWorkingSet = T->workingSetMb();
  uint8_t NewFinished = T->finished() ? 1 : 0;
  if (NewThreads == Threads[I] && NewDemand == Demand[I] &&
      NewWorkingSet == WorkingSet[I] && NewFinished == Finished[I])
    return;
  Threads[I] = NewThreads;
  Demand[I] = NewDemand;
  WorkingSet[I] = NewWorkingSet;
  Finished[I] = NewFinished;
  ++Generation;
}

const std::vector<std::shared_ptr<Task>> &TaskTable::owners() const {
  compact();
  return Owners;
}
