//===-- runtime/PolicyBinding.cpp - Bind policies to programs -----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "runtime/PolicyBinding.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>

using namespace medley;
using namespace medley::runtime;

namespace {

/// Key of one epoch-table entry. The quadruple (Region, Epoch,
/// WorkloadBits, MaxThreads) pins every input of buildFeatures bitwise:
/// code features come from the RegionSpec, the environment epoch proves
/// the sampled Env unchanged apart from WorkloadThreads (keyed by its raw
/// bits), and TotalCores is a binding constant. Generation is the policy's
/// pureGeneration() when the row was prepared. Epoch 0 marks an empty
/// slot: contexts with epoch 0 never enter the table.
struct EntryKey {
  const workload::RegionSpec *Region = nullptr;
  uint64_t Epoch = 0;
  uint64_t WorkloadBits = 0;
  uint64_t Generation = 0;
  unsigned MaxThreads = 0;
  unsigned SanitizedCount = 0;
};

/// 64 sets of 4 ways. A fleet shard tick sees about 30 distinct keys per
/// epoch, so stale-first replacement within a set keeps nearly all of
/// them resident.
constexpr size_t Ways = 4;
constexpr size_t Sets = 64;
constexpr size_t NumEntries = Sets * Ways;

/// Payload doubles per entry ahead of the row: features, then EnvNorm.
constexpr size_t FeatureDoubles = policy::NumFeatures + 1;

uint64_t mix(uint64_t X) {
  X ^= X >> 33;
  X *= 0xFF51AFD7ED558CCDULL;
  X ^= X >> 33;
  return X;
}

uint64_t doubleBits(double X) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(X));
  std::memcpy(&Bits, &X, sizeof(Bits));
  return Bits;
}

/// Per-binding chooser state: the epoch table plus feature scratch. Keys
/// and payload are two flat blocks allocated once at bind time; the
/// payload (features, EnvNorm, row per entry, then one spare row for
/// epoch-0 contexts) is written before it is ever read, so it is left
/// uninitialised.
struct BindingState {
  explicit BindingState(size_t RowWidth)
      : RowWidth(RowWidth), Stride(FeatureDoubles + RowWidth),
        Payload(std::make_unique_for_overwrite<double[]>(NumEntries * Stride +
                                                         RowWidth)) {}

  /// Fills Features for \p Context and returns the policy's row for them,
  /// from the table when an entry for this key and generation exists.
  const double *lookup(const policy::ThreadPolicy &Policy,
                       const workload::RegionContext &Context,
                       unsigned TotalCores);

  const size_t RowWidth;
  const size_t Stride;
  std::array<EntryKey, NumEntries> Keys{};
  std::unique_ptr<double[]> Payload;
  unsigned NextVictim = 0;
  policy::FeatureVector Features;
#ifndef NDEBUG
  policy::FeatureVector Check;
  std::vector<double> CheckRow;
#endif
};

const double *BindingState::lookup(const policy::ThreadPolicy &Policy,
                                   const workload::RegionContext &Context,
                                   unsigned TotalCores) {
  if (Context.EnvEpoch == 0) {
    // No epoch proof exists outside the simulator: always build.
    double *Row = Payload.get() + NumEntries * Stride;
    policy::buildFeatures(Context, TotalCores, Features);
    Policy.prepare(Features, Row);
    return Row;
  }

  const uint64_t WorkloadBits = doubleBits(Context.Env.WorkloadThreads);
  const uint64_t Generation = Policy.pureGeneration();
  const size_t Set =
      (mix(reinterpret_cast<uintptr_t>(Context.Region) ^
           mix(Context.EnvEpoch) ^ mix(WorkloadBits) ^ Context.MaxThreads) &
       (Sets - 1)) *
      Ways;
  size_t Victim = NumEntries;
  for (size_t W = Set; W < Set + Ways; ++W) {
    const EntryKey &Key = Keys[W];
    if (Key.Epoch == Context.EnvEpoch && Key.Region == Context.Region &&
        Key.WorkloadBits == WorkloadBits &&
        Key.MaxThreads == Context.MaxThreads) {
      if (Key.Generation != Generation) {
        Victim = W; // Priced by models the policy no longer uses.
        break;
      }
      const double *Entry = Payload.get() + W * Stride;
      Features.Values.assign(Entry, Entry + policy::NumFeatures);
      Features.EnvNorm = Entry[policy::NumFeatures];
      Features.Now = Context.Now;
      Features.MaxThreads = Key.MaxThreads;
      Features.SanitizedCount = Key.SanitizedCount;
      const double *Row = Entry + FeatureDoubles;
#ifndef NDEBUG
      // The purity proof, checked: a rebuild reproduces the entry bitwise.
      policy::buildFeatures(Context, TotalCores, Check);
      CheckRow.resize(RowWidth);
      Policy.prepare(Check, CheckRow.data());
      assert(std::memcmp(Check.Values.data(), Entry,
                         sizeof(double) * policy::NumFeatures) == 0 &&
             doubleBits(Check.EnvNorm) == doubleBits(Features.EnvNorm) &&
             Check.MaxThreads == Features.MaxThreads &&
             Check.SanitizedCount == Features.SanitizedCount &&
             "epoch-table features differ from a rebuild");
      assert(std::memcmp(CheckRow.data(), Row, sizeof(double) * RowWidth) ==
                 0 &&
             "epoch-table row differs from a fresh prepare()");
#endif
      return Row;
    }
    // Epochs only grow, so an entry from an older one is dead.
    if (Victim == NumEntries && Key.Epoch != Context.EnvEpoch)
      Victim = W;
  }
  if (Victim == NumEntries)
    Victim = Set + (NextVictim++ & (Ways - 1));

  double *Entry = Payload.get() + Victim * Stride;
  policy::buildFeatures(Context, TotalCores, Features);
  assert(Features.Values.size() == policy::NumFeatures);
  std::copy(Features.Values.begin(), Features.Values.end(), Entry);
  Entry[policy::NumFeatures] = Features.EnvNorm;
  double *Row = Entry + FeatureDoubles;
  Policy.prepare(Features, Row);
  Keys[Victim] = {Context.Region,     Context.EnvEpoch,
                  WorkloadBits,       Generation,
                  Context.MaxThreads, Features.SanitizedCount};
  return Row;
}

} // namespace

unsigned medley::runtime::threadCeiling(const policy::FeatureVector &Features) {
  // f5 is the observed available-processor count; buildFeatures guarantees
  // it is finite and non-negative. During a zero-available window the
  // ceiling is 1: a program cannot run with no threads, but it must not
  // pile more onto a machine that has none.
  double Processors = Features.Values[4];
  long Avail = std::lround(std::min(
      Processors, static_cast<double>(Features.MaxThreads)));
  long Ceiling = std::clamp<long>(
      Avail, 1, static_cast<long>(std::max(1u, Features.MaxThreads)));
  return static_cast<unsigned>(Ceiling);
}

workload::ThreadChooser
medley::runtime::bindPolicy(policy::ThreadPolicy &Policy, unsigned TotalCores,
                            std::vector<Decision> *Trace) {
  // One state block per binding: the chooser is called once per region
  // decision on a single worker, so the table and feature buffers are
  // reused allocation-free across decisions without any synchronisation.
  auto State = std::make_shared<BindingState>(Policy.rowWidth());
  // A pure policy has no epoch boundary to observe.
  const bool Pure = Policy.decisionsArePure();
  return [&Policy, TotalCores, Trace, Pure,
          State](const workload::RegionContext &Context) {
    // Epoch boundary first: a registry-backed policy swaps to the latest
    // published snapshot here (moving its pureGeneration), so the
    // decision below runs entirely against one consistent expert set.
    if (!Pure)
      Policy.beginDecisionEpoch();
    const double *Row = State->lookup(Policy, Context, TotalCores);
    const policy::FeatureVector &Features = State->Features;
    unsigned Raw = Policy.decide(Features, Row);
    unsigned Ceiling = threadCeiling(Features);
    unsigned Threads = std::clamp(Raw, 1u, Ceiling);

    if (Trace) {
      Decision D;
      D.Time = Context.Now;
      D.Threads = Threads;
      D.EnvNorm = Features.EnvNorm;
      D.AvailableProcessors = Ceiling;
      D.Clamped = Threads != Raw;
      Trace->push_back(D);
    }
    return Threads;
  };
}

workload::RegionObserver
medley::runtime::bindObserver(policy::ThreadPolicy &Policy) {
  return [&Policy](const workload::RegionOutcome &Outcome) {
    Policy.observe(Outcome);
  };
}
