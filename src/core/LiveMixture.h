//===-- core/LiveMixture.h - Registry-backed mixture policy -----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity: A Mixture of
// Experts Approach for Runtime Mapping in Dynamic Environments" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mixture policy bound to a live ExpertRegistry (DESIGN.md §14): the
/// inner MixtureOfExperts runs the paper's decision loop unchanged, but at
/// every decision-epoch boundary the policy acquires the registry's
/// current snapshot — one atomic load on the steady path — and, when a new
/// version was published, rebinds the inner mixture's expert vector
/// without touching the selector's learned state (the RCU swap's reader
/// side). The selector keeps its accumulated accuracy across swaps;
/// pending cross-decision judgements that priced the old experts are
/// dropped at the boundary.
///
/// Optionally the policy also drives a RolloutController: its observe()
/// shadow-scores candidates on the decision path, maintain() runs at each
/// epoch boundary, and a completed rollback re-admits quarantined experts
/// (strikes earned under the bad snapshot must not punish the restored
/// one).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_LIVEMIXTURE_H
#define MEDLEY_CORE_LIVEMIXTURE_H

#include "core/ExpertRegistry.h"
#include "core/MixtureOfExperts.h"
#include "core/RolloutController.h"

#include <memory>

namespace medley::core {

/// Mixture-of-experts policy whose expert set follows an ExpertRegistry.
class LiveMixture : public policy::ThreadPolicy {
public:
  /// \p Registry must hold a published snapshot already (the initial
  /// expert set) and must outlive the policy. \p Selector arity must match
  /// that snapshot. \p Rollout (optional, shared with the trainer side)
  /// is serviced from this policy's decision loop; the observe()/
  /// maintain() single-threaded contract is satisfied because one policy
  /// instance drives one program.
  LiveMixture(std::shared_ptr<ExpertRegistry> Registry,
              std::unique_ptr<ExpertSelector> Selector,
              std::shared_ptr<RolloutController> Rollout = nullptr,
              std::shared_ptr<MoeStats> Stats = nullptr,
              MixtureOptions Options = {});

  /// Steady path: one acquire-load epoch check; swaps rebind the inner
  /// mixture and service the rollout machinery.
  void beginDecisionEpoch() override;

  unsigned select(const policy::FeatureVector &Features) override;

  /// The inner mixture's pure row; its generation moves with every
  /// snapshot swap, so rows never outlive the experts that priced them.
  size_t rowWidth() const override { return Inner->rowWidth(); }
  void prepare(const policy::FeatureVector &Features,
               double *Row) const override {
    Inner->prepare(Features, Row);
  }
  unsigned decide(const policy::FeatureVector &Features,
                  const double *Row) override;
  uint64_t pureGeneration() const override { return Inner->pureGeneration(); }

  void observe(const workload::RegionOutcome &Outcome) override;
  void reset() override;
  const std::string &name() const override;

  MixtureOfExperts &mixture() { return *Inner; }
  const MixtureOfExperts &mixture() const { return *Inner; }

  /// Version of the snapshot the policy currently decides with.
  uint64_t boundVersion() const { return BoundVersion; }

  /// Snapshot swaps performed over the policy's lifetime.
  uint64_t swaps() const { return Swaps; }

private:
  std::shared_ptr<ExpertRegistry> Registry;
  std::shared_ptr<RolloutController> Rollout;
  std::unique_ptr<MixtureOfExperts> Inner;

  ExpertRegistry::ReaderEpoch Reader;
  const std::vector<Expert> *BoundExperts = nullptr;
  uint64_t BoundVersion = 0;
  uint64_t Swaps = 0;
};

} // namespace medley::core

#endif // MEDLEY_CORE_LIVEMIXTURE_H
