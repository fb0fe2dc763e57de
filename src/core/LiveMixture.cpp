//===-- core/LiveMixture.cpp - Registry-backed mixture policy ------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/LiveMixture.h"

#include <cassert>

using namespace medley;
using namespace medley::core;

LiveMixture::LiveMixture(std::shared_ptr<ExpertRegistry> Registry,
                         std::unique_ptr<ExpertSelector> Selector,
                         std::shared_ptr<RolloutController> Rollout,
                         std::shared_ptr<MoeStats> Stats,
                         MixtureOptions Options)
    : Registry(std::move(Registry)), Rollout(std::move(Rollout)) {
  assert(this->Registry && "live mixture needs a registry");
  const ExpertSnapshot *Snap = this->Registry->acquire(Reader);
  assert(Snap && "registry must hold an initial snapshot");
  Inner = std::make_unique<MixtureOfExperts>(
      Snap->Experts, std::move(Selector), std::move(Stats), Options);
  // Identity tag for publication detection: only ever *compared* against
  // the freshly acquired snapshot, never dereferenced, so a retired
  // generation cannot be reached through it (and `Reader` pins the
  // current one regardless).
  // medley-lint: allow(snapshot-retention)
  BoundExperts = Snap->Experts.get();
  BoundVersion = Snap->Version;
}

void LiveMixture::beginDecisionEpoch() {
  // Rollout transitions (mailbox staging, publication, rollback) execute
  // here, off the decision's feature/selection path.
  if (Rollout) {
    Rollout->maintain();
    if (Rollout->consumeRollback())
      // The rolled-back snapshot struck its way out; those strikes say
      // nothing about the restored experts.
      Inner->readmitQuarantined();
  }

  const ExpertSnapshot *Snap = Registry->acquire(Reader);
  if (!Snap || Snap->Experts.get() == BoundExperts)
    return; // Steady path: nothing published since the last decision.
  if (Inner->rebindExperts(Snap->Experts)) {
    // Same identity-tag pattern as the constructor: compared, never
    // dereferenced, and `Reader` keeps the matching epoch pinned.
    // medley-lint: allow(snapshot-retention)
    BoundExperts = Snap->Experts.get();
    BoundVersion = Snap->Version;
    ++Swaps;
  }
  // An arity-mismatched snapshot (foreign publication) is skipped: the
  // policy keeps deciding with the experts it has.
}

unsigned LiveMixture::select(const policy::FeatureVector &Features) {
  if (Rollout)
    Rollout->observe(Features);
  return Inner->select(Features);
}

unsigned LiveMixture::decide(const policy::FeatureVector &Features,
                             const double *Row) {
  if (Rollout)
    Rollout->observe(Features);
  return Inner->decide(Features, Row);
}

void LiveMixture::observe(const workload::RegionOutcome &Outcome) {
  Inner->observe(Outcome);
}

void LiveMixture::reset() { Inner->reset(); }

const std::string &LiveMixture::name() const {
  static const std::string Name = "mixture-live";
  return Name;
}
