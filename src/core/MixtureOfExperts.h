//===-- core/MixtureOfExperts.h - The mixture policy ------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution as a deployable ThreadPolicy (Sections 4-5).
/// At every parallel region the policy
///   1. judges the *previous* decision: each expert's environment
///      prediction made then is compared against the environment norm
///      observed now, and the selector is updated with the winner
///      (M(f_t) = argmin_k | ||ê_t^k|| - ||e_t|| |);
///   2. asks the selector for the expert best suited to the current
///      features and emits that expert's thread prediction.
/// No expert is ever "tried out": evaluation is entirely through the
/// environment-prediction proxy, so there is no exploration overhead.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_MIXTUREOFEXPERTS_H
#define MEDLEY_CORE_MIXTUREOFEXPERTS_H

#include "core/Expert.h"
#include "core/ExpertSelector.h"
#include "core/MoeStats.h"
#include "policy/ThreadPolicy.h"

#include <memory>

namespace medley::core {

/// Options for the mixture policy.
struct MixtureOptions {
  /// Relative tolerance for counting an environment prediction "accurate"
  /// in the Fig-15a bookkeeping (does not affect selection, which always
  /// uses the closest prediction).
  double EnvAccuracyTolerance = 0.2;

  /// Soft gating (Jacobs et al.'s original mixture formulation): when the
  /// selector can provide a weight distribution, blend the experts' thread
  /// predictions instead of committing to one expert. Statistics still
  /// attribute each decision to the highest-weight expert.
  bool SoftBlend = true;

  /// Optional (non-owning) sink for degradation counters: default-policy
  /// fallbacks under full quarantine and sanitized feature values. Must
  /// outlive the policy instance.
  support::FaultStats *Faults = nullptr;

};

/// Mixture-of-experts thread-selection policy.
class MixtureOfExperts : public policy::ThreadPolicy {
public:
  /// \p Experts is shared (read-only) across policy instances; \p Selector
  /// is owned and adapts online. \p Stats (optional) aggregates behaviour
  /// across instances for the analysis figures.
  MixtureOfExperts(std::shared_ptr<const std::vector<Expert>> Experts,
                   std::unique_ptr<ExpertSelector> Selector,
                   std::shared_ptr<MoeStats> Stats = nullptr,
                   MixtureOptions Options = {});

  unsigned select(const policy::FeatureVector &Features) override;

  /// Pure row of 2K doubles: [0, K) the raw thread-model outputs, filled
  /// when every expert's thread model is linear with one shared scaler;
  /// [K, 2K) the zero-clamped environment predictions, filled when every
  /// environment model is linear and no expert learns it online. A half
  /// that is not filled is computed inside decide() instead.
  size_t rowWidth() const override { return 2 * Experts->size(); }
  void prepare(const policy::FeatureVector &Features,
               double *Row) const override;

  /// Judges the previous decision, gates, and stashes this decision's
  /// environment predictions, reading the expert predictions from \p Row.
  unsigned decide(const policy::FeatureVector &Features,
                  const double *Row) override;

  /// Bumped by every rebindExperts(): rows priced the old experts.
  uint64_t pureGeneration() const override { return Generation; }

  void reset() override;
  const std::string &name() const override;

  const std::vector<Expert> &experts() const { return *Experts; }
  const ExpertSelector &selector() const { return *Selector; }

  /// Index of the expert chosen at the most recent decision.
  size_t lastExpert() const { return LastExpert; }

  /// Swaps in a new expert vector of the same arity while keeping the
  /// selector's learned state — the registry swap boundary (DESIGN.md
  /// §14): pending judgements are dropped (they priced the old experts),
  /// the batched-scoring views are rebuilt and pureGeneration() moves on.
  /// Returns false (and changes nothing) on an arity mismatch. Not part of
  /// the steady decision path.
  bool rebindExperts(std::shared_ptr<const std::vector<Expert>> NewExperts);

  /// Forwards rollback re-admission to a QuarantineSelector-wrapped
  /// selector (no-op otherwise): strikes accumulated under a rolled-back
  /// snapshot must not keep punishing experts under the restored one.
  void readmitQuarantined();

private:
  /// (Re)derives the batched-scoring views — SharedThreadScaler,
  /// ThreadModels, EnvModels, AnyEnvObserver — from the current experts.
  void bindExpertViews();
  void judgePreviousDecision(const policy::FeatureVector &Features);

  /// Records this decision's per-expert environment predictions (the
  /// row's env half when it is filled) so the next call can judge them.
  void stashPending(const policy::FeatureVector &Features, const double *Row,
                    size_t Chosen);

  /// Expert \p K's thread prediction: the row's rounded and clamped raw
  /// output when the thread half is filled, Expert::predictThreads
  /// otherwise. Bit-identical either way.
  unsigned expertThreads(const policy::FeatureVector &Features,
                         const double *Row, size_t K) const;

  std::shared_ptr<const std::vector<Expert>> Experts;
  std::unique_ptr<ExpertSelector> Selector;
  std::shared_ptr<MoeStats> Stats;
  MixtureOptions Options;

  bool HasPending = false;
  Vec PendingFeatures;
  Vec PendingEnvPredictions;
  size_t PendingChosen = 0;
  size_t LastExpert = 0;

  // Per-decision scratch: capacity sticks after the first decision, so the
  // steady-state path never allocates. Instances are per-worker (factory
  // clones), so plain members need no synchronisation.
  Vec ScratchErrors;
  Vec ScratchWeights;
  Vec ScratchRow; ///< select()'s row; rowWidth() doubles from construction.
  std::vector<unsigned> ScratchThreadPreds;

  /// prepare()'s standardised features. prepare() is const but, like the
  /// rest of the scratch, used by one worker at a time.
  mutable Vec ScratchStd;

  /// Set when every expert's thread predictor is linear and uses the same
  /// feature scaler (the ExpertBuilder trains them that way): features are
  /// then standardised once per decision instead of once per expert.
  /// Points into the shared expert vector, which the policy keeps alive.
  const FeatureScaler *SharedThreadScaler = nullptr;

  /// Raw thread-model pointers, filled exactly when SharedThreadScaler is
  /// set; scored in one batch from the shared standardised features.
  std::vector<const LinearModel *> ThreadModels;

  /// Raw environment-model pointers (same lifetime as above), filled only
  /// when every expert is linear: the pending-prediction loop then skips
  /// the per-call Expert indirection. Empty otherwise.
  std::vector<const LinearModel *> EnvModels;

  /// Any expert with an online environment-learning hook? When false the
  /// per-decision observeEnvironment fan-out is a guaranteed no-op.
  bool AnyEnvObserver = false;

  /// True when prepare() fills the row's environment half: every env
  /// model is linear and none learns online, so the predictions are a
  /// function of the features and the expert set alone.
  bool EnvInRow = false;

  uint64_t Generation = 0;
};

} // namespace medley::core

#endif // MEDLEY_CORE_MIXTUREOFEXPERTS_H
