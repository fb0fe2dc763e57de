//===-- exp/PolicySet.h - Trained-policy registry ---------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds and caches the trained artefacts every experiment needs — the
/// expert sets (1/2/4/8), the monolithic offline model, the feature scaler
/// — and exposes policy factories by name. Training happens once per
/// process (the paper's "one-off cost").
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_EXP_POLICYSET_H
#define MEDLEY_EXP_POLICYSET_H

#include "core/ExpertBuilder.h"
#include "core/ExpertRegistry.h"
#include "core/MixtureOfExperts.h"
#include "core/RolloutController.h"

#include <map>

namespace medley::exp {

/// Process-wide registry of trained policies.
class PolicySet {
public:
  /// The shared, lazily trained instance.
  static PolicySet &instance();

  explicit PolicySet(core::TrainingConfig Config =
                         core::TrainingConfig::standard());

  core::ExpertBuilder &builder() { return Builder; }

  /// Experts of granularity \p K (trained and cached on first use).
  std::shared_ptr<const std::vector<core::Expert>> experts(unsigned K);

  /// The per-expert training datasets of granularity \p K.
  const std::vector<core::BuiltExpert> &builtExperts(unsigned K);

  /// Factory for one of the paper's policies: "default", "online",
  /// "offline", "analytic" or "mixture" (4 experts, regime selector).
  policy::PolicyFactory factory(const std::string &Name);

  /// Mixture factory with explicit granularity and selector kind
  /// ("regime", "accuracy", "binned", "perceptron", "hyperplane", "random"). \p Stats, if given, is shared
  /// by every instance the factory creates. \p Options configures each
  /// instance.
  policy::PolicyFactory
  mixtureFactory(unsigned NumExperts, const std::string &SelectorKind,
                 std::shared_ptr<core::MoeStats> Stats = nullptr,
                 core::MixtureOptions Options = {});

  /// Mixture factory wrapped in the degradation ladder: the selector is
  /// decorated with a QuarantineSelector, and the policy degrades to
  /// DefaultPolicy behaviour whenever every expert is quarantined.
  /// \p Faults (optional, non-owning, NOT thread-safe) receives the
  /// degradation counters of every instance the factory creates — pass
  /// nullptr when instances run on multiple driver threads.
  policy::PolicyFactory
  hardenedMixtureFactory(unsigned NumExperts, const std::string &SelectorKind,
                         core::QuarantineOptions Quarantine = {},
                         support::FaultStats *Faults = nullptr,
                         std::shared_ptr<core::MoeStats> Stats = nullptr);

  /// Factory pinning the mixture to single expert \p Index of a
  /// \p NumExperts set (the Fig-15c single-expert bars).
  policy::PolicyFactory singleExpertFactory(unsigned NumExperts,
                                            size_t Index);

  /// The process-wide live expert registry, seeded on first use with the
  /// standard 4-expert set, the corpus feature scaler and the regime
  /// selector prototype (version 1). The lifecycle machinery (trainer,
  /// rollout) publishes retrained snapshots into it.
  std::shared_ptr<core::ExpertRegistry> liveRegistry();

  /// Registry-backed mixture factory ("mixture-live"): every instance
  /// follows liveRegistry() publications, swapping experts at decision-
  /// epoch boundaries while keeping its selector's learned state. The
  /// selector is quarantine-hardened so rollbacks can re-admit strikes.
  /// \p Rollout, if given, is serviced from the instances' decision loops
  /// — its single-threaded contract means such a factory must then create
  /// exactly one instance. \p Faults as in hardenedMixtureFactory.
  policy::PolicyFactory
  liveMixtureFactory(unsigned NumExperts, const std::string &SelectorKind,
                     std::shared_ptr<core::RolloutController> Rollout = nullptr,
                     core::QuarantineOptions Quarantine = {},
                     support::FaultStats *Faults = nullptr,
                     std::shared_ptr<core::MoeStats> Stats = nullptr);

  /// Policy names in the paper's presentation order.
  static const std::vector<std::string> &standardPolicies();

private:
  core::ExpertBuilder Builder;
  std::map<unsigned, std::vector<core::BuiltExpert>> Built;
  std::map<unsigned, std::shared_ptr<const std::vector<core::Expert>>>
      ExpertSets;
  bool HaveScaler = false;
  FeatureScaler Scaler;
  bool HaveOffline = false;
  std::shared_ptr<LinearModel> OfflineModel;
  std::shared_ptr<core::ExpertRegistry> LiveRegistry;
  uint64_t AnalyticSeedCounter = 0x5EED0;

  const FeatureScaler &featureScaler();
  const LinearModel &offlineModel();
  std::shared_ptr<core::ExpertSelector>
  selectorPrototype(unsigned NumExperts, const std::string &SelectorKind);
};

} // namespace medley::exp

#endif // MEDLEY_EXP_POLICYSET_H
