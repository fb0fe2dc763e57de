//===-- core/Expert.h - A (w, m) expert pair --------------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An expert in the paper's sense (Section 4.1): two offline-trained models
/// over the same training data —
///   * the thread predictor  w : f -> n        (how many threads to use)
///   * the environment predictor m : f_t -> ||ê_{t+1}||  (what the world
///     will look like next)
/// The environment predictor exists purely to let the online selector judge
/// this expert's quality: w's accuracy cannot be observed at runtime, m's
/// can, and the two are correlated because they share training data.
///
/// The standard experts are linear (Section 5.2.3), but the paper allows
/// "any (potentially external) expert that determines these two parameters,
/// via whatever means" — so an Expert can also be built from arbitrary
/// prediction functions (k-NN models, hand-written heuristics, ...), and an
/// expert without an offline environment model can learn one online from
/// the observations the mixture feeds back (Section 4.1's retrofit path).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_CORE_EXPERT_H
#define MEDLEY_CORE_EXPERT_H

#include "ml/LinearModel.h"
#include "policy/Features.h"

#include <functional>
#include <memory>

namespace medley::core {

/// One offline-trained mapping policy with its quality proxy.
class Expert {
public:
  /// Raw prediction function over the 10-feature vector.
  using PredictFn = std::function<double(const Vec &)>;

  /// Callback fed the observed environment norm after each judged decision
  /// (used by experts that learn their environment model online).
  using ObserveEnvFn = std::function<void(const Vec &Features,
                                          double ObservedEnvNorm)>;

  Expert() = default;

  /// The standard construction: two linear models (Table 1).
  Expert(std::string Name, std::string Description, LinearModel ThreadModel,
         LinearModel EnvModel, double MeanTrainingEnv);

  /// External-expert construction: arbitrary thread / environment
  /// predictors and an optional online environment-learning hook.
  Expert(std::string Name, std::string Description, PredictFn ThreadFn,
         PredictFn EnvFn, double MeanTrainingEnv,
         ObserveEnvFn ObserveEnv = nullptr);

  /// Thread prediction n = clamp(round(w . f + beta), 1, MaxThreads).
  unsigned predictThreads(const policy::FeatureVector &Features) const;

  /// Environment prediction ||ê_{t+1}|| = m . f_t + beta.
  double predictEnvNorm(const policy::FeatureVector &Features) const;

  /// Reports the realised environment for a past decision at \p Features
  /// (no-op for purely offline experts).
  void observeEnvironment(const Vec &Features, double ObservedEnvNorm) const;

  const std::string &name() const { return Name; }
  const std::string &description() const { return Description; }

  /// The linear thread/environment models, or nullptr for an external
  /// (non-linear) expert. Used for Table-1 style introspection only.
  const LinearModel *threadModel() const;
  const LinearModel *envModel() const;

  /// Mean environment norm of the expert's training data; used to order
  /// experts along the hyperplane selector's axis.
  double meanTrainingEnv() const { return MeanTrainingEnv; }

  /// True when the expert learns its environment model online and wants
  /// observeEnvironment callbacks; the mixture skips the feedback loop
  /// entirely when no expert does.
  bool hasEnvObserver() const { return static_cast<bool>(ObserveEnv); }

private:
  std::string Name;
  std::string Description;
  /// Set for standard linear experts; introspection only.
  std::shared_ptr<const LinearModel> LinearThread;
  std::shared_ptr<const LinearModel> LinearEnv;
  PredictFn ThreadFn;
  PredictFn EnvFn;
  ObserveEnvFn ObserveEnv;
  double MeanTrainingEnv = 0.0;
};

} // namespace medley::core

#endif // MEDLEY_CORE_EXPERT_H
