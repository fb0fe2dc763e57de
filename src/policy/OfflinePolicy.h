//===-- policy/OfflinePolicy.h - Offline-model policy -----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "offline" baseline (Section 6.3): a single machine-learning model
/// (CGO'13-style) trained ahead of time predicts the thread count from the
/// 10 features at every region. It exploits prior knowledge but never
/// adapts — exactly one monolithic model for all environments. The same
/// class also serves as the Figure-14(c) "aggregate model" built from the
/// union of all experts' training data.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_POLICY_OFFLINEPOLICY_H
#define MEDLEY_POLICY_OFFLINEPOLICY_H

#include "ml/LinearModel.h"
#include "policy/ThreadPolicy.h"

namespace medley::policy {

/// Predicts n = clamp(round(w . f + beta)) from an offline-trained model.
class OfflinePolicy : public ThreadPolicy {
public:
  explicit OfflinePolicy(LinearModel ThreadModel,
                         std::string PolicyName = "offline");

  unsigned select(const FeatureVector &Features) override;
  /// The clamped prediction is the whole answer: a one-entry pure row.
  size_t rowWidth() const override { return 1; }
  void prepare(const FeatureVector &Features, double *Row) const override;
  unsigned decide(const FeatureVector &, const double *Row) override {
    return static_cast<unsigned>(Row[0]);
  }
  void reset() override {}
  const std::string &name() const override { return PolicyName; }
  /// One frozen model, no adaptation: decisions depend on features alone.
  bool decisionsArePure() const override { return true; }

  const LinearModel &model() const { return ThreadModel; }

private:
  LinearModel ThreadModel;
  std::string PolicyName;
};

} // namespace medley::policy

#endif // MEDLEY_POLICY_OFFLINEPOLICY_H
