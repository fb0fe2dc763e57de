//===-- policy/DefaultPolicy.h - OpenMP default policy ----------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OpenMP 3.0 default baseline (Section 6.3): "assigns a thread number
/// equal to the current number of available processors", irrespective of
/// any co-executing workload.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_POLICY_DEFAULTPOLICY_H
#define MEDLEY_POLICY_DEFAULTPOLICY_H

#include "policy/ThreadPolicy.h"

namespace medley::policy {

/// n = current number of available processors. The whole answer is a
/// function of the features, so it lives in the one-entry pure row.
class DefaultPolicy : public ThreadPolicy {
public:
  unsigned select(const FeatureVector &Features) override;
  size_t rowWidth() const override { return 1; }
  void prepare(const FeatureVector &Features, double *Row) const override;
  unsigned decide(const FeatureVector &, const double *Row) override {
    return static_cast<unsigned>(Row[0]);
  }
  void reset() override {}
  const std::string &name() const override;
  bool decisionsArePure() const override { return true; }
};

} // namespace medley::policy

#endif // MEDLEY_POLICY_DEFAULTPOLICY_H
