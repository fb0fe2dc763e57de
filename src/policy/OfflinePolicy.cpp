//===-- policy/OfflinePolicy.cpp - Offline-model policy -----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/OfflinePolicy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::policy;

OfflinePolicy::OfflinePolicy(LinearModel ThreadModel, std::string PolicyName)
    : ThreadModel(std::move(ThreadModel)), PolicyName(std::move(PolicyName)) {
  assert(this->ThreadModel.dimension() == NumFeatures &&
         "offline model arity mismatch");
}

unsigned OfflinePolicy::select(const FeatureVector &Features) {
  double Row;
  prepare(Features, &Row);
  return decide(Features, &Row);
}

void OfflinePolicy::prepare(const FeatureVector &Features, double *Row) const {
  long N = std::lround(ThreadModel.predict(Features.Values));
  N = std::clamp<long>(N, 1, static_cast<long>(Features.MaxThreads));
  Row[0] = static_cast<double>(N);
}
