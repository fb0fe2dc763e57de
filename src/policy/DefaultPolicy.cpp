//===-- policy/DefaultPolicy.cpp - OpenMP default policy ----------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/DefaultPolicy.h"

#include <algorithm>
#include <cmath>

using namespace medley::policy;

unsigned DefaultPolicy::select(const FeatureVector &Features) {
  double Row;
  prepare(Features, &Row);
  return decide(Features, &Row);
}

void DefaultPolicy::prepare(const FeatureVector &Features, double *Row) const {
  // f5 is the current number of available processors.
  double Processors = Features.Values[4];
  long N = std::lround(Processors);
  Row[0] = static_cast<double>(std::max(1L, N));
}

const std::string &DefaultPolicy::name() const {
  static const std::string Name = "default";
  return Name;
}
