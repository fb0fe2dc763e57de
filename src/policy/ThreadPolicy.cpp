//===-- policy/ThreadPolicy.cpp - Mapping policy interface -------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "policy/ThreadPolicy.h"

using namespace medley::policy;

ThreadPolicy::~ThreadPolicy() = default;

void ThreadPolicy::observe(const workload::RegionOutcome &) {}

size_t ThreadPolicy::rowWidth() const { return 0; }

void ThreadPolicy::prepare(const FeatureVector &, double *) const {}

unsigned ThreadPolicy::decide(const FeatureVector &Features, const double *) {
  return select(Features);
}

uint64_t ThreadPolicy::pureGeneration() const { return 0; }

void ThreadPolicy::beginDecisionEpoch() {}
