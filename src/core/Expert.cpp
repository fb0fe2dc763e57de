//===-- core/Expert.cpp - A (w, m) expert pair ---------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Expert.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::core;

Expert::Expert(std::string Name, std::string Description,
               LinearModel ThreadModel, LinearModel EnvModel,
               double MeanTrainingEnv)
    : Name(std::move(Name)), Description(std::move(Description)),
      LinearThread(std::make_shared<LinearModel>(std::move(ThreadModel))),
      LinearEnv(std::make_shared<LinearModel>(std::move(EnvModel))),
      MeanTrainingEnv(MeanTrainingEnv) {
  assert(LinearThread->dimension() == policy::NumFeatures &&
         LinearEnv->dimension() == policy::NumFeatures &&
         "expert models must use the 10-feature representation");
  auto W = LinearThread;
  ThreadFn = [W](const Vec &X) { return W->predict(X); };
  auto M = LinearEnv;
  EnvFn = [M](const Vec &X) { return M->predict(X); };
}

Expert::Expert(std::string Name, std::string Description, PredictFn ThreadFn,
               PredictFn EnvFn, double MeanTrainingEnv,
               ObserveEnvFn ObserveEnv)
    : Name(std::move(Name)), Description(std::move(Description)),
      ThreadFn(std::move(ThreadFn)), EnvFn(std::move(EnvFn)),
      ObserveEnv(std::move(ObserveEnv)), MeanTrainingEnv(MeanTrainingEnv) {
  assert(this->ThreadFn && this->EnvFn &&
         "external experts need both prediction functions");
}

unsigned Expert::predictThreads(const policy::FeatureVector &Features) const {
  // Standard linear experts skip the std::function trampoline: the lambda
  // stored in ThreadFn would do exactly this call, so going direct is
  // bit-identical and keeps the per-decision path free of indirection.
  double Raw = LinearThread ? LinearThread->predict(Features.Values)
                            : ThreadFn(Features.Values);
  long N = std::lround(Raw);
  N = std::clamp<long>(N, 1, static_cast<long>(Features.MaxThreads));
  return static_cast<unsigned>(N);
}

double Expert::predictEnvNorm(const policy::FeatureVector &Features) const {
  double Raw = LinearEnv ? LinearEnv->predict(Features.Values)
                         : EnvFn(Features.Values);
  return std::max(0.0, Raw);
}

void Expert::observeEnvironment(const Vec &Features,
                                double ObservedEnvNorm) const {
  if (ObserveEnv)
    ObserveEnv(Features, ObservedEnvNorm);
}

const LinearModel *Expert::threadModel() const { return LinearThread.get(); }

const LinearModel *Expert::envModel() const { return LinearEnv.get(); }
