//===-- core/MixtureOfExperts.cpp - The mixture policy -------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "core/MixtureOfExperts.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace medley;
using namespace medley::core;

MixtureOfExperts::MixtureOfExperts(
    std::shared_ptr<const std::vector<Expert>> Experts,
    std::unique_ptr<ExpertSelector> Selector, std::shared_ptr<MoeStats> Stats,
    MixtureOptions Options)
    : Experts(std::move(Experts)), Selector(std::move(Selector)),
      Stats(std::move(Stats)), Options(Options) {
  assert(this->Experts && !this->Experts->empty() &&
         "mixture needs at least one expert");
  assert(this->Selector &&
         this->Selector->numExperts() == this->Experts->size() &&
         "selector arity must match the expert count");
  assert(!this->Stats || this->Stats->numExperts() == this->Experts->size());

  bindExpertViews();
  ScratchRow.resize(rowWidth());
}

void MixtureOfExperts::bindExpertViews() {
  SharedThreadScaler = nullptr;
  ThreadModels.clear();
  EnvModels.clear();
  AnyEnvObserver = false;

  // ExpertBuilder trains every thread predictor with one corpus-wide
  // scaler; when that holds (element-wise identical moments), the decision
  // path standardises features once and scores all experts from the shared
  // copy — bit-identical, but K-1 fewer standardisations per decision.
  const LinearModel *First = (*Experts)[0].threadModel();
  if (First) {
    SharedThreadScaler = &First->scaler();
    for (size_t K = 1; K < Experts->size(); ++K) {
      const LinearModel *M = (*Experts)[K].threadModel();
      if (!M || M->scaler().means() != First->scaler().means() ||
          M->scaler().scales() != First->scaler().scales()) {
        SharedThreadScaler = nullptr;
        break;
      }
    }
  }

  for (const Expert &E : *Experts) {
    if (E.hasEnvObserver())
      AnyEnvObserver = true;
    // Swap-boundary rebind, not the steady decision path: only the ctor
    // and rebindExperts reach here.
    if (const LinearModel *M = E.envModel())
      // medley-lint: allow(hotpath-escape) swap-boundary rebind
      EnvModels.push_back(M);
  }
  if (EnvModels.size() != Experts->size())
    EnvModels.clear(); // Mixed linear/external experts: keep the slow path.
  EnvInRow = !EnvModels.empty() && !AnyEnvObserver;
  if (SharedThreadScaler)
    for (const Expert &E : *Experts)
      // medley-lint: allow(hotpath-escape) swap-boundary rebind (as above)
      ThreadModels.push_back(E.threadModel());
}

bool MixtureOfExperts::rebindExperts(
    std::shared_ptr<const std::vector<Expert>> NewExperts) {
  if (!NewExperts || NewExperts->size() != Experts->size())
    return false;
  Experts = std::move(NewExperts);
  // Pending env predictions priced the previous expert set; judging the
  // new experts against them would charge them for models they never ran.
  HasPending = false;
  bindExpertViews();
  ++Generation;
  return true;
}

void MixtureOfExperts::readmitQuarantined() {
  if (auto *Guarded = dynamic_cast<QuarantineSelector *>(Selector.get()))
    Guarded->readmitAll();
}

void MixtureOfExperts::prepare(const policy::FeatureVector &Features,
                               double *Row) const {
  const size_t K = Experts->size();
  if (SharedThreadScaler) {
    // Standardise once, then score all experts from the shared copy —
    // bit-identical to each expert's own fused predict().
    SharedThreadScaler->transformInto(Features.Values, ScratchStd);
    LinearModel::predictStandardizedMany(ThreadModels.data(), K, ScratchStd,
                                         Row);
  } else {
    std::fill(Row, Row + K, 0.0); // Unfilled halves are still defined.
  }
  if (EnvInRow) {
    // Bit-identical to Expert::predictEnvNorm: batch the raw predictions,
    // then clamp at zero like predictEnvNorm does.
    LinearModel::predictMany(EnvModels.data(), K, Features.Values, Row + K);
    for (size_t I = K; I < 2 * K; ++I)
      Row[I] = std::max(0.0, Row[I]);
  } else {
    std::fill(Row + K, Row + 2 * K, 0.0);
  }
}

unsigned MixtureOfExperts::expertThreads(const policy::FeatureVector &Features,
                                         const double *Row, size_t K) const {
  if (!SharedThreadScaler)
    return (*Experts)[K].predictThreads(Features);
  // Same rounding and clamping as Expert::predictThreads.
  long R = std::lround(Row[K]);
  R = std::clamp<long>(R, 1, static_cast<long>(Features.MaxThreads));
  return static_cast<unsigned>(R);
}

void MixtureOfExperts::stashPending(const policy::FeatureVector &Features,
                                    const double *Row, size_t Chosen) {
  PendingFeatures = Features.Values;
  const size_t K = Experts->size();
  if (EnvInRow) {
    PendingEnvPredictions.assign(Row + K, Row + 2 * K);
  } else {
    PendingEnvPredictions.resize(K);
    for (size_t I = 0; I < K; ++I)
      PendingEnvPredictions[I] = (*Experts)[I].predictEnvNorm(Features);
  }
  PendingChosen = Chosen;
  HasPending = true;
}

void MixtureOfExperts::judgePreviousDecision(
    const policy::FeatureVector &Features) {
  if (!HasPending)
    return;

  // How far off was each expert's environment prediction made at the
  // previous region, now that the environment is observable?
  double Observed = Features.EnvNorm;
  ScratchErrors.resize(PendingEnvPredictions.size());
  for (size_t K = 0; K < PendingEnvPredictions.size(); ++K)
    ScratchErrors[K] = std::fabs(PendingEnvPredictions[K] - Observed);
  Selector->update(PendingFeatures, ScratchErrors);

  // Experts that learn their environment model online (Section 4.1's
  // retrofit path) receive the realised observation.
  if (AnyEnvObserver)
    for (const Expert &E : *Experts)
      E.observeEnvironment(PendingFeatures, Observed);

  if (Stats) {
    double Tolerance =
        Options.EnvAccuracyTolerance * std::max(Observed, 1e-6);
    for (size_t K = 0; K < PendingEnvPredictions.size(); ++K) {
      bool Accurate =
          std::fabs(PendingEnvPredictions[K] - Observed) <= Tolerance;
      ++Stats->EnvTotal[K];
      if (Accurate)
        ++Stats->EnvAccurate[K];
    }
    ++Stats->MixtureEnvTotal;
    if (std::fabs(PendingEnvPredictions[PendingChosen] - Observed) <=
        Tolerance)
      ++Stats->MixtureEnvAccurate;
  }
  HasPending = false;
}

unsigned MixtureOfExperts::select(const policy::FeatureVector &Features) {
  prepare(Features, ScratchRow.data());
  return decide(Features, ScratchRow.data());
}

unsigned MixtureOfExperts::decide(const policy::FeatureVector &Features,
                                  const double *Row) {
  judgePreviousDecision(Features);

  if (Options.Faults && Features.SanitizedCount > 0)
    Options.Faults->SanitizedValues += Features.SanitizedCount;

  if (Selector->allQuarantined()) {
    // The ladder's floor: every expert's environment predictor has
    // diverged, so no expert can be trusted. Degrade to exactly the
    // OpenMP-default behaviour (n = available processors) while the
    // quarantine backoffs run down; judging continues below, so experts
    // are re-admitted and the mixture resumes automatically.
    if (Options.Faults)
      ++Options.Faults->DefaultFallbacks;
    double Processors = Features.Values[4];
    long N = std::clamp<long>(std::lround(Processors), 1,
                              static_cast<long>(Features.MaxThreads));
    stashPending(Features, Row, LastExpert);
    return static_cast<unsigned>(N);
  }

  size_t Chosen;
  unsigned Threads;
  bool HaveThreadPreds = false;
  Vec &Weights = ScratchWeights;
  if (Options.SoftBlend &&
      Selector->blendWeights(Features.Values, Weights)) {
    // Soft gating: accuracy-weighted blend of the expert predictions.
    ScratchThreadPreds.resize(Experts->size());
    double Blend = 0.0;
    double BestWeight = -1.0;
    Chosen = 0;
    for (size_t K = 0; K < Experts->size(); ++K) {
      unsigned N = expertThreads(Features, Row, K);
      ScratchThreadPreds[K] = N;
      Blend += Weights[K] * static_cast<double>(N);
      if (Weights[K] > BestWeight) {
        BestWeight = Weights[K];
        Chosen = K;
      }
    }
    HaveThreadPreds = true;
    long Rounded = std::lround(Blend);
    Rounded = std::clamp<long>(Rounded, 1,
                               static_cast<long>(Features.MaxThreads));
    Threads = static_cast<unsigned>(Rounded);
  } else {
    Chosen = Selector->select(Features.Values);
    assert(Chosen < Experts->size() && "selector returned a bad index");
    Threads = expertThreads(Features, Row, Chosen);
  }
  LastExpert = Chosen;

  // Stash this decision's environment predictions; they are judged at the
  // next region, which is the paper's next timestamp.
  stashPending(Features, Row, Chosen);

  if (Stats) {
    ++Stats->SelectionCounts[Chosen];
    Stats->MixtureThreads.add(Threads);
    // Thread predictions are pure, so the per-expert predictions cached by
    // the blend loop above are exactly what a recomputation would produce.
    if (!HaveThreadPreds) {
      ScratchThreadPreds.resize(Experts->size());
      for (size_t K = 0; K < Experts->size(); ++K)
        ScratchThreadPreds[K] = expertThreads(Features, Row, K);
    }
    for (size_t K = 0; K < Experts->size(); ++K)
      Stats->ExpertThreads[K].add(ScratchThreadPreds[K]);
  }
  return Threads;
}

void MixtureOfExperts::reset() {
  Selector->reset();
  HasPending = false;
  LastExpert = 0;
}

const std::string &MixtureOfExperts::name() const {
  static const std::string Name = "mixture";
  return Name;
}
