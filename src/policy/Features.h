//===-- policy/Features.h - The 10-feature vector ---------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the paper's 10-dimensional feature vector f = [c, e] (Table 1):
/// three static code features of the parallel loop followed by seven
/// runtime environment features. Policies and experts consume exactly this
/// representation.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_POLICY_FEATURES_H
#define MEDLEY_POLICY_FEATURES_H

#include "workload/Program.h"

namespace medley::policy {

/// Number of features in the deployed models.
inline constexpr size_t NumFeatures = 10;

/// One decision point's inputs.
struct FeatureVector {
  /// Raw features f1..f10 in Table-1 order. Always finite: buildFeatures
  /// sanitizes corrupted sensor readings before any policy sees them.
  Vec Values;

  /// The paper's environment value ||e_t|| (scaled norm of f4..f10).
  double EnvNorm = 0.0;

  /// Simulated time of the decision.
  double Now = 0.0;

  /// Clamp for thread predictions (machine core count).
  unsigned MaxThreads = 1;

  /// Number of input values the sanitizer had to repair (0 on a clean
  /// sample); feeds support::FaultStats::SanitizedValues.
  unsigned SanitizedCount = 0;
};

/// Table-1 feature names, index-aligned with FeatureVector::Values.
const std::vector<std::string> &featureNames();

/// Assembles the feature vector for a region decision. \p TotalCores is the
/// machine's physical core count, used to scale the environment norm.
/// Corrupted inputs (NaN/Inf fields injected by sensor faults) are
/// sanitized here — the first rung of the degradation ladder — so every
/// downstream policy and expert sees only finite features.
FeatureVector buildFeatures(const workload::RegionContext &Context,
                            unsigned TotalCores);

/// In-place variant: fills \p Out, reusing its Values capacity so the
/// steady-state decision path performs no heap allocation. Produces exactly
/// the same FeatureVector as the value-returning overload.
void buildFeatures(const workload::RegionContext &Context, unsigned TotalCores,
                   FeatureVector &Out);

/// Repairs \p Values in place: every non-finite entry becomes 0. Returns
/// the number of entries repaired.
unsigned sanitizeValues(Vec &Values);

/// Extracts only the environment features (f4..f10) from \p Features.
Vec environmentPart(const FeatureVector &Features);

} // namespace medley::policy

#endif // MEDLEY_POLICY_FEATURES_H
