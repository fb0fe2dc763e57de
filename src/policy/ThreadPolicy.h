//===-- policy/ThreadPolicy.h - Mapping policy interface --------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface every thread-selection policy implements: a decision is
/// taken at every parallel region start from the 10-feature vector, and
/// observe() reports each completed region so adaptive policies can react.
/// One policy instance drives one program for one run; reset() rewinds any
/// adaptation state between runs.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_POLICY_THREADPOLICY_H
#define MEDLEY_POLICY_THREADPOLICY_H

#include "policy/Features.h"

#include <cstdint>
#include <memory>

namespace medley::policy {

/// Abstract thread-selection policy.
///
/// A decision splits into two halves. prepare() computes the policy's pure
/// row: everything that is a function of the features alone (for the
/// mixture, every expert's raw thread and environment prediction). decide()
/// runs the sequential rest (judging, adaptation, gating, statistics) on
/// the features plus a row prepare() filled for exactly those features.
/// The runtime binding keeps prepared rows in its epoch table and calls
/// prepare() only on a miss; select() is the two halves back to back.
class ThreadPolicy {
public:
  virtual ~ThreadPolicy();

  /// Chooses a thread count for the upcoming region execution. The result
  /// is clamped by the runtime to [1, Features.MaxThreads]. Must equal
  /// prepare() followed by decide() on a fresh row.
  virtual unsigned select(const FeatureVector &Features) = 0;

  /// Number of doubles in the pure row; fixed for the policy's lifetime.
  /// Default: 0, no pure part (decide() then falls back to select()).
  virtual size_t rowWidth() const;

  /// Fills Row[0, rowWidth()) from \p Features. Must be a pure function
  /// of every FeatureVector field except Now, and of pureGeneration():
  /// no adaptation state read, nothing written but the row (and scratch).
  virtual void prepare(const FeatureVector &Features, double *Row) const;

  /// The sequential half of a decision. \p Row holds what prepare()
  /// computed for bitwise-equal features under the current
  /// pureGeneration(). Default: select(Features), ignoring the row.
  virtual unsigned decide(const FeatureVector &Features, const double *Row);

  /// Names the models prepare() reads. A policy bumps it whenever those
  /// change (the live mixture's expert-set rebind); a row prepared under
  /// another generation must not be reused. Default: 0, never changes.
  virtual uint64_t pureGeneration() const;

  /// Decision-epoch boundary: invoked by the runtime binding immediately
  /// before each decision's features are assembled. Policies backed by a
  /// versioned store (the expert registry) use this to pick up a freshly
  /// published snapshot — mid-decision state never changes under a policy.
  /// Default: no-op. Must be cheap; it runs on every decision.
  virtual void beginDecisionEpoch();

  /// Reports a completed region execution. Default: ignore.
  virtual void observe(const workload::RegionOutcome &Outcome);

  /// True when select() is a pure function of the feature vector: no
  /// adaptation state read or written, no randomness, no external snapshot
  /// swaps at epoch boundaries. The runtime binding asks once, when it
  /// binds the policy, and then skips beginDecisionEpoch() for a pure
  /// policy. Default: false (the conservative answer is always correct).
  virtual bool decisionsArePure() const { return false; }

  /// Rewinds adaptation state for a fresh run.
  virtual void reset() = 0;

  /// Short policy name ("default", "online", "offline", "analytic", ...).
  virtual const std::string &name() const = 0;
};

/// Factory type used by the experiment driver: each run gets fresh policy
/// instances.
using PolicyFactory = std::function<std::unique_ptr<ThreadPolicy>()>;

} // namespace medley::policy

#endif // MEDLEY_POLICY_THREADPOLICY_H
