//===-- sim/AvailabilityPattern.h - Processor availability ------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models changes in the number of available processors over time. The paper
/// varies availability at two frequencies — every 20 s ("low") and every
/// 10 s ("high") — and replays a live-system trace including a hardware
/// failure that removes half the processors (Section 7.5).
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_SIM_AVAILABILITYPATTERN_H
#define MEDLEY_SIM_AVAILABILITYPATTERN_H

#include "support/Random.h"

#include <memory>
#include <utility>
#include <vector>

namespace medley::sim {

/// Supplies the number of available cores at a (monotonically queried)
/// point in simulated time.
class AvailabilityPattern {
public:
  virtual ~AvailabilityPattern();

  /// Returns the core count in effect at \p Time. Queries are made with
  /// non-decreasing Time; stateful patterns rely on that.
  virtual unsigned coresAt(double Time) = 0;

  /// Earliest time strictly after \p Time at which coresAt may return a
  /// different value: the caller may cache coresAt(Time) on the half-open
  /// interval [Time, nextChangeAt(Time)). The default returns \p Time —
  /// "no guarantee, requery every tick" — so subclasses that don't
  /// override keep their exact pre-caching behaviour. Patterns with known
  /// breakpoints override to let the simulator skip per-tick queries.
  virtual double nextChangeAt(double Time) { return Time; }

  /// Resets any internal state so the pattern replays identically.
  virtual void reset() = 0;
};

/// A constant number of cores (the paper's "static" setting).
class StaticAvailability : public AvailabilityPattern {
public:
  /// \p Cores may be 0: every core hot-unplugged for the whole run. The
  /// simulator handles a 0-core window (Simulation::recomputeTickState):
  /// tasks get a zero CPU share and make no progress, and the monitor's
  /// samples stay finite.
  explicit StaticAvailability(unsigned Cores);

  unsigned coresAt(double Time) override;
  double nextChangeAt(double Time) override; ///< Never changes: +infinity.
  void reset() override {}

private:
  unsigned Cores;
};

/// Availability that re-draws every \p Period seconds by randomly walking
/// across a ladder of levels (fractions of the maximum core count). This is
/// the paper's low-frequency (20 s) / high-frequency (10 s) hardware change.
class PeriodicAvailability : public AvailabilityPattern {
public:
  /// \p Levels are candidate core counts in increasing order; the walk moves
  /// at most one rung per period and never leaves the ladder.
  PeriodicAvailability(std::vector<unsigned> Levels, double Period,
                       uint64_t Seed);

  /// Builds the standard ladder {P/4, P/2, 3P/4, P} for a machine of
  /// \p MaxCores, starting at the top.
  static std::unique_ptr<PeriodicAvailability>
  standardLadder(unsigned MaxCores, double Period, uint64_t Seed);

  unsigned coresAt(double Time) override;
  double nextChangeAt(double Time) override; ///< Next period boundary.
  void reset() override;

private:
  std::vector<unsigned> Levels;
  double Period;
  uint64_t Seed;
  Rng Generator;
  long CurrentEpoch = -1;
  size_t CurrentLevel = 0;
};

/// Piecewise-constant availability replayed from (time, cores) breakpoints.
/// Used for the Figure-1 live trace and its half-capacity failure window.
class TraceAvailability : public AvailabilityPattern {
public:
  /// \p Points must be sorted by time; the first point should be at time 0.
  explicit TraceAvailability(std::vector<std::pair<double, unsigned>> Points);

  unsigned coresAt(double Time) override;
  double nextChangeAt(double Time) override; ///< Next breakpoint after Time.
  void reset() override {}

private:
  std::vector<std::pair<double, unsigned>> Points;
};

} // namespace medley::sim

#endif // MEDLEY_SIM_AVAILABILITYPATTERN_H
