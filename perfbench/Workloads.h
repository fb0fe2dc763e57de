//===-- perfbench/Workloads.h - The benchmark's workloads -------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (README.md says why each exists). Each runs its
/// set-up several times, then closed-loop passes on a fixed pool of
/// Workers threads for the requested seconds, checks its outputs into the
/// Report, and fills an Outcome that main() turns into metrics.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_PERFBENCH_WORKLOADS_H
#define MEDLEY_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <functional>
#include <map>

namespace perfbench {

/// Worker threads of every workload's pool.
constexpr unsigned Workers = 4;

/// Set-up samples per run; setup_s is their median. Single samples
/// spread by +-30% on a shared 4-core host.
constexpr unsigned SetupSamples = 9;

/// Fewest timed passes a run makes, however long they take.
constexpr size_t MinPasses = 3;

/// Medians over one run.
struct Outcome {
  double SetupS = 0.0;
  double DecisionsPerS = 0.0;
  double PassS = 0.0;
  /// Per-layer metrics by name (traced runs); absent = layer not run.
  std::map<std::string, double> Layers;
};

/// Set-up cost of a run, as medians over SetupSamples samples.
struct SetupTimes {
  double SetupS = 0.0; ///< Median of train + build.
  double TrainS = 0.0;
  double BuildS = 0.0;
};

/// Takes the run's set-up samples. One sample trains the four paper
/// policies (online, offline, analytic, mixture), then calls Build, which
/// constructs and seeds the workload and returns it; it is destroyed after
/// the sample's clock stops. The first sample is taken at construction and
/// trains the process-wide PolicySet the passes use; later ones train
/// fresh sets, so every sample does the same work. Those are spread over
/// the timed window: single samples swing by +-30% as the shared host
/// goes through busier and quieter phases.
class SetupSampler {
public:
  explicit SetupSampler(std::function<std::shared_ptr<void>()> Build);

  /// Between passes: takes the next sample once \p Elapsed seconds of a
  /// \p Window-second window have passed its share of the window.
  void between(double Elapsed, double Window);
  bool done() const { return Total.size() >= SetupSamples; }
  SetupTimes times() const;

private:
  void sample();

  std::function<std::shared_ptr<void>()> Build;
  std::vector<double> Total, Train, BuildS;
};

void runFleet(const Options &Opts, Report &Rep, Outcome &Out);
void runGrid(const Options &Opts, Report &Rep, Outcome &Out);

} // namespace perfbench

#endif // MEDLEY_PERFBENCH_WORKLOADS_H
