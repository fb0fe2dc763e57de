//===-- runtime/CoExecution.h - Target/workload co-execution ----*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment execution primitive of Section 6: "Target and workloads
/// begin their execution at the same time and continue running till the
/// other finishes." The target runs to completion under its policy; every
/// workload program loops (restarting when done) until the target finishes.
/// The run reports the target's completion time, the workload's aggregate
/// throughput, and optional traces for the timeline figures.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_RUNTIME_COEXECUTION_H
#define MEDLEY_RUNTIME_COEXECUTION_H

#include "runtime/PolicyBinding.h"
#include "sim/Simulation.h"
#include "trace/TickTrace.h"
#include "workload/ThreadPattern.h"

#include <memory>

namespace medley::runtime {

/// Factory for availability patterns (patterns are stateful, so every run
/// constructs a fresh one).
using AvailabilityFactory =
    std::function<std::unique_ptr<sim::AvailabilityPattern>()>;

/// Configuration shared by the runs of one experimental scenario.
struct CoExecutionConfig {
  sim::MachineConfig Machine = sim::MachineConfig::evaluationPlatform();
  AvailabilityFactory Availability;
  double Tick = 0.1;
  double MaxTime = 900.0; ///< Hard cap; runs report a timeout beyond it.

  /// Reproducible workload thread behaviour (when programs are
  /// pattern-driven): seed, thread range and change period of the random
  /// walk. Each workload program derives its own stream from the seed.
  uint64_t WorkloadSeed = 0xC0FFEE;
  unsigned WorkloadMinThreads = 2;
  unsigned WorkloadMaxThreads = 16;
  double WorkloadChangePeriod = 5.0;

  /// Record per-tick traces (availability, workload threads, env norm).
  bool RecordTraces = false;

  /// Optional fault injection (the chaos harness): when set, every run
  /// constructs a fresh injector and hands it to the simulation, which
  /// then perturbs sensors, availability and monitor updates according to
  /// the injector's plan. Injectors are stateful and seeded, so runs stay
  /// deterministic.
  sim::FaultInjectorFactory Faults;
};

/// One workload program plus how it chooses threads. Exactly one of
/// Chooser / Policy may be set; if neither is, the config's reproducible
/// thread pattern is used.
struct WorkloadProgramSetup {
  workload::ProgramSpec Spec;
  workload::ThreadChooser Chooser;               ///< Optional explicit chooser.
  std::shared_ptr<policy::ThreadPolicy> Policy;  ///< Optional adaptive policy.
};

/// Per-tick system trace point (one materialised row of the columnar
/// trace::TickTrace).
using TracePoint = trace::TracePoint;

/// Outcome of one co-execution run.
struct CoExecutionResult {
  bool TargetFinished = false;
  double TargetTime = 0.0; ///< Completion time (MaxTime when timed out).
  size_t TargetRegions = 0;

  /// Aggregate workload progress rate: serial-work units completed per
  /// second, summed across workload programs (Fig 13a's metric).
  double WorkloadThroughput = 0.0;

  /// Thread-selection decisions of the target's policy.
  std::vector<Decision> TargetDecisions;

  /// Per-tick traces, stored column-wise (only populated when
  /// RecordTraces is set). Persist with trace::ColumnarWriter; export to
  /// CSV offline with trace::exportCsv.
  trace::TickTrace Trace;

  /// Counters of injected faults (zero when no injector was configured).
  support::FaultStats Faults;
};

/// Runs \p TargetSpec under \p TargetPolicy against \p Workload.
CoExecutionResult runCoExecution(const CoExecutionConfig &Config,
                                 const workload::ProgramSpec &TargetSpec,
                                 policy::ThreadPolicy &TargetPolicy,
                                 std::vector<WorkloadProgramSetup> Workload);

/// Builds pattern-driven workload setups for the named catalog programs.
std::vector<WorkloadProgramSetup>
patternWorkload(const std::vector<std::string> &Names);

/// Outcome of a two-program pair run (Section 7.4, adaptive workloads).
struct PairExecutionResult {
  bool BothFinished = false;
  double TimeA = 0.0;
  double TimeB = 0.0;
  /// Completion time of the pair (max of the two; MaxTime on timeout).
  double CombinedTime = 0.0;
};

/// Runs two programs side by side, each under its own policy, until both
/// complete ("the combined execution time when one program co-executes
/// with another and both can adapt"). Availability and tick come from
/// \p Config; the config's workload-pattern fields are unused.
PairExecutionResult runPairExecution(const CoExecutionConfig &Config,
                                     const workload::ProgramSpec &SpecA,
                                     policy::ThreadPolicy &PolicyA,
                                     const workload::ProgramSpec &SpecB,
                                     policy::ThreadPolicy &PolicyB);

} // namespace medley::runtime

#endif // MEDLEY_RUNTIME_COEXECUTION_H
