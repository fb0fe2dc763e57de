//===-- runtime/CoExecution.cpp - Target/workload co-execution ----------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "runtime/CoExecution.h"

#include "support/Error.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <cassert>

using namespace medley;
using namespace medley::runtime;

std::vector<WorkloadProgramSetup>
medley::runtime::patternWorkload(const std::vector<std::string> &Names) {
  std::vector<WorkloadProgramSetup> Setups;
  Setups.reserve(Names.size());
  for (const std::string &Name : Names) {
    WorkloadProgramSetup Setup;
    Setup.Spec = workload::Catalog::byName(Name);
    Setups.push_back(std::move(Setup));
  }
  return Setups;
}

PairExecutionResult
medley::runtime::runPairExecution(const CoExecutionConfig &Config,
                                  const workload::ProgramSpec &SpecA,
                                  policy::ThreadPolicy &PolicyA,
                                  const workload::ProgramSpec &SpecB,
                                  policy::ThreadPolicy &PolicyB) {
  if (!Config.Availability)
    reportFatalError("pair-execution config without an availability factory");

  sim::Simulation Simulation(Config.Machine, Config.Availability(),
                             Config.Tick);
  if (Config.Faults)
    Simulation.setFaultInjector(Config.Faults());
  unsigned TotalCores = Config.Machine.TotalCores;

  auto A = std::make_shared<workload::Program>(
      SpecA, bindPolicy(PolicyA, TotalCores), TotalCores, /*Looping=*/false);
  A->setRegionObserver(bindObserver(PolicyA));
  auto B = std::make_shared<workload::Program>(
      SpecB, bindPolicy(PolicyB, TotalCores), TotalCores, /*Looping=*/false);
  B->setRegionObserver(bindObserver(PolicyB));
  Simulation.addTask(A);
  Simulation.addTask(B);

  PairExecutionResult Result;
  Result.BothFinished = Simulation.runUntil(
      [&] { return A->finished() && B->finished(); }, Config.MaxTime);
  Result.TimeA = A->finished() ? A->completionTime() : Config.MaxTime;
  Result.TimeB = B->finished() ? B->completionTime() : Config.MaxTime;
  Result.CombinedTime = std::max(Result.TimeA, Result.TimeB);
  return Result;
}

CoExecutionResult
medley::runtime::runCoExecution(const CoExecutionConfig &Config,
                                const workload::ProgramSpec &TargetSpec,
                                policy::ThreadPolicy &TargetPolicy,
                                std::vector<WorkloadProgramSetup> Workload) {
  if (!Config.Availability)
    reportFatalError("co-execution config without an availability factory");
  assert(Config.Machine.valid() && "invalid machine configuration");

  sim::Simulation Simulation(Config.Machine, Config.Availability(),
                             Config.Tick);
  if (Config.Faults)
    Simulation.setFaultInjector(Config.Faults());
  unsigned TotalCores = Config.Machine.TotalCores;

  CoExecutionResult Result;

  // The non-looping target makes exactly one decision per region, so the
  // decision trace never reallocates mid-run.
  Result.TargetDecisions.reserve(TargetSpec.Regions.size());

  // Target program driven by its policy.
  auto Target = std::make_shared<workload::Program>(
      TargetSpec,
      bindPolicy(TargetPolicy, TotalCores, &Result.TargetDecisions),
      TotalCores, /*Looping=*/false);
  Target->setRegionObserver(bindObserver(TargetPolicy));
  Simulation.addTask(Target);

  // Workload programs loop until the target finishes. Pattern-driven
  // programs derive independent reproducible streams from the config seed,
  // making workload behaviour identical across policies under comparison.
  std::vector<std::shared_ptr<workload::Program>> WorkloadPrograms;
  uint64_t StreamSeed = Config.WorkloadSeed;
  for (WorkloadProgramSetup &Setup : Workload) {
    assert(!(Setup.Chooser && Setup.Policy) &&
           "workload setup with both a chooser and a policy");
    workload::ThreadChooser Chooser;
    if (Setup.Chooser) {
      Chooser = std::move(Setup.Chooser);
    } else if (Setup.Policy) {
      Chooser = bindPolicy(*Setup.Policy, TotalCores);
    } else {
      StreamSeed = StreamSeed * 6364136223846793005ULL + 1442695040888963407ULL;
      Chooser = workload::ThreadPattern::makeChooser(
          StreamSeed, Config.WorkloadMinThreads, Config.WorkloadMaxThreads,
          Config.WorkloadChangePeriod);
    }
    auto Prog = std::make_shared<workload::Program>(
        Setup.Spec, std::move(Chooser), TotalCores, /*Looping=*/true);
    if (Setup.Policy) {
      auto Policy = Setup.Policy;
      Prog->setRegionObserver(
          [Policy](const workload::RegionOutcome &Outcome) {
            Policy->observe(Outcome);
          });
    }
    WorkloadPrograms.push_back(Prog);
    Simulation.addTask(Prog);
  }

  if (Config.RecordTraces) {
    // One trace point lands per tick; reserving the worst case up front
    // keeps the tick loop free of reallocation stalls.
    Result.Trace.reserve(
        static_cast<size_t>(Config.MaxTime / Config.Tick) + 1);
    auto Capture = [&Result, Target,
                    WorkloadPrograms](sim::Simulation &Sim) {
      TracePoint Point;
      Point.Time = Sim.now();
      Point.AvailableCores = Sim.availableCores();
      unsigned External = 0;
      for (const auto &Prog : WorkloadPrograms)
        External += Prog->activeThreads();
      Point.WorkloadThreads = External;
      Point.TargetThreads = Target->activeThreads();
      Point.EnvNorm = Sim.monitor().envNorm(Target->activeThreads());
      Result.Trace.append(Point);
    };
    Simulation.addTickHook(Capture);
  }

  Result.TargetFinished = Simulation.runUntil(
      [&] { return Target->finished(); }, Config.MaxTime);
  Result.TargetTime =
      Result.TargetFinished ? Target->completionTime() : Config.MaxTime;
  Result.TargetRegions = Target->regionsExecuted();

  double Elapsed = std::max(Simulation.now(), Config.Tick);
  double WorkloadWork = 0.0;
  for (const auto &Prog : WorkloadPrograms)
    WorkloadWork += Prog->workCompleted();
  Result.WorkloadThroughput = WorkloadWork / Elapsed;
  if (const sim::FaultInjector *Injector = Simulation.faultInjector())
    Result.Faults = Injector->stats();
  return Result;
}
