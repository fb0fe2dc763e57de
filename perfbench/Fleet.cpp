//===-- perfbench/Fleet.cpp - fleet-mixture and fleet-churn ---------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// One pass = a freshly built and seeded 16-shard x 10^5-tenant fleet run
// for 8 rounds of 25 ticks. Untraced passes go through
// FleetScenario::run(); traced passes replay the same rounds phase by
// phase through FleetEngine::drainInbox / stepShard / runChurn on the
// engine's contiguous shard->slot plan, timing each call from here.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "exp/Fleet.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <map>

using namespace perfbench;
using namespace medley;

namespace {

/// FleetScenarioConfig's own seed; --seed N runs the fleet at this + N.
constexpr uint64_t DefaultFleetSeed = 0xF1EE7;

exp::FleetScenarioConfig fleetConfig(const std::string &Workload,
                                     uint64_t SeedOffset) {
  exp::FleetScenarioConfig Config; // 16 x 10^5, 8 rounds x 25 ticks.
  Config.Seed = DefaultFleetSeed + SeedOffset;
  Config.Jobs = Workers;
  if (Workload == "fleet-mixture") {
    // bench_fleet's shape: storms on shards 0-3, where the mixture's
    // choices differ from the default's.
    Config.Policy = "mixture";
    Config.StormShards = 4;
  } else {
    Config.Policy = "default";
    Config.ChurnRate = 0.2;
    Config.BurstEvery = 1;
    Config.BurstFraction = 0.1;
    Config.StormShards = 0;
  }
  return Config;
}

/// Checksums of the default seed (offset 0). fleet-mixture's are
/// bench_fleet's; fleet-churn's were pinned when the workload was added.
struct Pinned {
  uint64_t Stats;
  uint64_t Decisions;
};
Pinned pinnedChecksums(const std::string &Workload) {
  if (Workload == "fleet-mixture")
    return {1791922435776890944ULL, 3648057373953926191ULL};
  return {17492087217415527323ULL, 1632034163668366314ULL};
}

struct Pass {
  double WallS = 0.0;
  uint64_t Decisions = 0;
  uint64_t StatsChecksum = 0;
  uint64_t DecisionChecksum = 0;
  support::LatencyHistogram Ticks;

  // Traced passes only; times are worker-seconds summed over shards.
  double DrainS = 0.0;
  double TickS = 0.0;
  double ChurnS = 0.0;
  double IdleS = 0.0; ///< Worker time waiting at the parallelFor joins.
  double TenantTicks = 0.0;
  double SlotImbalance = 0.0;
  uint64_t Arrivals = 0;
  uint64_t Departures = 0;
};

void takeResult(Pass &P, const exp::FleetResult &R) {
  P.WallS = R.WallSeconds;
  P.Decisions = R.DecisionsTotal;
  P.StatsChecksum = R.Stats.Checksum;
  P.DecisionChecksum = R.DecisionChecksum;
  P.Ticks = R.TickLatency;
  P.Arrivals = R.Stats.Totals.ArrivalsDelivered;
  P.Departures = R.Stats.Totals.DeparturesSent;
}

Pass untracedPass(const exp::FleetScenarioConfig &Config) {
  exp::FleetScenario Scenario(Config);
  Scenario.seed();
  Pass P;
  takeResult(P, Scenario.run());
  return P;
}

/// Idle worker time of one parallelFor phase: each worker's share of the
/// phase wall not covered by the slots it ran (workers that ran no slot
/// idled for the whole phase).
double phaseIdle(const std::vector<std::pair<std::thread::id, double>> &Slots,
                 double PhaseS) {
  std::map<std::thread::id, double> Busy;
  for (const auto &[Thread, S] : Slots)
    Busy[Thread] += S;
  double Idle = static_cast<double>(Workers - std::min<size_t>(Workers, Busy.size())) * PhaseS;
  for (const auto &[Thread, S] : Busy)
    Idle += std::max(0.0, PhaseS - S);
  return Idle;
}

Pass tracedPass(const exp::FleetScenarioConfig &Config) {
  exp::FleetScenario Scenario(Config);
  Scenario.seed();
  sim::FleetEngine &Engine = Scenario.engine();
  support::ThreadPool Pool(Config.Jobs);

  // FleetEngine::run's plan: slot I owns shards [Begin[I], Begin[I+1]).
  const unsigned NumShards = Engine.numShards();
  const unsigned Slots = std::min(std::max(Pool.size(), 1U), NumShards);
  std::vector<unsigned> Begin(Slots + 1);
  for (unsigned I = 0; I <= Slots; ++I)
    Begin[I] = static_cast<unsigned>(static_cast<uint64_t>(NumShards) * I / Slots);

  std::vector<double> Drain(NumShards), Tick(NumShards), Churn(NumShards),
      TenantTicks(NumShards), SlotBusy(Slots);
  std::vector<std::pair<std::thread::id, double>> SlotSpan(Slots);
  double Idle = 0.0;
  auto Phase = [&](const std::function<void(unsigned Shard)> &Body) {
    Clock::time_point Start = Clock::now();
    Pool.parallelFor(Slots, [&](size_t Slot) {
      Clock::time_point SlotStart = Clock::now();
      for (unsigned S = Begin[Slot]; S < Begin[Slot + 1]; ++S)
        Body(S);
      double Span = seconds(SlotStart, Clock::now());
      SlotSpan[Slot] = {std::this_thread::get_id(), Span};
      SlotBusy[Slot] += Span;
    });
    Idle += phaseIdle(SlotSpan, seconds(Start, Clock::now()));
  };

  Clock::time_point Start = Clock::now();
  for (uint64_t Round = 0; Round < Config.Rounds; ++Round) {
    Phase([&](unsigned S) {
      Clock::time_point T0 = Clock::now();
      Engine.drainInbox(S);
      Clock::time_point T1 = Clock::now();
      auto Alive = static_cast<double>(Engine.shardSim(S).numTasks());
      Engine.stepShard(S, Config.TicksPerRound);
      Clock::time_point T2 = Clock::now();
      Drain[S] += seconds(T0, T1);
      Tick[S] += seconds(T1, T2);
      TenantTicks[S] += Alive * Config.TicksPerRound;
    });
    Phase([&](unsigned S) {
      Clock::time_point T0 = Clock::now();
      Engine.runChurn(S, Round);
      Churn[S] += seconds(T0, Clock::now());
    });
  }
  double Wall = seconds(Start, Clock::now());

  Pass P;
  takeResult(P, Scenario.collect(Wall));
  for (unsigned S = 0; S < NumShards; ++S) {
    P.DrainS += Drain[S];
    P.TickS += Tick[S];
    P.ChurnS += Churn[S];
    P.TenantTicks += TenantTicks[S];
  }
  P.IdleS = Idle;
  double MeanBusy = 0.0;
  for (double B : SlotBusy)
    MeanBusy += B / static_cast<double>(Slots);
  P.SlotImbalance = *std::max_element(SlotBusy.begin(), SlotBusy.end()) / MeanBusy;
  return P;
}

template <typename F> double medianOf(const std::vector<Pass> &Passes, F Field) {
  std::vector<double> Values;
  for (const Pass &P : Passes)
    Values.push_back(static_cast<double>(Field(P)));
  return median(std::move(Values));
}

double decisionsPerS(const Pass &P) {
  return static_cast<double>(P.Decisions) / P.WallS;
}

/// Tick-latency percentiles over every pass's histogram; p99 keeps at
/// least ten samples above it once a run has 1000 ticks.
void noteTicks(Report &Rep, const std::vector<Pass> &Passes,
               const std::string &Label) {
  support::LatencyHistogram All;
  for (const Pass &P : Passes)
    All.merge(P.Ticks);
  Rep.note(Label + " tick_us_p50 " + format(static_cast<double>(All.p50()) / 1e3) +
           " us, tick_us_p99 " + format(static_cast<double>(All.p99()) / 1e3) +
           " us over " + std::to_string(All.total()) + " shard ticks");
}

} // namespace

void perfbench::runFleet(const Options &Opts, Report &Rep, Outcome &Out) {
  const exp::FleetScenarioConfig Config = fleetConfig(Opts.Workload, Opts.Seed);

  SetupSampler Setup([&Config] {
    auto Scenario = std::make_shared<exp::FleetScenario>(Config);
    Scenario->seed();
    return Scenario;
  });

  // The default seed's pass runs first, untimed: it is the pinned output
  // check, and it warms the heap and caches for the timed passes.
  const Pass Pin = untracedPass(fleetConfig(Opts.Workload, 0));

  // Closed loop: the next pass starts when the previous one returns. A
  // traced run alternates untraced and traced passes, swapping which goes
  // first each iteration.
  std::vector<Pass> Plain, Traced;
  Clock::time_point Window = Clock::now();
  for (double Elapsed = 0.0;
       Plain.size() < MinPasses || Elapsed < Opts.Seconds || !Setup.done();
       Elapsed = seconds(Window, Clock::now())) {
    Setup.between(Elapsed, Opts.Seconds);
    bool TracedFirst = Opts.Trace && Plain.size() % 2 == 1;
    if (TracedFirst)
      Traced.push_back(tracedPass(Config));
    Plain.push_back(untracedPass(Config));
    if (Opts.Trace && !TracedFirst)
      Traced.push_back(tracedPass(Config));
  }

  // Output checks: every pass of the run (traced ones too) reproduces the
  // first pass's checksums, and the default seed its pinned checksums.
  const Pass &Ref = Plain.front();
  uint64_t Failed = 0;
  auto SameAsRef = [&Ref](const Pass &P) {
    return P.StatsChecksum == Ref.StatsChecksum &&
           P.DecisionChecksum == Ref.DecisionChecksum && P.Decisions == Ref.Decisions;
  };
  for (const std::vector<Pass> *Set : {&Plain, &Traced})
    for (const Pass &P : *Set)
      Failed += SameAsRef(P) ? 0 : 1;
  Rep.check(Failed == 0, std::to_string(Plain.size()) + " untraced and " +
                             std::to_string(Traced.size()) +
                             " traced passes reproduce stats checksum " +
                             std::to_string(Ref.StatsChecksum) +
                             " and decision checksum " +
                             std::to_string(Ref.DecisionChecksum));
  Rep.check(Ref.Decisions > 0, "the fleet made " + std::to_string(Ref.Decisions) +
                                   " decisions per pass");

  const Pinned Want = pinnedChecksums(Opts.Workload);
  bool PinOk = Rep.check(Pin.StatsChecksum == Want.Stats &&
                             Pin.DecisionChecksum == Want.Decisions,
                         "default seed reproduces pinned checksums " +
                             std::to_string(Want.Stats) + " / " +
                             std::to_string(Want.Decisions) + " (got " +
                             std::to_string(Pin.StatsChecksum) + " / " +
                             std::to_string(Pin.DecisionChecksum) + ")");
  Failed += PinOk ? 0 : 1;
  size_t Attempted = 1 + Plain.size() + Traced.size();
  Rep.attempt(Attempted, Failed);

  const SetupTimes Times = Setup.times();
  Out.SetupS = Times.SetupS;
  Out.PassS = medianOf(Plain, [](const Pass &P) { return P.WallS; });
  Out.DecisionsPerS = medianOf(Plain, decisionsPerS);
  noteTicks(Rep, Plain, "untraced");
  std::string Walls;
  for (const Pass &P : Plain)
    Walls += " " + format(P.WallS);
  Rep.note("untraced pass walls (s):" + Walls);
  if (!Opts.Trace)
    return;

  noteTicks(Rep, Traced, "traced  ");
  double TracedPassS = medianOf(Traced, [](const Pass &P) { return P.WallS; });
  double TracedRate = medianOf(Traced, decisionsPerS);
  Rep.note("tracing overhead: pass_s " + format(TracedPassS) + " - " + format(Out.PassS) +
           " = " + format(TracedPassS - Out.PassS) + " s; decisions_per_s " +
           format(TracedRate) + " - " + format(Out.DecisionsPerS) + " = " +
           format(TracedRate - Out.DecisionsPerS) + " 1/s");

  // Self times plus join idle must account for the workers' traced wall
  // time; the rest is the slot loops and the gaps between phases.
  double Covered = medianOf(Traced, [](const Pass &P) {
    return (P.DrainS + P.TickS + P.ChurnS + P.IdleS) / (Workers * P.WallS);
  });
  Rep.check(Covered >= 0.95 && Covered <= 1.0 + 1e-9,
            "drain + tick + churn + join idle cover " + format(100.0 * Covered) +
                "% of workers x traced wall (bound: 95-100%)");

  support::LatencyHistogram Ticks;
  for (const Pass &P : Traced)
    Ticks.merge(P.Ticks);
  std::map<std::string, double> &L = Out.Layers;
  L["core.train_s"] = Times.TrainS;
  L["sim.seed_s"] = Times.BuildS;
  L["sim.tick_self_s"] = medianOf(Traced, [](const Pass &P) { return P.TickS; });
  L["sim.ns_per_tenant_tick"] =
      medianOf(Traced, [](const Pass &P) { return P.TickS * 1e9 / P.TenantTicks; });
  L["sim.drain_s"] = medianOf(Traced, [](const Pass &P) { return P.DrainS; });
  L["sim.churn_s"] = medianOf(Traced, [](const Pass &P) { return P.ChurnS; });
  L["sim.arrivals"] = static_cast<double>(Ref.Arrivals);
  L["sim.departures"] = static_cast<double>(Ref.Departures);
  L["sim.tick_us_p50"] = static_cast<double>(Ticks.p50()) / 1e3;
  L["sim.tick_us_p99"] = static_cast<double>(Ticks.p99()) / 1e3;
  L["support.barrier_idle_share"] =
      medianOf(Traced, [](const Pass &P) { return P.IdleS / (Workers * P.WallS); });
  L["support.slot_imbalance"] =
      medianOf(Traced, [](const Pass &P) { return P.SlotImbalance; });
  L["policy.decisions"] = static_cast<double>(Ref.Decisions);
}
