//===-- exp/Fleet.cpp - The fleet scenario -------------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exp/Fleet.h"

#include "exp/PolicySet.h"
#include "runtime/PolicyBinding.h"
#include "sim/AvailabilityPattern.h"
#include "support/Error.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace medley;
using namespace medley::exp;

namespace {

/// Order-sensitive FNV-1a step over one 64-bit word (the same scheme the
/// engine uses for its stats checksum, kept local to each layer).
uint64_t fnvStep(uint64_t Hash, uint64_t Value) {
  for (unsigned Byte = 0; Byte < 8; ++Byte) {
    Hash ^= (Value >> (Byte * 8)) & 0xFF;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

constexpr uint64_t FnvBasis = 14695981039346656037ULL;

} // namespace

/// Per-shard policy plumbing. The policy instance, the memo-aware chooser
/// every tenant of the shard copies, and the decision log the chooser
/// appends to — all touched only by the shard's worker during a run.
struct FleetScenario::Binding {
  std::unique_ptr<policy::ThreadPolicy> Policy;
  workload::ThreadChooser Chooser;
  workload::RegionObserver Observer;
  FleetShardDecisions Log;
};

sim::MachineConfig FleetScenario::shardMachine(unsigned TenantsPerShard,
                                               unsigned TenantMaxThreads) {
  // A fleet shard models a rack-scale host, not the paper's 32-core
  // testbed: enough cores that the tenant population keeps a CPU share
  // near one (regions finish, decisions flow), bandwidth and memory
  // scaled with the same ratios the evaluation platform uses.
  sim::MachineConfig Machine = sim::MachineConfig::evaluationPlatform();
  unsigned Cores =
      std::max(32u, TenantsPerShard * std::max(1u, TenantMaxThreads));
  Machine.TotalCores = Cores;
  Machine.MemoryBandwidth = 0.45 * static_cast<double>(Cores);
  Machine.TotalMemoryMb =
      std::max(64.0 * 1024.0, 512.0 * static_cast<double>(TenantsPerShard));
  return Machine;
}

FleetScenario::FleetScenario(FleetScenarioConfig InConfig)
    : Config(InConfig) {
  if (Config.Shards == 0)
    reportFatalError("fleet scenario with zero shards");
  if (Config.TicksPerRound == 0)
    reportFatalError("fleet scenario with zero ticks per round");
  // Written so NaN fails too: the churn hook casts Rate * tenants to an
  // unsigned count, which a negative or non-finite rate would make UB.
  if (!(Config.ChurnRate >= 0.0 && Config.ChurnRate <= 1.0))
    reportFatalError("fleet scenario churn rate outside [0, 1]");

  const unsigned PerShard =
      std::max(1u, Config.Tenants / std::max(1u, Config.Shards));

  sim::FleetConfig Fleet;
  Fleet.NumShards = Config.Shards;
  Fleet.Seed = Config.Seed;
  Fleet.Tick = 0.1;
  Fleet.Machine = shardMachine(PerShard, Config.TenantMaxThreads);

  const unsigned Cores = Fleet.Machine.TotalCores;
  Fleet.Availability = [Cores](unsigned, uint64_t ShardSeed) {
    return sim::PeriodicAvailability::standardLadder(Cores, 20.0, ShardSeed);
  };

  if (Config.StormShards > 0) {
    const double Horizon = static_cast<double>(Config.Rounds) *
                           Config.TicksPerRound * Fleet.Tick;
    const unsigned Storms = Config.StormShards;
    Fleet.Faults = [Storms, Horizon,
                    Cores](unsigned Shard,
                           uint64_t ShardSeed) -> std::unique_ptr<sim::FaultInjector> {
      if (Shard >= Storms)
        return nullptr; // Healthy shard: blast radius ends here.
      sim::FaultPlan Plan;
      // Two unplug storms and one dropout window per run, staggered so
      // every storm shard sees degradation early and late. Half the cores
      // stay up: a total outage would just freeze the shard's tenants.
      Plan.UnplugStorm.push_back({0.20 * Horizon, 0.30 * Horizon});
      Plan.UnplugStorm.push_back({0.60 * Horizon, 0.70 * Horizon});
      Plan.StormCores = Cores / 2;
      Plan.SensorDropout.push_back({0.35 * Horizon, 0.55 * Horizon});
      return std::make_unique<sim::FaultInjector>(Plan, ShardSeed);
    };
  }

  // Shared tenant catalog: every catalog program once, held by
  // shared_ptr so a hundred thousand tenants share the specs instead of
  // copying region vectors.
  auto Specs = std::make_shared<
      std::vector<std::shared_ptr<const workload::ProgramSpec>>>();
  for (const workload::ProgramSpec &Spec : workload::Catalog::allPrograms())
    Specs->push_back(std::make_shared<const workload::ProgramSpec>(Spec));

  // Per-shard policy instances from one factory, resolved once.
  policy::PolicyFactory Factory = PolicySet::instance().factory(Config.Policy);

  Bindings = std::make_shared<std::vector<Binding>>();
  Bindings->reserve(Config.Shards);
  for (unsigned S = 0; S < Config.Shards; ++S) {
    Binding B;
    B.Policy = Factory();
    Bindings->push_back(std::move(B));
  }
  // Second pass, after the vector stopped growing: choosers and observers
  // hold references to their Binding's policy, so storage must be final.
  for (unsigned S = 0; S < Config.Shards; ++S) {
    Binding &B = (*Bindings)[S];
    workload::ThreadChooser Inner = runtime::bindPolicy(*B.Policy, Cores);
    FleetShardDecisions *Log = &B.Log;
    B.Chooser = [Inner, Log](const workload::RegionContext &Ctx) {
      unsigned Threads = Inner(Ctx);
      ++Log->Count;
      Log->Checksum = fnvStep(Log->Checksum == 0 ? FnvBasis : Log->Checksum,
                              Threads);
      return Threads;
    };
    B.Observer = runtime::bindObserver(*B.Policy);
  }

  // Tokens carry only a spec choice; the tenant is materialised on the
  // destination shard against that shard's own chooser and observer.
  auto BindingsRef = Bindings;
  unsigned MaxThreads = Config.TenantMaxThreads;
  MakeTenant = [Specs, BindingsRef, MaxThreads](
                   unsigned Shard,
                   uint64_t Token) -> std::shared_ptr<sim::Task> {
    const Binding &B = (*BindingsRef)[Shard];
    auto Tenant = std::make_shared<workload::Program>(
        (*Specs)[Token % Specs->size()], B.Chooser, MaxThreads,
        /*Looping=*/true);
    Tenant->setRegionObserver(B.Observer);
    return Tenant;
  };
  Fleet.TenantFactory = MakeTenant;

  Engine = std::make_unique<sim::FleetEngine>(std::move(Fleet));

  // Per-round churn: a ChurnRate fraction of the shard's tenants leave
  // (half migrating to a uniformly random shard, half departing), plus a
  // periodic burst of fresh arrivals scattered across the fleet. All
  // draws come from the shard's own churn stream.
  const unsigned NumShards = Config.Shards;
  const double Rate = Config.ChurnRate;
  const unsigned BurstEvery = Config.BurstEvery;
  const auto BurstSize = static_cast<uint64_t>(
      std::max(1.0, Config.BurstFraction * static_cast<double>(PerShard)));
  Engine->setChurnHook([NumShards, Rate, BurstEvery, BurstSize](
                           unsigned, uint64_t Round, Rng &R,
                           sim::Simulation &Sim, support::Arena &,
                           sim::MailSink &Sink) {
    double Want = Rate * static_cast<double>(Sim.numTasks());
    auto Leavers = static_cast<uint64_t>(Want);
    if (R.bernoulli(Want - static_cast<double>(Leavers)))
      ++Leavers;
    for (uint64_t I = 0; I < Leavers && Sim.numTasks() > 0; ++I) {
      auto Victim = static_cast<size_t>(
          R.uniformInt(0, static_cast<int64_t>(Sim.numTasks()) - 1));
      Sim.removeTaskAt(Victim);
      if (R.bernoulli(0.5))
        Sink.send(static_cast<unsigned>(R.uniformInt(0, NumShards - 1)),
                  R.next());
    }
    if (BurstEvery != 0 && (Round + 1) % BurstEvery == 0)
      for (uint64_t I = 0; I < BurstSize; ++I)
        Sink.send(static_cast<unsigned>(R.uniformInt(0, NumShards - 1)),
                  R.next());
  });
}

FleetScenario::~FleetScenario() = default;

void FleetScenario::seed() {
  const unsigned Shards = Config.Shards;
  const unsigned Base = Config.Tenants / Shards;
  const unsigned Extra = Config.Tenants % Shards;
  Engine->seedTenants([&](unsigned Shard, Rng &R, sim::Simulation &Sim) {
    const unsigned Count = Base + (Shard < Extra ? 1 : 0);
    // Seed-time arrivals take the exact token → tenant path mailbox
    // arrivals take, with tokens drawn from the shard's churn stream.
    for (unsigned I = 0; I < Count; ++I)
      Sim.addTask(MakeTenant(Shard, R.next()));
  });
}

FleetResult FleetScenario::run() {
  support::ThreadPool Pool(Config.Jobs);
  // Wall-clock timing feeds only the throughput half of the result
  // (WallSeconds and the rates derived from it), which is documented
  // non-deterministic; the checksummed half never sees it.
  // medley-lint: allow(nondeterminism) — host throughput measurement.
  auto Start = std::chrono::steady_clock::now();
  Engine->run(Pool, Config.Rounds, Config.TicksPerRound, Config.PlanSlots);
  std::chrono::duration<double> Elapsed =
      // medley-lint: allow(nondeterminism) — host throughput measurement.
      std::chrono::steady_clock::now() - Start;
  return collect(Elapsed.count());
}

FleetResult FleetScenario::collect(double WallSeconds) const {
  FleetResult Result;
  Result.Stats = Engine->reduce();
  Result.Decisions.reserve(Bindings->size());
  uint64_t Hash = FnvBasis;
  for (const Binding &B : *Bindings) {
    Result.Decisions.push_back(B.Log);
    Result.DecisionsTotal += B.Log.Count;
    Hash = fnvStep(Hash, B.Log.Count);
    Hash = fnvStep(Hash, B.Log.Checksum);
  }
  Result.DecisionChecksum = Hash;
  Result.TickLatency = Engine->mergedLatency();
  Result.WallSeconds = WallSeconds;
  if (WallSeconds > 0.0) {
    Result.TicksPerSec =
        static_cast<double>(Result.Stats.Totals.Ticks) / WallSeconds;
    Result.DecisionsPerSec =
        static_cast<double>(Result.DecisionsTotal) / WallSeconds;
  }
  return Result;
}

FleetResult medley::exp::runFleetScenario(const FleetScenarioConfig &Config) {
  FleetScenario Scenario(Config);
  Scenario.seed();
  return Scenario.run();
}
