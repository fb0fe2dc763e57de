//===-- tests/FleetTest.cpp - Fleet engine determinism / chaos tests ----------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The fleet suite (DESIGN.md §16): the sharded engine's deterministic
// half — per-shard stats, decision counts and checksums, and the
// two-level reduction — must be bit-identical at any worker count and any
// shard→slot plan, and the policy binding's epoch table must decide exactly
// as a plain rebuild-and-select reference chooser does; unplug
// storms and sensor dropout confined to a leading subset of shards must
// leave every healthy shard's results untouched. Plus unit coverage of
// the fixed-bucket latency histogram the engine records into. Runs under
// the `chaos` ctest label (`make chaos`), clean under ASan/TSan.
//
//===----------------------------------------------------------------------===//

#include "core/LiveMixture.h"
#include "exp/Fleet.h"
#include "exp/PolicySet.h"
#include "policy/Features.h"
#include "runtime/PolicyBinding.h"
#include "sim/AvailabilityPattern.h"
#include "sim/FaultInjector.h"
#include "sim/Simulation.h"
#include "support/Histogram.h"
#include "support/Random.h"
#include "workload/Catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

using namespace medley;
using namespace medley::exp;
using support::LatencyHistogram;

namespace {

/// A fleet small enough for a unit test but big enough that every moving
/// part engages: multiple shards per slot, churn with migration, bursts,
/// and (where enabled) storms on a strict prefix of the shards.
FleetScenarioConfig smallFleet() {
  FleetScenarioConfig Config;
  Config.Shards = 4;
  Config.Tenants = 1200;
  Config.Rounds = 3;
  Config.TicksPerRound = 10;
  Config.ChurnRate = 0.02;
  Config.BurstEvery = 2;
  Config.Seed = 0xF1EE7;
  return Config;
}

/// The fleet-churn benchmark shape at smallFleet() scale: cheap default
/// decisions, a fifth of every shard's tenants leaving each round (half
/// migrating) and a burst of fresh arrivals every round.
FleetScenarioConfig churnFleet() {
  FleetScenarioConfig Config = smallFleet();
  Config.Policy = "default";
  Config.ChurnRate = 0.2;
  Config.BurstEvery = 1;
  Config.BurstFraction = 0.1;
  return Config;
}

/// The deterministic half of two results must match bit for bit; the
/// wall-clock half (latency, rates) is intentionally not compared.
void expectDeterministicHalvesEqual(const FleetResult &A,
                                    const FleetResult &B,
                                    const std::string &What) {
  EXPECT_EQ(A.Stats.Checksum, B.Stats.Checksum) << What;
  EXPECT_EQ(A.DecisionChecksum, B.DecisionChecksum) << What;
  EXPECT_EQ(A.DecisionsTotal, B.DecisionsTotal) << What;
  ASSERT_EQ(A.Stats.Shards.size(), B.Stats.Shards.size()) << What;
  ASSERT_EQ(A.Decisions.size(), B.Decisions.size()) << What;
  for (size_t S = 0; S < A.Stats.Shards.size(); ++S) {
    const sim::FleetShardStats &SA = A.Stats.Shards[S];
    const sim::FleetShardStats &SB = B.Stats.Shards[S];
    EXPECT_EQ(SA.Ticks, SB.Ticks) << What << " shard " << S;
    EXPECT_EQ(SA.ArrivalsDelivered, SB.ArrivalsDelivered)
        << What << " shard " << S;
    EXPECT_EQ(SA.DeparturesSent, SB.DeparturesSent) << What << " shard " << S;
    EXPECT_EQ(SA.TasksAlive, SB.TasksAlive) << What << " shard " << S;
    EXPECT_EQ(SA.RunnableThreads, SB.RunnableThreads)
        << What << " shard " << S;
    EXPECT_EQ(A.Decisions[S].Count, B.Decisions[S].Count)
        << What << " shard " << S;
    EXPECT_EQ(A.Decisions[S].Checksum, B.Decisions[S].Checksum)
        << What << " shard " << S;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// LatencyHistogram: buckets, percentiles, merge, saturation
//===----------------------------------------------------------------------===//

TEST(LatencyHistogramTest, BucketIndexIsMonotoneAndEdgesRoundTrip) {
  // Indices never decrease as values grow, and every bucket's inclusive
  // upper edge maps back into that bucket.
  size_t Prev = 0;
  for (uint64_t Ns = 0; Ns < 4096; ++Ns) {
    size_t Index = LatencyHistogram::bucketIndex(Ns);
    EXPECT_GE(Index, Prev) << Ns;
    Prev = Index;
  }
  uint64_t PrevEdge = 0;
  for (size_t I = 0; I + 1 < LatencyHistogram::NumBuckets; ++I) {
    uint64_t Edge = LatencyHistogram::bucketUpperEdge(I);
    EXPECT_EQ(LatencyHistogram::bucketIndex(Edge), I);
    EXPECT_EQ(LatencyHistogram::bucketIndex(Edge + 1), I + 1);
    if (I > 0) {
      EXPECT_GT(Edge, PrevEdge) << I;
    }
    PrevEdge = Edge;
  }
}

TEST(LatencyHistogramTest, PercentilesBoundKnownDataWithinBucketError) {
  // 1..1000 ns uniformly: the reported quantile is the upper edge of the
  // bucket holding the exact quantile, so it is >= the exact value and
  // within the documented 12.5% relative bucket error.
  LatencyHistogram H;
  for (uint64_t Ns = 1; Ns <= 1000; ++Ns)
    H.record(Ns);
  EXPECT_EQ(H.total(), 1000u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.sum(), 500500u);
  EXPECT_DOUBLE_EQ(H.meanNs(), 500.5);
  EXPECT_GE(H.p50(), 500u);
  EXPECT_LE(H.p50(), 563u); // 500 * 1.125
  EXPECT_GE(H.p95(), 950u);
  EXPECT_LE(H.p95(), 1069u);
  EXPECT_EQ(H.percentileNs(0.0), 1u); // first occupied bucket's edge >= 1
  LatencyHistogram Empty;
  EXPECT_EQ(Empty.percentileNs(0.5), 0u);
  EXPECT_EQ(Empty.total(), 0u);
}

TEST(LatencyHistogramTest, MergeMatchesSequentialRecording) {
  LatencyHistogram Left, Right, Together;
  for (uint64_t Ns = 0; Ns < 500; ++Ns) {
    uint64_t Value = Ns * 37 % 100000;
    (Ns % 2 ? Left : Right).record(Value);
    Together.record(Value);
  }
  Left.merge(Right);
  EXPECT_EQ(Left.total(), Together.total());
  EXPECT_EQ(Left.sum(), Together.sum());
  EXPECT_EQ(Left.max(), Together.max());
  for (double Q : {0.5, 0.95, 0.99, 0.999})
    EXPECT_EQ(Left.percentileNs(Q), Together.percentileNs(Q)) << Q;
}

TEST(LatencyHistogramTest, TailSaturatesIntoLastBucketAndReportsExactMax) {
  // Values past the last bucket edge all land in the final bucket; the
  // extreme quantile reports the exact maximum rather than the (smaller)
  // saturated bucket edge.
  uint64_t Huge = ~0ULL / 2;
  EXPECT_EQ(LatencyHistogram::bucketIndex(Huge),
            LatencyHistogram::NumBuckets - 1);
  LatencyHistogram H;
  H.record(1);
  H.record(Huge);
  EXPECT_EQ(H.max(), Huge);
  EXPECT_EQ(H.percentileNs(1.0), Huge);
}

//===----------------------------------------------------------------------===//
// Fleet determinism: jobs, placement, the epoch table
//===----------------------------------------------------------------------===//

TEST(FleetDeterminismTest, BitIdenticalAcrossWorkerCounts) {
  // The whole deterministic half — stats, per-shard decision logs, both
  // fleet-level checksums — must not depend on how many workers execute
  // the fixed shard→slot plan. Storms on to exercise the fault path too.
  std::vector<FleetResult> Results;
  for (unsigned Jobs : {1u, 4u, 16u}) {
    FleetScenarioConfig Config = smallFleet();
    Config.StormShards = 2;
    Config.Jobs = Jobs;
    Results.push_back(runFleetScenario(Config));
  }
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_GT(Results[0].DecisionsTotal, 0u);
  EXPECT_GT(Results[0].Stats.Totals.Ticks, 0u);
  expectDeterministicHalvesEqual(Results[0], Results[1], "jobs 1 vs 4");
  expectDeterministicHalvesEqual(Results[0], Results[2], "jobs 1 vs 16");
}

TEST(FleetDeterminismTest, InvariantUnderShardToSlotPlacement) {
  // PlanSlots changes which shards share a slot (and hence a worker); the
  // per-shard streams are derived from (fleet seed, shard id) only, so
  // every grouping must produce the same deterministic half.
  std::vector<FleetResult> Results;
  for (unsigned Slots : {1u, 2u, 3u, 4u}) {
    FleetScenarioConfig Config = smallFleet();
    Config.Jobs = 4;
    Config.PlanSlots = Slots;
    Results.push_back(runFleetScenario(Config));
  }
  for (size_t I = 1; I < Results.size(); ++I)
    expectDeterministicHalvesEqual(Results[0], Results[I],
                                   "slots 1 vs " + std::to_string(I + 1));
}

// The policy binding's epoch table (DESIGN.md §16.3) against a reference
// chooser that rebuilds the features and calls select() on every decision:
// the table may only skip work that provably reproduces the same bits, so
// every decision, and the FNV checksum over them, must match.

namespace {

/// The plain decision path: beginDecisionEpoch, buildFeatures, select,
/// clamp — no table, no row reuse.
workload::ThreadChooser referenceChooser(policy::ThreadPolicy &Policy,
                                         unsigned TotalCores,
                                         std::vector<runtime::Decision> &Trace) {
  return [&Policy, TotalCores, &Trace](const workload::RegionContext &C) {
    Policy.beginDecisionEpoch();
    policy::FeatureVector F = policy::buildFeatures(C, TotalCores);
    unsigned Raw = Policy.select(F);
    unsigned Ceiling = runtime::threadCeiling(F);
    unsigned Threads = std::clamp(Raw, 1u, Ceiling);
    Trace.push_back({C.Now, Threads, F.EnvNorm, Ceiling, Threads != Raw});
    return Threads;
  };
}

/// The fleet's decision checksum: order-sensitive FNV-1a over the chosen
/// thread counts, one 64-bit word each.
uint64_t decisionChecksum(const std::vector<runtime::Decision> &Trace) {
  uint64_t Hash = 14695981039346656037ULL;
  for (const runtime::Decision &D : Trace)
    for (unsigned Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (uint64_t{D.Threads} >> (Byte * 8)) & 0xFF;
      Hash *= 1099511628211ULL;
    }
  return Hash;
}

void expectSameDecisions(const std::vector<runtime::Decision> &Table,
                         const std::vector<runtime::Decision> &Reference,
                         const std::string &What) {
  ASSERT_EQ(Table.size(), Reference.size()) << What;
  ASSERT_GT(Table.size(), 0u) << What;
  for (size_t I = 0; I < Table.size(); ++I) {
    ASSERT_EQ(Table[I].Threads, Reference[I].Threads) << What << " #" << I;
    ASSERT_EQ(Table[I].Time, Reference[I].Time) << What << " #" << I;
    ASSERT_EQ(std::bit_cast<uint64_t>(Table[I].EnvNorm),
              std::bit_cast<uint64_t>(Reference[I].EnvNorm))
        << What << " #" << I;
    ASSERT_EQ(Table[I].AvailableProcessors, Reference[I].AvailableProcessors)
        << What << " #" << I;
    ASSERT_EQ(Table[I].Clamped, Reference[I].Clamped) << What << " #" << I;
  }
  EXPECT_EQ(decisionChecksum(Table), decisionChecksum(Reference)) << What;
}

/// Folds every FeatureVector field a decision may read into its answer,
/// so a table hit that serves a stale or dropped field decides otherwise.
class FieldEchoPolicy final : public policy::ThreadPolicy {
public:
  unsigned select(const policy::FeatureVector &F) override {
    uint64_t Hash = std::bit_cast<uint64_t>(F.Now) ^
                    std::bit_cast<uint64_t>(F.EnvNorm) ^
                    (uint64_t{F.SanitizedCount} << 7) ^ F.MaxThreads;
    for (double V : F.Values)
      Hash = (Hash ^ std::bit_cast<uint64_t>(V)) * 1099511628211ULL;
    return 1 + static_cast<unsigned>((Hash ^ (Hash >> 29)) % 64);
  }
  void reset() override {}
  const std::string &name() const override {
    static const std::string Name = "field-echo";
    return Name;
  }
};

/// A fresh instance of \p Name, as PolicySet's factory builds it. A
/// "mixture-live" instance follows \p Registry, which is created holding
/// the standard live snapshot when null, so a test can publish into it.
std::unique_ptr<policy::ThreadPolicy>
makePolicy(const std::string &Name,
           std::shared_ptr<core::ExpertRegistry> &Registry) {
  PolicySet &Policies = PolicySet::instance();
  if (Name == "field-echo")
    return std::make_unique<FieldEchoPolicy>();
  if (Name != "mixture-live")
    return Policies.factory(Name)(); // A new factory: same analytic seed.
  std::shared_ptr<const core::ExpertSnapshot> Base =
      Policies.liveRegistry()->current();
  if (!Registry) {
    Registry = std::make_shared<core::ExpertRegistry>();
    Registry->publish(Base->Experts, Base->Scaler, Base->SelectorPrototype);
  }
  return std::make_unique<core::LiveMixture>(
      Registry, std::make_unique<core::QuarantineSelector>(
                    Base->SelectorPrototype->clone(),
                    core::QuarantineOptions{}, nullptr));
}

/// Same arity, different models per slot: the swap must change decisions.
void publishReversedExperts(core::ExpertRegistry &Registry) {
  std::shared_ptr<const core::ExpertSnapshot> Current = Registry.current();
  auto Reversed = std::make_shared<std::vector<core::Expert>>(
      Current->Experts->rbegin(), Current->Experts->rend());
  Registry.publish(std::move(Reversed), Current->Scaler,
                   Current->SelectorPrototype);
}

const std::vector<std::string> &allPolicies() {
  static const std::vector<std::string> Names = {
      "default",  "online",           "offline",     "analytic",
      "mixture",  "mixture-hardened", "mixture-live"};
  return Names;
}

} // namespace

TEST(FleetDeterminismTest, EpochTableMatchesReferenceOnRepeatingContexts) {
  // A seeded context stream shaped like a fleet shard's: long epochs, a
  // handful of regions, a few workload-thread values and two MaxThreads,
  // so most decisions repeat an earlier key. Some epochs carry a
  // corrupted sample and some workload-thread readings are NaN (sanitised
  // features, interleaved with clean ones), and some contexts come from
  // outside the simulator (epoch 0, table bypassed). Both instances see
  // the same outcomes; the live mixture gets a registry publish halfway.
  const auto &Catalog = workload::Catalog::allPrograms();
  std::vector<const workload::RegionSpec *> Regions;
  for (size_t P = 0; P < 3; ++P)
    for (const workload::RegionSpec &R : Catalog[P].Regions)
      Regions.push_back(&R);
  ASSERT_GE(Regions.size(), 3u);

  constexpr unsigned TotalCores = 32;
  constexpr size_t Decisions = 20000;
  std::vector<std::string> Names = allPolicies();
  Names.push_back("field-echo");
  for (const std::string &Name : Names) {
    std::shared_ptr<core::ExpertRegistry> Registry;
    auto TablePolicy = makePolicy(Name, Registry);
    auto RefPolicy = makePolicy(Name, Registry);
    std::vector<runtime::Decision> TableTrace, RefTrace;
    workload::ThreadChooser Table =
        runtime::bindPolicy(*TablePolicy, TotalCores, &TableTrace);
    workload::ThreadChooser Reference =
        referenceChooser(*RefPolicy, TotalCores, RefTrace);
    workload::RegionObserver TableObserver = runtime::bindObserver(*TablePolicy);
    workload::RegionObserver RefObserver = runtime::bindObserver(*RefPolicy);

    Rng Gen(0x7AB1E);
    workload::RegionContext C;
    C.Program = &Catalog[0];
    sim::EnvSample Env;
    std::set<std::tuple<const void *, uint64_t, uint64_t, unsigned>> Keys;
    for (size_t I = 0; I < Decisions; ++I) {
      if (I % 400 == 0) {
        C.EnvEpoch += 1;
        Env.Processors = static_cast<double>(Gen.uniformInt(4, 32));
        Env.RunQueue = Gen.uniform(0.0, 48.0);
        Env.LoadAvg1 = Gen.uniform(0.0, 32.0);
        Env.LoadAvg5 = Gen.uniform(0.0, 32.0);
        Env.CachedMemory = Gen.uniform(0.0, 1.0);
        Env.PageFreeRate = Gen.uniform(0.0, 0.1);
        if (Gen.bernoulli(0.1))
          Env.RunQueue = std::numeric_limits<double>::quiet_NaN();
      }
      if (Name == "mixture-live" && I == Decisions / 2 + 123)
        publishReversedExperts(*Registry); // Mid-epoch: rows go stale.
      C.Region = Regions[static_cast<size_t>(
          Gen.uniformInt(0, static_cast<int64_t>(Regions.size()) - 1))];
      C.Env = Env;
      C.Env.WorkloadThreads =
          Gen.bernoulli(0.05) ? std::numeric_limits<double>::quiet_NaN()
                              : static_cast<double>(Gen.uniformInt(0, 3) * 4);
      C.MaxThreads = Gen.bernoulli(0.8) ? 8 : TotalCores;
      C.Now += Gen.uniform(0.0, 0.5); // Policies may time on Now.
      workload::RegionContext Context = C;
      if (Gen.bernoulli(0.02))
        Context.EnvEpoch = 0;
      else
        Keys.insert({Context.Region, Context.EnvEpoch,
                     std::bit_cast<uint64_t>(Context.Env.WorkloadThreads),
                     Context.MaxThreads});

      unsigned A = Table(Context);
      unsigned B = Reference(Context);
      workload::RegionOutcome Outcome;
      Outcome.Region = Context.Region;
      Outcome.Threads = A;
      Outcome.Work = 1.0 + Gen.uniform(0.0, 1.0) * static_cast<double>(A);
      Outcome.Duration = 0.01;
      Outcome.EndTime = Context.Now + Outcome.Duration;
      TableObserver(Outcome);
      Outcome.Threads = B;
      RefObserver(Outcome);
    }
    expectSameDecisions(TableTrace, RefTrace, Name);
    EXPECT_LT(Keys.size() * 4, Decisions) << Name; // >75% repeat a key.
  }
}

TEST(FleetDeterminismTest, EpochTableMatchesReferenceOnAFaultedShard) {
  // One fleet shard's shape: many looping tenants sharing one chooser
  // and (as in the fleet) a handful of shared program specs, on a machine
  // under an unplug storm and sensor dropout. The injector moves the
  // epoch every tick, and inside a tick the tenants repeat a few dozen
  // keys. The table-backed shard and the reference shard must make the
  // same decisions in the same order.
  constexpr double Tick = 0.1;
  constexpr unsigned Ticks = 120;
  std::vector<std::shared_ptr<const workload::ProgramSpec>> Specs;
  for (const char *Program : {"cg", "bt", "is", "lu"})
    Specs.push_back(std::make_shared<const workload::ProgramSpec>(
        workload::Catalog::byName(Program)));
  for (const std::string &Name : allPolicies()) {
    std::set<std::tuple<const void *, uint64_t, uint64_t, unsigned>> Keys;
    // Each shard gets its own policy (and, for the live mixture, its own
    // registry with a publish halfway through the run).
    auto runShard = [&](bool UseTable) {
      std::shared_ptr<core::ExpertRegistry> Registry;
      auto Policy = makePolicy(Name, Registry);
      std::vector<runtime::Decision> Trace;
      sim::MachineConfig Machine = FleetScenario::shardMachine(200, 8);
      sim::Simulation Sim(Machine,
                          std::make_unique<sim::StaticAvailability>(
                              Machine.TotalCores),
                          Tick);
      sim::FaultPlan Plan;
      Plan.UnplugStorm.push_back({3.0, 6.0});
      Plan.StormCores = Machine.TotalCores / 2;
      Plan.SensorDropout.push_back({7.0, 9.0});
      Sim.setFaultInjector(std::make_unique<sim::FaultInjector>(Plan, 99));
      workload::ThreadChooser Chooser =
          UseTable ? runtime::bindPolicy(*Policy, Machine.TotalCores, &Trace)
                   : referenceChooser(*Policy, Machine.TotalCores, Trace);
      if (!UseTable)
        // Count the keys the table would see: most decisions must repeat
        // one, or this test would not exercise table hits at all.
        Chooser = [Inner = Chooser, &Keys](const workload::RegionContext &C) {
          Keys.insert({C.Region, C.EnvEpoch,
                       std::bit_cast<uint64_t>(C.Env.WorkloadThreads),
                       C.MaxThreads});
          return Inner(C);
        };
      workload::RegionObserver Observer = runtime::bindObserver(*Policy);
      for (size_t T = 0; T < 200; ++T) {
        auto Tenant = std::make_shared<workload::Program>(
            Specs[T % Specs.size()], Chooser, 8, /*Looping=*/true);
        Tenant->setRegionObserver(Observer);
        Sim.addTask(Tenant);
      }
      for (unsigned T = 0; T < Ticks; ++T) {
        if (Registry && T == Ticks / 2)
          publishReversedExperts(*Registry);
        Sim.step();
      }
      return Trace;
    };
    std::vector<runtime::Decision> Table = runShard(true);
    std::vector<runtime::Decision> Reference = runShard(false);
    expectSameDecisions(Table, Reference, Name);
    EXPECT_LT(Keys.size() * 2, Reference.size()) << Name;
  }
}

TEST(FleetDeterminismTest, EpochTableKeepsPinnedFleetChecksums) {
  // The same shape `medley fleet --shards 4 --tenants 1200 --rounds 3
  // --ticks 10 --churn 0.02 --storm-shards 2` runs, per policy. The
  // figures were recorded from the binding before the epoch table, which
  // rebuilt the features and called select() on every decision.
  struct Pin {
    const char *Policy;
    uint64_t Stats;
    uint64_t Decisions;
  };
  const Pin Pins[] = {
      {"default", 17797824874331754055ULL, 11904891836101206285ULL},
      {"online", 10517034922865470452ULL, 10982784697374170016ULL},
      {"offline", 10344344890377657625ULL, 12482684214116704973ULL},
      {"analytic", 5713994822254024033ULL, 4288814703340765245ULL},
      {"mixture", 9814636139821825158ULL, 14801559379157404316ULL},
  };
  for (const Pin &P : Pins) {
    FleetScenarioConfig Config = smallFleet();
    Config.BurstEvery = 4;
    Config.StormShards = 2;
    Config.Jobs = 2;
    Config.Policy = P.Policy;
    FleetResult R = runFleetScenario(Config);
    EXPECT_EQ(R.Stats.Checksum, P.Stats) << P.Policy;
    EXPECT_EQ(R.DecisionChecksum, P.Decisions) << P.Policy;
  }
}

//===----------------------------------------------------------------------===//
// Chaos: storm blast radius confined to the shard prefix
//===----------------------------------------------------------------------===//

TEST(FleetChaosTest, StormBlastRadiusStaysInsideTheShardPrefix) {
  // Storms and sensor dropout on shards [0, 2) of 4. Membership flow
  // (churn draws, migrations, bursts) is availability-independent, so a
  // stormy fleet delivers the exact same arrival streams as a healthy
  // one — every healthy shard must come out bit-identical to its
  // counterpart in the stormless run, while the storm shards' decision
  // streams must actually feel the faults.
  FleetScenarioConfig Healthy = smallFleet();
  FleetScenarioConfig Stormy = smallFleet();
  Stormy.StormShards = 2;

  FleetResult H = runFleetScenario(Healthy);
  FleetResult S = runFleetScenario(Stormy);
  ASSERT_EQ(H.Stats.Shards.size(), 4u);
  ASSERT_EQ(S.Stats.Shards.size(), 4u);

  for (size_t Shard = 2; Shard < 4; ++Shard) {
    const sim::FleetShardStats &HS = H.Stats.Shards[Shard];
    const sim::FleetShardStats &SS = S.Stats.Shards[Shard];
    EXPECT_EQ(HS.Ticks, SS.Ticks) << Shard;
    EXPECT_EQ(HS.ArrivalsDelivered, SS.ArrivalsDelivered) << Shard;
    EXPECT_EQ(HS.DeparturesSent, SS.DeparturesSent) << Shard;
    EXPECT_EQ(HS.TasksAlive, SS.TasksAlive) << Shard;
    EXPECT_EQ(HS.RunnableThreads, SS.RunnableThreads) << Shard;
    EXPECT_EQ(H.Decisions[Shard].Count, S.Decisions[Shard].Count) << Shard;
    EXPECT_EQ(H.Decisions[Shard].Checksum, S.Decisions[Shard].Checksum)
        << Shard;
  }
  // The faults must have had an observable effect somewhere in the storm
  // prefix — otherwise this test would pass vacuously.
  bool StormPrefixDiffers = false;
  for (size_t Shard = 0; Shard < 2; ++Shard)
    StormPrefixDiffers =
        StormPrefixDiffers ||
        H.Decisions[Shard].Checksum != S.Decisions[Shard].Checksum ||
        H.Stats.Shards[Shard].RunnableThreads !=
            S.Stats.Shards[Shard].RunnableThreads;
  EXPECT_TRUE(StormPrefixDiffers);
}

TEST(FleetChaosTest, ChurnConservesTenantsUpToMigrationInFlight) {
  // Seeded tenants minus permanent departures plus delivered arrivals
  // equals the population still alive plus mail still in flight. The
  // engine's counters must reconcile exactly — a lost or duplicated
  // token would show up here.
  FleetScenarioConfig Config = smallFleet();
  Config.StormShards = 1;
  FleetResult R = runFleetScenario(Config);

  uint64_t Alive = R.Stats.Totals.TasksAlive;
  uint64_t Sent = R.Stats.Totals.DeparturesSent;
  uint64_t Delivered = R.Stats.Totals.ArrivalsDelivered;
  // Every delivered arrival was previously sent; what was sent but not
  // delivered is still sitting in an inbox (the final churn phase posts
  // mail that no later round drains).
  EXPECT_LE(Delivered, Sent);
  EXPECT_GT(Alive, 0u);
  EXPECT_EQ(R.Stats.Totals.Ticks,
            uint64_t(Config.Shards) * Config.Rounds * Config.TicksPerRound);
}

TEST(FleetChaosTest, HighChurnIsBitIdenticalAndPinned) {
  // Tenant removal dominates this shape, so it pins the victim sequence:
  // every worker count and shard→slot plan must reproduce the same
  // deterministic half, and that half must equal the figures recorded
  // from the pointer-scan removal path that positional removal replaced
  // (same churn draws, same victims, same insertion order).
  std::vector<FleetResult> Results;
  for (unsigned Jobs : {1u, 4u, 16u}) {
    FleetScenarioConfig Config = churnFleet();
    Config.Jobs = Jobs;
    Results.push_back(runFleetScenario(Config));
  }
  for (unsigned Slots : {1u, 2u, 3u, 4u}) {
    FleetScenarioConfig Config = churnFleet();
    Config.Jobs = 4;
    Config.PlanSlots = Slots;
    Results.push_back(runFleetScenario(Config));
  }
  for (size_t I = 1; I < Results.size(); ++I)
    expectDeterministicHalvesEqual(Results[0], Results[I],
                                   "run 0 vs " + std::to_string(I));

  const FleetResult &R = Results[0];
  EXPECT_EQ(R.Stats.Checksum, 13078665190986729833ULL);
  EXPECT_EQ(R.DecisionChecksum, 10384348596281101495ULL);
  EXPECT_EQ(R.DecisionsTotal, 15441u);
  EXPECT_EQ(R.Stats.Totals.DeparturesSent, 730u);
  EXPECT_EQ(R.Stats.Totals.ArrivalsDelivered, 491u);
  EXPECT_EQ(R.Stats.Totals.TasksAlive, 967u);
}
