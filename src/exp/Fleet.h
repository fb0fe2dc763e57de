//===-- exp/Fleet.h - The fleet scenario ------------------------*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles sim::FleetEngine into the runnable fleet scenario (DESIGN.md
/// §16): tenant catalog drawn from the workload catalog's program specs
/// (shared, not copied, across tens of thousands of tenants), a per-shard
/// policy instance bound through runtime::bindPolicy (whose epoch table
/// computes each tick's pure decision work once per distinct input),
/// per-round migration/departure churn with bursty arrivals,
/// and unplug-storm fault plans confined to a leading subset of shards.
///
/// Results split cleanly into a deterministic half (tick counts, arrival /
/// departure counters, per-shard decision counts and checksums — all
/// bit-identical at any worker count and shard placement) and a wall-clock
/// half (tick-latency percentiles, rates) that tests must never gate on.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_EXP_FLEET_H
#define MEDLEY_EXP_FLEET_H

#include "sim/FleetEngine.h"

#include <string>
#include <vector>

namespace medley::exp {

/// Knobs of the fleet scenario (EXPERIMENTS.md documents the CLI mapping).
struct FleetScenarioConfig {
  unsigned Shards = 16;       ///< Share-nothing machine shards.
  unsigned Tenants = 100000;  ///< Fleet-wide tenant count at seed time.
  uint64_t Rounds = 8;        ///< Churn rounds to run.
  unsigned TicksPerRound = 25;///< Simulation ticks per shard per round.

  /// Per-round fraction of a shard's tenants that churn, in [0, 1] (half
  /// migrate to a random shard, half depart for good).
  double ChurnRate = 0.01;

  /// Every this-many rounds each shard posts a burst of fresh arrivals
  /// (0 = no bursts); burst size is BurstFraction of the shard's seed-time
  /// tenant share.
  unsigned BurstEvery = 4;
  double BurstFraction = 0.05;

  uint64_t Seed = 0xF1EE7;

  /// Shards [0, StormShards) run under a fault plan of repeated unplug
  /// storms and sensor-dropout windows; the rest stay healthy. The chaos
  /// tests assert the blast radius stays inside this prefix.
  unsigned StormShards = 0;

  /// Policy driving every tenant ("default", "online", "offline",
  /// "analytic", "mixture"); each shard gets its own instance.
  std::string Policy = "mixture";

  /// Thread-count ceiling per tenant (fleet tenants are small jobs, not
  /// whole-machine programs).
  unsigned TenantMaxThreads = 8;

  unsigned Jobs = 0;      ///< Worker pool size (0 = MEDLEY_JOBS/hardware).
  unsigned PlanSlots = 0; ///< Shard→slot plan override (0 = one per worker).
};

/// Per-shard decision aggregate: count plus an order-sensitive FNV-1a
/// checksum over the chosen thread counts (the full Decision vectors would
/// be gigabytes at fleet scale).
struct FleetShardDecisions {
  uint64_t Count = 0;
  uint64_t Checksum = 0;
};

/// Outcome of one fleet scenario run.
struct FleetResult {
  // --- Deterministic half: bit-identical at any --jobs and placement. ---
  sim::FleetStats Stats;
  std::vector<FleetShardDecisions> Decisions; ///< Shard-id order.
  uint64_t DecisionsTotal = 0;
  uint64_t DecisionChecksum = 0; ///< Ordered combine over the shards.

  // --- Wall-clock half: never gate tests on these. ---
  support::LatencyHistogram TickLatency; ///< Per-tick latency, all shards.
  double WallSeconds = 0.0;
  double TicksPerSec = 0.0;
  double DecisionsPerSec = 0.0;
};

/// The assembled scenario. Splitting construction / seeding / running lets
/// bench_fleet warm an engine up and then meter single ticks (the
/// zero-allocation gate) with the same assembly the full run uses.
class FleetScenario {
public:
  explicit FleetScenario(FleetScenarioConfig Config);
  ~FleetScenario();

  FleetScenario(const FleetScenario &) = delete;
  FleetScenario &operator=(const FleetScenario &) = delete;

  sim::FleetEngine &engine() { return *Engine; }
  const FleetScenarioConfig &config() const { return Config; }

  /// Populates every shard with its seed-time tenants (deterministic,
  /// caller thread).
  void seed();

  /// Runs the configured rounds on a fresh pool of Config.Jobs workers and
  /// returns the reduced result (wall-clock half included).
  FleetResult run();

  /// Reduces the current engine state without running anything further;
  /// \p WallSeconds (0 = unknown) feeds the rate fields.
  FleetResult collect(double WallSeconds) const;

  /// The machine model one shard gets: enough cores and bandwidth that
  /// \p TenantsPerShard small tenants keep a CPU share near one — fleet
  /// shards model rack-scale hosts, not the paper's 32-core testbed.
  static sim::MachineConfig shardMachine(unsigned TenantsPerShard,
                                         unsigned TenantMaxThreads);

private:
  struct Binding;

  FleetScenarioConfig Config;
  std::unique_ptr<sim::FleetEngine> Engine;
  /// Per-shard policy instance + chooser + decision log; index
  /// = shard id. Stable storage: choosers hold references into it.
  std::shared_ptr<std::vector<Binding>> Bindings;
  /// Token → tenant mapping, shared between seeding and the engine's
  /// mailbox deliveries so both arrival paths build identical tenants.
  std::function<std::shared_ptr<sim::Task>(unsigned Shard, uint64_t Token)>
      MakeTenant;
};

/// Convenience: construct, seed, run.
FleetResult runFleetScenario(const FleetScenarioConfig &Config);

} // namespace medley::exp

#endif // MEDLEY_EXP_FLEET_H
