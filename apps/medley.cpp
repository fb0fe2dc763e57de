//===-- apps/medley.cpp - Command-line driver -----------------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The command-line front end:
//
//   medley list
//       Programs, policies and scenarios available.
//   medley speedup --target cg --policy mixture --scenario large/low
//       Speedup of a policy over the OpenMP default in a paper scenario.
//   medley coexec --target cg --policy mixture --workload bt,is,art
//                 [--cores 32] [--period 20] [--timeline]
//       One co-execution run with an explicit workload; optionally prints
//       the decision timeline.
//   medley experts [--num 4]
//       The trained experts: split, sample counts, weights.
//   medley lifecycle --target cg --workload bt,is [--retrain-window 512]
//                    [--canary-fraction 1.0] [--rollback-strikes 3]
//       The hot expert lifecycle end to end: a baseline run records a
//       trace, a background worker refits the experts from it, and a
//       second run drives the candidate through shadow -> canary ->
//       promote (or auto-rollback) against the live registry.
//
//===----------------------------------------------------------------------===//

#include "core/ExpertIo.h"
#include "core/ExpertTrainer.h"
#include "core/LiveMixture.h"
#include "support/ThreadPool.h"
#include "exp/Driver.h"
#include "exp/Fleet.h"
#include "exp/PolicySet.h"
#include "exp/Reporter.h"
#include "policy/Features.h"
#include "runtime/CoExecution.h"
#include "support/Error.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "trace/Columnar.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

using namespace medley;

namespace {

/// Reports a bad command-line value under the invalid-argument error code;
/// returns the CLI's failure exit status.
int invalidArgument(const std::string &Message) {
  std::cerr << support::Error(support::ErrorCode::InvalidArgument, Message)
                   .str()
            << '\n';
  return 1;
}

/// Trivial --key value / --flag argument map. A malformed number exits
/// with an invalid-argument message instead of throwing; main() rejects
/// keys the subcommand does not accept.
class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument '" << Arg << "'\n";
        Ok = false;
        continue;
      }
      std::string Key = Arg.substr(2);
      if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
        Values[Key] = Argv[++I];
      else
        Values[Key] = "";
    }
  }

  bool valid() const { return Ok; }
  bool has(const std::string &Key) const { return Values.count(Key) != 0; }

  /// The first given key not in \p Accepted, or empty when all are.
  std::string unknownKey(const std::vector<std::string> &Accepted) const {
    for (const auto &[Key, Value] : Values)
      if (std::find(Accepted.begin(), Accepted.end(), Key) == Accepted.end())
        return Key;
    return "";
  }

  std::string get(const std::string &Key,
                  const std::string &Default = "") const {
    auto It = Values.find(Key);
    return It == Values.end() ? Default : It->second;
  }

  unsigned getUnsigned(const std::string &Key, unsigned Default) const {
    auto It = Values.find(Key);
    if (It == Values.end())
      return Default;
    const std::string &Text = It->second;
    const char *End = Text.data() + Text.size();
    unsigned Value = 0;
    auto [Stop, Status] = std::from_chars(Text.data(), End, Value);
    if (Status != std::errc() || Stop != End)
      std::exit(invalidArgument("--" + Key + " expects an unsigned integer, "
                                "got '" + Text + "'"));
    return Value;
  }

  double getDouble(const std::string &Key, double Default) const {
    auto It = Values.find(Key);
    if (It == Values.end())
      return Default;
    const std::string &Text = It->second;
    char *Stop = nullptr;
    double Value = std::strtod(Text.c_str(), &Stop);
    if (Text.empty() || Stop != Text.c_str() + Text.size())
      std::exit(invalidArgument("--" + Key + " expects a number, got '" +
                                Text + "'"));
    return Value;
  }

private:
  std::map<std::string, std::string> Values;
  bool Ok = true;
};

/// The --keys each subcommand reads; any other key is rejected, so a typo
/// or a removed option cannot pass unnoticed.
const std::map<std::string, std::vector<std::string>> &acceptedOptions() {
  static const std::map<std::string, std::vector<std::string>> Options = {
      {"list", {}},
      {"speedup", {"target", "policy", "scenario", "repeats", "jobs"}},
      {"coexec",
       {"target", "policy", "workload", "cores", "period", "seed",
        "timeline", "trace-out", "trace-format"}},
      {"trace-export", {"in", "out"}},
      {"experts", {"num", "save", "load"}},
      {"lifecycle",
       {"target", "workload", "cores", "period", "seed", "shadow-window",
        "promote-fraction", "canary-fraction", "canary-window",
        "rollback-strikes", "divergence-factor", "error-floor",
        "retrain-window", "snapshot-out"}},
      {"fleet",
       {"shards", "tenants", "rounds", "ticks", "churn", "seed",
        "storm-shards", "policy", "tenant-threads", "jobs", "per-shard"}},
  };
  return Options;
}

std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  std::istringstream SS(Csv);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

exp::Scenario scenarioByName(const std::string &Name) {
  for (const exp::Scenario &S : exp::Scenario::dynamicScenarios())
    if (S.Name == Name)
      return S;
  if (Name == exp::Scenario::isolatedStatic().Name)
    return exp::Scenario::isolatedStatic();
  if (Name == exp::Scenario::liveStudy().Name)
    return exp::Scenario::liveStudy();
  std::cerr << "unknown scenario '" << Name
            << "' (try: isolated/static, small/low, small/high, "
               "large/low, large/high, live-study)\n";
  std::exit(1);
}

int cmdList() {
  std::cout << "policies:  default online offline analytic mixture\n";
  std::cout << "scenarios: isolated/static";
  for (const exp::Scenario &S : exp::Scenario::dynamicScenarios())
    std::cout << ' ' << S.Name;
  std::cout << " live-study\n\nprograms:\n";
  Table T;
  T.addRow({"name", "suite", "serial work", "iterations", "ws (MB)"});
  for (const workload::ProgramSpec &Spec :
       workload::Catalog::allPrograms()) {
    T.addRow();
    T.addCell(Spec.Name);
    T.addCell(Spec.Suite);
    T.addCell(Spec.totalWork(), 0);
    T.addCell(Spec.Iterations);
    T.addCell(Spec.WorkingSetMb, 0);
  }
  T.print(std::cout);
  return 0;
}

int cmdSpeedup(const Args &A) {
  std::string Target = A.get("target", "cg");
  std::string Policy = A.get("policy", "mixture");
  exp::Scenario Scen = scenarioByName(A.get("scenario", "large/low"));
  if (!workload::Catalog::contains(Target)) {
    std::cerr << "unknown target '" << Target << "'\n";
    return 1;
  }

  exp::DriverOptions Options;
  Options.Repeats = A.getUnsigned("repeats", 3);
  Options.Jobs = A.getUnsigned("jobs", 0); // 0 = MEDLEY_JOBS / hardware.
  exp::Driver Driver(Options);
  exp::PolicySet &Policies = exp::PolicySet::instance();
  double S = Driver.speedup(Target, Policies.factory(Policy), Scen);
  std::cout << Target << " under '" << Policy << "' in " << Scen.Name
            << ": " << formatDouble(S, 2) << "x over the OpenMP default\n";
  return 0;
}

/// Writes \p Trace to \p Path in the requested format: "columnar" is the
/// binary format recorded at run time; "csv" runs the export post-pass
/// immediately instead of leaving it for `medley trace-export`.
int writeTrace(const trace::TickTrace &Trace, const std::string &Path,
               const std::string &Format) {
  if (Format == "columnar") {
    if (support::Error E = trace::ColumnarWriter::writeFile(Trace, Path)) {
      std::cerr << E.str() << '\n';
      return 1;
    }
  } else if (Format == "csv") {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    if (!OS) {
      std::cerr << "cannot open trace file for writing: " << Path << '\n';
      return 1;
    }
    trace::exportCsv(Trace, OS);
    if (!OS) {
      std::cerr << "trace CSV write failed: " << Path << '\n';
      return 1;
    }
  } else {
    std::cerr << "unknown trace format '" << Format
              << "' (try: columnar, csv)\n";
    return 1;
  }
  std::cout << "  trace: " << Trace.size() << " ticks -> " << Path << " ("
            << Format << ")\n";
  return 0;
}

int cmdCoexec(const Args &A) {
  std::string Target = A.get("target", "cg");
  std::string Policy = A.get("policy", "mixture");
  std::vector<std::string> Workload =
      splitList(A.get("workload", "bt,is"));
  for (const std::string &Name : Workload)
    if (!workload::Catalog::contains(Name)) {
      std::cerr << "unknown workload program '" << Name << "'\n";
      return 1;
    }

  runtime::CoExecutionConfig Config;
  unsigned Cores = A.getUnsigned("cores", 32);
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  Config.Machine.TotalCores = Cores;
  Config.Machine.MemoryBandwidth = 0.45 * Cores;
  double Period = A.getDouble("period", 20.0);
  uint64_t Seed = A.getUnsigned("seed", 42);
  Config.Availability = [Cores, Period, Seed] {
    return sim::PeriodicAvailability::standardLadder(Cores, Period, Seed);
  };
  Config.WorkloadSeed = Seed;
  Config.WorkloadMaxThreads = std::max(2u, Cores * 5 / 16);
  Config.RecordTraces = A.has("trace-out");

  exp::PolicySet &Policies = exp::PolicySet::instance();
  auto P = Policies.factory(Policy)();
  runtime::CoExecutionResult R =
      runCoExecution(Config, workload::Catalog::byName(Target), *P,
                     runtime::patternWorkload(Workload));

  std::cout << "target " << Target << " under '" << Policy << "' with {"
            << join(Workload, ", ") << "} on " << Cores << " cores:\n";
  std::cout << "  completion: " << formatDouble(R.TargetTime, 1) << " s ("
            << R.TargetRegions << " region executions)\n";
  std::cout << "  workload throughput: "
            << formatDouble(R.WorkloadThroughput, 2) << " work units/s\n";

  if (A.has("trace-out"))
    if (int Rc = writeTrace(R.Trace, A.get("trace-out"),
                            A.get("trace-format", "columnar")))
      return Rc;

  if (A.has("timeline")) {
    std::cout << "\n  t(s)  threads\n";
    double Last = -1e9;
    for (const runtime::Decision &D : R.TargetDecisions) {
      if (D.Time - Last < 2.0)
        continue;
      Last = D.Time;
      std::cout << "  " << padLeft(formatDouble(D.Time, 1), 5) << "  "
                << padLeft(std::to_string(D.Threads), 7) << "  "
                << asciiBar(D.Threads, 1.5) << '\n';
    }
  }
  return 0;
}

int cmdTraceExport(const Args &A) {
  if (!A.has("in")) {
    std::cerr << "trace-export needs --in FILE (a columnar trace)\n";
    return 1;
  }
  trace::TickTrace Trace;
  support::Error Err;
  if (!trace::ColumnarReader::readFile(A.get("in"), Trace, &Err)) {
    std::cerr << Err.str() << '\n';
    return 1;
  }
  if (A.has("out")) {
    std::ofstream OS(A.get("out"), std::ios::binary | std::ios::trunc);
    if (!OS) {
      std::cerr << "cannot open '" << A.get("out") << "' for writing\n";
      return 1;
    }
    trace::exportCsv(Trace, OS);
    if (!OS) {
      std::cerr << "trace CSV write failed: " << A.get("out") << '\n';
      return 1;
    }
    std::cerr << "exported " << Trace.size() << " ticks to " << A.get("out")
              << '\n';
  } else {
    trace::exportCsv(Trace, std::cout);
  }
  return 0;
}

int cmdExperts(const Args &A) {
  // Load pre-trained experts from a file instead of training.
  if (A.has("load")) {
    auto Loaded = core::loadExpertsFromFile(A.get("load"));
    if (!Loaded) {
      std::cerr << "failed to load experts from '" << A.get("load") << "'\n";
      return 1;
    }
    Table T;
    T.addRow({"expert", "regime", "mean ||e||", "w R2", "m R2"});
    for (const core::Expert &E : *Loaded) {
      T.addRow();
      T.addCell(E.name());
      T.addCell(E.description());
      T.addCell(E.meanTrainingEnv());
      T.addCell(E.threadModel()->trainingR2());
      T.addCell(E.envModel()->trainingR2());
    }
    T.print(std::cout);
    return 0;
  }

  unsigned K = A.getUnsigned("num", 4);
  exp::PolicySet &Policies = exp::PolicySet::instance();
  const auto &Built = Policies.builtExperts(K);

  if (A.has("save")) {
    std::vector<core::Expert> Experts;
    for (const core::BuiltExpert &B : Built)
      Experts.push_back(B.E);
    if (!core::saveExpertsToFile(A.get("save"), Experts)) {
      std::cerr << "failed to save experts to '" << A.get("save") << "'\n";
      return 1;
    }
    std::cout << "saved " << Experts.size() << " experts to "
              << A.get("save") << '\n';
    return 0;
  }

  Table T;
  T.addRow({"expert", "regime", "thread samples", "env samples",
            "mean ||e||", "w R2", "m R2"});
  for (const core::BuiltExpert &B : Built) {
    T.addRow();
    T.addCell(B.E.name());
    T.addCell(B.E.description());
    T.addCell(static_cast<unsigned>(B.ThreadData.size()));
    T.addCell(static_cast<unsigned>(B.EnvData.size()));
    T.addCell(B.E.meanTrainingEnv());
    T.addCell(B.E.threadModel()->trainingR2());
    T.addCell(B.E.envModel()->trainingR2());
  }
  T.print(std::cout);
  return 0;
}

int cmdLifecycle(const Args &A) {
  std::string Target = A.get("target", "cg");
  std::vector<std::string> Workload = splitList(A.get("workload", "bt,is"));
  if (!workload::Catalog::contains(Target)) {
    std::cerr << "unknown target '" << Target << "'\n";
    return 1;
  }
  for (const std::string &Name : Workload)
    if (!workload::Catalog::contains(Name)) {
      std::cerr << "unknown workload program '" << Name << "'\n";
      return 1;
    }

  runtime::CoExecutionConfig Config;
  unsigned Cores = A.getUnsigned("cores", 32);
  Config.Machine = sim::MachineConfig::evaluationPlatform();
  Config.Machine.TotalCores = Cores;
  Config.Machine.MemoryBandwidth = 0.45 * Cores;
  double Period = A.getDouble("period", 20.0);
  uint64_t Seed = A.getUnsigned("seed", 42);
  Config.Availability = [Cores, Period, Seed] {
    return sim::PeriodicAvailability::standardLadder(Cores, Period, Seed);
  };
  Config.WorkloadSeed = Seed;
  Config.WorkloadMaxThreads = std::max(2u, Cores * 5 / 16);
  Config.RecordTraces = true;

  exp::PolicySet &Policies = exp::PolicySet::instance();
  auto Registry = Policies.liveRegistry();

  core::RolloutOptions Rollout;
  Rollout.ShadowWindow = A.getUnsigned("shadow-window", 128);
  Rollout.PromoteFraction = A.getDouble("promote-fraction", 0.55);
  Rollout.CanaryFraction = A.getDouble("canary-fraction", 1.0);
  Rollout.CanaryWindow = A.getUnsigned("canary-window", 256);
  Rollout.RollbackStrikes = A.getUnsigned("rollback-strikes", 3);
  Rollout.DivergenceFactor = A.getDouble("divergence-factor", 3.0);
  Rollout.AbsoluteErrorFloor = A.getDouble("error-floor", 0.5);

  support::FaultStats Faults;
  auto Controller =
      std::make_shared<core::RolloutController>(Registry, Rollout, &Faults);
  auto Policy =
      Policies.liveMixtureFactory(4, "regime", Controller, {}, &Faults)();

  // Phase 1: baseline run under the seed snapshot, recording the trace the
  // trainer will refit from.
  runtime::CoExecutionResult Baseline =
      runCoExecution(Config, workload::Catalog::byName(Target), *Policy,
                     runtime::patternWorkload(Workload));
  std::cout << "baseline (snapshot v" << Registry->epoch() << "): "
            << formatDouble(Baseline.TargetTime, 1) << " s ("
            << Baseline.TargetRegions << " regions, "
            << Baseline.Trace.size() << " trace ticks)\n";

  // Background refit from the recorded window; the candidate lands in the
  // rollout mailbox through the thread-safe hand-off. The pool is drained
  // (dtor) before phase 2 so the demo stays deterministic.
  core::TrainerOptions TrainerOptions;
  TrainerOptions.Window.Window = A.getUnsigned("retrain-window", 512);
  core::ExpertTrainer Trainer(TrainerOptions);
  bool HaveCandidate = false;
  {
    support::ThreadPool Pool(1);
    Trainer.retrainAsync(
        Pool, Baseline.Trace, Registry->current(),
        [&](std::optional<std::vector<core::Expert>> Candidate) {
          if (Candidate) {
            HaveCandidate = true;
            Controller->submitCandidate(std::move(*Candidate));
          }
        });
  }
  if (!HaveCandidate) {
    std::cout << "retrain: window too thin to refit any expert; "
                 "no candidate staged\n";
    return 0;
  }
  std::cout << "retrain: candidate from the last "
            << TrainerOptions.Window.Window << "-tick window staged\n";

  // Phase 2: the rollout run. The same policy instance keeps its selector
  // state; the candidate shadow-scores, then (maybe) goes live as canary.
  runtime::CoExecutionResult Live =
      runCoExecution(Config, workload::Catalog::byName(Target), *Policy,
                     runtime::patternWorkload(Workload));
  Controller->maintain(); // Settle a verdict reached on the last decision.

  auto &Mixture = static_cast<core::LiveMixture &>(*Policy);
  std::cout << "rollout run: " << formatDouble(Live.TargetTime, 1) << " s ("
            << Live.TargetRegions << " regions)\n";
  std::cout << "  state: " << core::rolloutStateName(Controller->state())
            << "  (promotions " << Controller->promotions() << ", rollbacks "
            << Controller->rollbacks() << ", shadow rejects "
            << Controller->shadowRejects() << ")\n";
  std::cout << "  registry: v" << Registry->epoch() << " published, policy on v"
            << Mixture.boundVersion() << " after " << Mixture.swaps()
            << " swap(s)\n";

  if (A.has("snapshot-out")) {
    support::Error Err;
    if (!core::saveSnapshotToFile(A.get("snapshot-out"),
                                  *Registry->current(), &Err, nullptr,
                                  &Faults)) {
      std::cerr << Err.str() << '\n';
      return 1;
    }
    std::cout << "  snapshot v" << Registry->epoch() << " -> "
              << A.get("snapshot-out") << '\n';
  }
  return 0;
}

int cmdFleet(const Args &A) {
  exp::FleetScenarioConfig Config;
  Config.Shards = A.getUnsigned("shards", 16);
  Config.Tenants = A.getUnsigned("tenants", 10000);
  Config.Rounds = A.getUnsigned("rounds", 8);
  Config.TicksPerRound = A.getUnsigned("ticks", 25);
  Config.ChurnRate = A.getDouble("churn", 0.01);
  Config.Seed = A.getUnsigned("seed", 0xF1EE7);
  Config.StormShards = A.getUnsigned("storm-shards", 0);
  Config.Policy = A.get("policy", "mixture");
  Config.TenantMaxThreads = A.getUnsigned("tenant-threads", 8);
  Config.Jobs = A.getUnsigned("jobs", 0);
  if (Config.Shards == 0 || Config.Tenants == 0)
    return invalidArgument("fleet needs at least one shard and one tenant");
  if (Config.Rounds == 0 || Config.TicksPerRound == 0)
    return invalidArgument("--rounds and --ticks must be at least 1");
  if (!std::isfinite(Config.ChurnRate) || Config.ChurnRate < 0.0 ||
      Config.ChurnRate > 1.0)
    return invalidArgument("--churn must be a fraction in [0, 1]");

  std::cout << "fleet: " << Config.Tenants << " tenants across "
            << Config.Shards << " shards, " << Config.Rounds << " rounds x "
            << Config.TicksPerRound << " ticks under '" << Config.Policy
            << "'\n";

  exp::FleetResult R = exp::runFleetScenario(Config);

  std::cout << "  ticks: " << R.Stats.Totals.Ticks << "  decisions: "
            << R.DecisionsTotal << "  arrivals: "
            << R.Stats.Totals.ArrivalsDelivered << "  departures: "
            << R.Stats.Totals.DeparturesSent << "  alive: "
            << R.Stats.Totals.TasksAlive << "\n";
  std::cout << "  throughput: " << formatDouble(R.TicksPerSec / 1e3, 1)
            << " Kticks/s, " << formatDouble(R.DecisionsPerSec / 1e6, 2)
            << " Mdecisions/s (" << formatDouble(R.WallSeconds, 2)
            << " s wall)\n";
  const support::LatencyHistogram &H = R.TickLatency;
  std::cout << "  tick latency p50/p95/p99/p99.9: " << H.p50() << "/"
            << H.p95() << "/" << H.p99() << "/" << H.p999() << " ns (max "
            << H.max() << ")\n";
  std::cout << "  determinism: stats checksum " << R.Stats.Checksum
            << ", decision checksum " << R.DecisionChecksum
            << " (bit-identical at any --jobs)\n";

  if (A.has("per-shard")) {
    Table T;
    T.addRow({"shard", "ticks", "arrivals", "departures", "alive",
              "decisions"});
    for (size_t S = 0; S < R.Stats.Shards.size(); ++S) {
      const sim::FleetShardStats &Stats = R.Stats.Shards[S];
      T.addRow();
      T.addCell(static_cast<unsigned>(S));
      T.addCell(static_cast<unsigned>(Stats.Ticks));
      T.addCell(static_cast<unsigned>(Stats.ArrivalsDelivered));
      T.addCell(static_cast<unsigned>(Stats.DeparturesSent));
      T.addCell(static_cast<unsigned>(Stats.TasksAlive));
      T.addCell(static_cast<unsigned>(R.Decisions[S].Count));
    }
    T.print(std::cout);
  }
  return 0;
}

void usage() {
  std::cout
      << "medley — mixture-of-experts thread mapping (PLDI 2015 repro)\n\n"
         "usage:\n"
         "  medley list\n"
         "  medley speedup --target cg --policy mixture "
         "--scenario large/low [--repeats 3] [--jobs N]\n"
         "                 (--jobs 0 = auto: MEDLEY_JOBS env or all cores; "
         "results are\n"
         "                 identical at any value)\n"
         "  medley coexec  --target cg --policy mixture "
         "--workload bt,is,art\n"
         "                 [--cores 32] [--period 20] [--seed 42] "
         "[--timeline]\n"
         "                 [--trace-out FILE [--trace-format columnar|csv]]\n"
         "  medley trace-export --in FILE [--out FILE]\n"
         "                 (columnar binary trace -> CSV; stdout when "
         "--out is omitted)\n"
         "  medley experts [--num 4] [--save FILE | --load FILE]\n"
         "  medley lifecycle --target cg --workload bt,is [--cores 32]\n"
         "                 [--retrain-window 512] [--shadow-window 128]\n"
         "                 [--promote-fraction 0.55] [--canary-fraction 1.0]\n"
         "                 [--canary-window 256] [--rollback-strikes 3]\n"
         "                 [--divergence-factor 3.0] [--error-floor 0.5]\n"
         "                 [--snapshot-out FILE]\n"
         "                 (baseline run -> background refit -> shadow/"
         "canary rollout)\n"
         "  medley fleet   [--shards 16] [--tenants 10000] [--rounds 8]\n"
         "                 [--ticks 25] [--churn 0.01] [--storm-shards 0]\n"
         "                 [--policy mixture] [--tenant-threads 8]\n"
         "                 [--seed 62951] [--jobs N] [--per-shard]\n"
         "                 (sharded fleet scenario: deterministic aggregates"
         " at any --jobs;\n"
         "                 --per-shard prints the per-shard breakdown)\n";
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 1;
  }
  std::string Command = Argv[1];
  Args A(Argc, Argv);
  if (!A.valid()) {
    usage();
    return 1;
  }
  auto Accepted = acceptedOptions().find(Command);
  if (Accepted != acceptedOptions().end()) {
    std::string Unknown = A.unknownKey(Accepted->second);
    if (!Unknown.empty())
      return invalidArgument("unknown option '--" + Unknown + "'");
  }
  if (Command == "list")
    return cmdList();
  if (Command == "speedup")
    return cmdSpeedup(A);
  if (Command == "coexec")
    return cmdCoexec(A);
  if (Command == "trace-export")
    return cmdTraceExport(A);
  if (Command == "experts")
    return cmdExperts(A);
  if (Command == "lifecycle")
    return cmdLifecycle(A);
  if (Command == "fleet")
    return cmdFleet(A);
  usage();
  return Command == "help" || Command == "--help" ? 0 : 1;
}
