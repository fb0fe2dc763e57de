//===-- perfbench/Grid.cpp - paper-grid -----------------------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// One pass = one Fig 8 sweep: for each of the four dynamic scenarios, the
// cell plan exp::computeSpeedupMatrix builds (14 targets x {online,
// offline, analytic, mixture}, each beside its default-policy baseline, per
// workload set) run through Driver::measureCells with 3 repeats on a
// 4-worker pool, the baseline cache cleared first. The plan is built here
// rather than through computeSpeedupMatrix so the run can count decisions
// and failures, and so a traced sweep can wrap every policy factory.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/MixtureOfExperts.h"
#include "exp/Driver.h"
#include "exp/PolicySet.h"
#include "support/Statistics.h"
#include "workload/Catalog.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

using namespace perfbench;
using namespace medley;

namespace {

/// DriverOptions' own seed; --seed N runs the grid at this + N.
constexpr uint64_t DefaultGridSeed = 0xD01;

/// Fig 8 rows of the default seed: per scenario, the hmean of each
/// standard policy (online, offline, analytic, mixture), bit for bit. The
/// mixture column reads 2.19849 / 2.19869 / 2.36229 / 1.99824.
constexpr double PinnedHmean[4][4] = {
    {1.6086427970629256, 2.1730098968292366, 1.5973637320937644, 2.1984931361063369},
    {1.5811255688897798, 2.1671188224934665, 1.5744492687840319, 2.1986905904129554},
    {1.8065168885972438, 2.3341075025725333, 1.9701621071903583, 2.3622855921235177},
    {1.5970624550238346, 2.0196201017003337, 1.7138086741999117, 1.9982407165683678}};

exp::DriverOptions gridOptions(uint64_t SeedOffset) {
  exp::DriverOptions Options;
  Options.Seed = DefaultGridSeed + SeedOffset;
  Options.Jobs = Workers;
  return Options;
}

struct Sweep {
  double WallS = 0.0;
  uint64_t Decisions = 0; ///< Target decisions of every run, baselines too.
  uint64_t Runs = 0;
  uint64_t Failures = 0; ///< Repeats recorded as CellFailure.
  /// Hmean[s][p]: hmean over targets of policy p in scenario s.
  std::vector<std::vector<double>> Hmean;
  std::vector<double> Overall; ///< Per policy, over every (scenario, target).

  // Traced sweeps only.
  uint64_t CacheHits = 0;
  uint64_t CacheLookups = 0;
  double IdleS = 0.0;    ///< Workers' join wait after their last run.
  double ExecS = 0.0;    ///< measureCells wall after planning, summed.
  double RunSpanS = 0.0; ///< Decorated run spans, summed.
  double SelectS = 0.0;  ///< Decorated select() spans, summed.
};

/// Runs one sweep. With \p Tracer set, every policy factory is wrapped
/// and the records of the sweep stay in the tracer.
Sweep runSweep(exp::Driver &D, PolicyTracer *Tracer, bool Capture) {
  exp::PolicySet &Policies = exp::PolicySet::instance();
  const std::vector<std::string> &Names = exp::PolicySet::standardPolicies();
  const std::vector<std::string> &Targets = workload::Catalog::evaluationTargets();

  Sweep Out;
  std::vector<std::vector<double>> All(Names.size());
  exp::BaselineCache &Cache = exp::BaselineCache::instance();
  Clock::time_point Start = Clock::now();
  D.clearCache();
  Cache.resetCounters();
  for (const exp::Scenario &Scen : exp::Scenario::dynamicScenarios()) {
    const std::vector<workload::WorkloadSet> &Sets = Scen.workloadSets();
    std::vector<policy::PolicyFactory> Factories;
    Factories.reserve(Targets.size() * Names.size()); // Cells point in here.
    std::vector<exp::CellSpec> Cells;
    for (const std::string &Target : Targets)
      for (const std::string &Name : Names) {
        policy::PolicyFactory F = Policies.factory(Name);
        Factories.push_back(Tracer ? Tracer->wrap(std::move(F), Capture) : std::move(F));
        for (const workload::WorkloadSet &Set : Sets) {
          exp::CellSpec Base;
          Base.Target = Target;
          Base.Scen = &Scen;
          Base.Set = &Set;
          Cells.push_back(Base);
          Base.Factory = &Factories.back();
          Cells.push_back(Base);
        }
      }

    size_t FirstRecord = Tracer ? Tracer->records().size() : 0;
    auto Results = D.measureCells(Cells);
    Clock::time_point CallEnd = Clock::now();

    // Reduce exactly as computeSpeedupMatrix does: per-set time ratios,
    // harmonically averaged over sets, then over targets.
    std::vector<std::vector<double>> Columns(Names.size());
    size_t Next = 0;
    for (size_t T = 0; T < Targets.size(); ++T)
      for (size_t P = 0; P < Names.size(); ++P) {
        std::vector<double> PerSet;
        for (size_t S = 0; S < Sets.size(); ++S, Next += 2)
          PerSet.push_back(Results[Next]->MeanTargetTime /
                           Results[Next + 1]->MeanTargetTime);
        Columns[P].push_back(harmonicMean(PerSet));
        All[P].push_back(Columns[P].back());
      }
    std::vector<double> Row;
    for (const std::vector<double> &Column : Columns)
      Row.push_back(harmonicMean(Column));
    Out.Hmean.push_back(std::move(Row));

    // Baseline cells alias one measurement; count each measurement once.
    std::set<const exp::Measurement *> Seen;
    for (const auto &M : Results)
      if (Seen.insert(M.get()).second) {
        Out.Runs += M->Runs.size();
        Out.Failures += M->Failures.size();
        for (const runtime::CoExecutionResult &Run : M->Runs)
          Out.Decisions += Run.TargetDecisions.size();
      }

    if (!Tracer)
      continue;
    // Each worker idles at the join from the end of its last run span;
    // the plan is built before the first run starts, on the caller.
    std::deque<PolicyRecord> &Records = Tracer->records();
    Clock::time_point PlanEnd = Tracer->lastFactoryCall();
    std::map<std::thread::id, Clock::time_point> LastEnd;
    for (size_t I = FirstRecord; I < Records.size(); ++I) {
      const PolicyRecord &Rec = Records[I];
      Clock::time_point &Last = LastEnd[Rec.Thread];
      Last = std::max(Last, Rec.End);
      Out.RunSpanS += seconds(Rec.Begin, Rec.End);
      Out.SelectS += static_cast<double>(Rec.SelectNsTotal) * 1e-9;
    }
    double Exec = seconds(PlanEnd, CallEnd);
    Out.ExecS += Exec;
    Out.IdleS += static_cast<double>(Workers - std::min<size_t>(Workers, LastEnd.size())) * Exec;
    for (const auto &[Thread, Last] : LastEnd)
      Out.IdleS += seconds(Last, CallEnd);
  }
  Out.WallS = seconds(Start, Clock::now());
  Out.CacheHits = Cache.hits();
  Out.CacheLookups = Cache.hits() + Cache.misses();
  for (const std::vector<double> &Column : All)
    Out.Overall.push_back(harmonicMean(Column));
  return Out;
}

bool sameGrid(const Sweep &A, const Sweep &B) {
  return A.Hmean == B.Hmean && A.Overall == B.Overall &&
         A.Decisions == B.Decisions && A.Runs == B.Runs;
}

size_t mixtureColumn() {
  const std::vector<std::string> &Names = exp::PolicySet::standardPolicies();
  return static_cast<size_t>(
      std::find(Names.begin(), Names.end(), "mixture") - Names.begin());
}


/// Mean ns per decision of each mixture stage, replayed from the feature
/// vectors a traced sweep captured, through the public functions the
/// mixture's decision path calls.
struct StageNs {
  double Standardize = 0.0;
  double ThreadPredict = 0.0;
  double EnvPredict = 0.0;
  double Selector = 0.0;
  size_t Decisions = 0;
};

StageNs replayStages(std::deque<PolicyRecord> &Captured, Report &Rep) {
  std::vector<const PolicyRecord *> Recs;
  for (const PolicyRecord &Rec : Captured)
    if (Rec.Capture && !Rec.Features.empty())
      Recs.push_back(&Rec);
  StageNs Out;
  if (!Rep.check(!Recs.empty(), "traced sweep captured mixture decisions"))
    return Out;

  const std::vector<core::Expert> &Experts = *Recs.front()->Experts;
  const size_t K = Experts.size();
  std::vector<const LinearModel *> ThreadModels, EnvModels;
  for (const core::Expert &E : Experts) {
    ThreadModels.push_back(E.threadModel());
    EnvModels.push_back(E.envModel());
  }
  bool Linear = std::all_of(ThreadModels.begin(), ThreadModels.end(),
                            [](const LinearModel *M) { return M != nullptr; }) &&
                std::all_of(EnvModels.begin(), EnvModels.end(),
                            [](const LinearModel *M) { return M != nullptr; });
  if (!Rep.check(Linear, "every expert is linear (the stage replay's path)"))
    return Out;
  const FeatureScaler &Scaler = ThreadModels.front()->scaler();

  std::vector<const policy::FeatureVector *> F;
  for (const PolicyRecord *Rec : Recs)
    for (const policy::FeatureVector &Features : Rec->Features)
      F.push_back(&Features);
  const size_t N = F.size();
  Out.Decisions = N;
  std::vector<Vec> Z(N);
  std::vector<double> Raw(N * K), Env(N * K);
  Vec Errors(K), Weights;

  // Median of 9 timed passes over all N vectors; \p Prepare runs untimed
  // before each.
  auto Time = [N](const std::function<void()> &Stage,
                  const std::function<void()> &Prepare = [] {}) {
    std::vector<double> Samples;
    for (int Round = 0; Round < 9; ++Round) {
      Prepare();
      Clock::time_point Begin = Clock::now();
      Stage();
      Samples.push_back(seconds(Begin, Clock::now()) * 1e9 / static_cast<double>(N));
    }
    return median(std::move(Samples));
  };
  Out.Standardize = Time([&] {
    for (size_t I = 0; I < N; ++I)
      Scaler.transformInto(F[I]->Values, Z[I]);
  });
  Out.ThreadPredict = Time([&] {
    for (size_t I = 0; I < N; ++I)
      LinearModel::predictStandardizedMany(ThreadModels.data(), K, Z[I], &Raw[I * K]);
  });
  Out.EnvPredict = Time([&] {
    for (size_t I = 0; I < N; ++I) {
      LinearModel::predictMany(EnvModels.data(), K, F[I]->Values, &Env[I * K]);
      for (size_t J = 0; J < K; ++J)
        Env[I * K + J] = std::max(0.0, Env[I * K + J]);
    }
  });

  // Selector: each instance's decisions in order on a fresh selector, the
  // judge's update (previous features, errors of the previous environment
  // predictions against this decision's observed norm) then the gate.
  std::vector<std::unique_ptr<core::ExpertSelector>> Selectors;
  auto Gate = [&](core::ExpertSelector &Sel, size_t First, size_t I) {
    if (I > First) {
      for (size_t J = 0; J < K; ++J)
        Errors[J] = std::fabs(Env[(I - 1) * K + J] - F[I]->EnvNorm);
      Sel.update(F[I - 1]->Values, Errors);
    }
    if (!Sel.blendWeights(F[I]->Values, Weights)) {
      Weights.assign(K, 0.0);
      Weights[Sel.select(F[I]->Values)] = 1.0;
    }
  };
  Out.Selector = Time(
      [&] {
        size_t First = 0;
        for (size_t R = 0; R < Recs.size(); First += Recs[R]->Features.size(), ++R)
          for (size_t I = First; I < First + Recs[R]->Features.size(); ++I)
            Gate(*Selectors[R], First, I);
      },
      [&] {
        Selectors.clear();
        for (const PolicyRecord *Rec : Recs)
          Selectors.push_back(Rec->FreshSelector->clone());
      });

  // The harness is checked, untimed: the stages recombine (soft blend of
  // the rounded, clamped expert predictions) into the decisions the
  // policy made.
  size_t Mismatch = 0;
  size_t First = 0;
  for (size_t R = 0; R < Recs.size(); First += Recs[R]->Features.size(), ++R) {
    std::unique_ptr<core::ExpertSelector> Sel = Recs[R]->FreshSelector->clone();
    for (size_t I = First; I < First + Recs[R]->Features.size(); ++I) {
      Gate(*Sel, First, I);
      const auto Max = static_cast<long>(F[I]->MaxThreads);
      double Blend = 0.0;
      for (size_t J = 0; J < K; ++J)
        Blend += Weights[J] * static_cast<double>(
                                  std::clamp<long>(std::lround(Raw[I * K + J]), 1, Max));
      auto Threads = static_cast<unsigned>(std::clamp<long>(std::lround(Blend), 1, Max));
      Mismatch += Threads == Recs[R]->Threads[I - First] ? 0 : 1;
    }
  }
  Rep.check(Mismatch == 0, "stage replay recombines into the mixture's " +
                               std::to_string(N) + " captured decisions (" +
                               std::to_string(Mismatch) + " differ)");
  return Out;
}

} // namespace

void perfbench::runGrid(const Options &Opts, Report &Rep, Outcome &Out) {
  const size_t Mix = mixtureColumn();
  SetupSampler Setup([&Opts] {
    return std::make_shared<exp::Driver>(gridOptions(Opts.Seed));
  });

  // The default seed's sweep runs first, untimed: it is the pinned output
  // check, and it warms the heap and caches for the timed sweeps.
  const Sweep Pin = [] {
    exp::Driver PinDriver(gridOptions(0));
    return runSweep(PinDriver, nullptr, false);
  }();

  exp::Driver D(gridOptions(Opts.Seed));
  PolicyTracer Tracer;
  std::deque<PolicyRecord> Captured;
  std::vector<Sweep> Plain, Traced;
  std::map<std::string, std::vector<uint32_t>> SelectNs; // By policy name.
  std::vector<double> RunMs;
  auto TracedSweep = [&] {
    Tracer.clear();
    Traced.push_back(runSweep(D, &Tracer, /*Capture=*/Captured.empty()));
    for (const PolicyRecord &Rec : Tracer.records()) {
      std::vector<uint32_t> &Ns = SelectNs[Rec.Kind];
      Ns.insert(Ns.end(), Rec.SelectNs.begin(), Rec.SelectNs.end());
      RunMs.push_back(seconds(Rec.Begin, Rec.End) * 1e3);
    }
    if (Captured.empty())
      Captured = std::move(Tracer.records());
  };

  Clock::time_point Window = Clock::now();
  for (double Elapsed = 0.0;
       Plain.size() < MinPasses || Elapsed < Opts.Seconds || !Setup.done();
       Elapsed = seconds(Window, Clock::now())) {
    Setup.between(Elapsed, Opts.Seconds);
    bool TracedFirst = Opts.Trace && Plain.size() % 2 == 1;
    if (TracedFirst)
      TracedSweep();
    Plain.push_back(runSweep(D, nullptr, false));
    if (Opts.Trace && !TracedFirst)
      TracedSweep();
  }

  // Output checks. A failed repeat or a sweep that disagrees with the
  // first fails all of its runs.
  const Sweep &Ref = Plain.front();
  uint64_t Attempted = 0, Failed = 0, Disagree = 0;
  for (const std::vector<Sweep> *Set : {&Plain, &Traced})
    for (const Sweep &S : *Set) {
      Attempted += S.Runs;
      bool Same = sameGrid(S, Ref);
      Disagree += Same ? 0 : 1;
      Failed += Same ? S.Failures : S.Runs;
    }
  Rep.check(Disagree == 0, std::to_string(Plain.size()) + " untraced and " +
                               std::to_string(Traced.size()) +
                               " traced sweeps reproduce the first sweep's "
                               "hmeans bit for bit");
  Rep.check(Ref.Failures == 0, std::to_string(Ref.Failures) + " of " +
                                   std::to_string(Ref.Runs) +
                                   " repeats per sweep recorded as CellFailure");

  // The default seed's pinned Fig 8 mixture column, and the paper's shape:
  // the mixture is the best policy in every scenario row.
  Attempted += Pin.Runs;
  bool PinOk = Pin.Failures == 0;
  const std::vector<std::string> &Names = exp::PolicySet::standardPolicies();
  for (size_t S = 0; S < Pin.Hmean.size(); ++S) {
    const std::vector<double> &Row = Pin.Hmean[S];
    bool Exact = Row.size() == Names.size() &&
                 std::memcmp(Row.data(), PinnedHmean[S], sizeof(PinnedHmean[S])) == 0;
    std::string Values;
    for (size_t P = 0; P < Row.size(); ++P)
      Values += " " + Names[P] + " " + format(Row[P], 17);
    PinOk = Rep.check(Exact, "default seed, " + exp::Scenario::dynamicScenarios()[S].Name +
                                 " hmeans pinned:" + Values) &&
            PinOk;
  }
  // The paper's headline shape. Per row it does not hold at the default
  // seed: large/high is a tie the mixture loses to offline by 1%
  // (EXPERIMENTS.md), so the rows are pinned exactly instead.
  const std::vector<double> &Overall = Pin.Overall;
  PinOk = Rep.check(std::max_element(Overall.begin(), Overall.end()) - Overall.begin() ==
                        static_cast<long>(Mix),
                    "default seed: the mixture has the best overall hmean (" +
                        format(Overall[Mix], 6) + " x)") &&
          PinOk;
  if (!PinOk)
    Failed += Pin.Runs;
  Rep.attempt(Attempted, Failed);

  std::vector<double> Walls, Rates;
  for (const Sweep &S : Plain) {
    Walls.push_back(S.WallS);
    Rates.push_back(static_cast<double>(S.Decisions) / S.WallS);
  }
  const SetupTimes Times = Setup.times();
  Out.SetupS = Times.SetupS;
  Out.PassS = median(Walls);
  Out.DecisionsPerS = median(Rates);
  Rep.note("grid_s " + format(Out.PassS) + " s per sweep; mixture_hmean_speedup " +
           format(Ref.Overall[Mix], 6) + " x (simulated; overall Fig 8 hmean); " +
           std::to_string(Ref.Runs) + " runs and " + std::to_string(Ref.Decisions) +
           " target decisions per sweep");
  if (!Opts.Trace)
    return;

  std::vector<double> TracedWalls, TracedRates;
  for (const Sweep &S : Traced) {
    TracedWalls.push_back(S.WallS);
    TracedRates.push_back(static_cast<double>(S.Decisions) / S.WallS);
  }
  double TracedPassS = median(TracedWalls);
  double TracedRate = median(TracedRates);
  Rep.note("tracing overhead: grid_s " + format(TracedPassS) + " - " + format(Out.PassS) +
           " = " + format(TracedPassS - Out.PassS) + " s; decisions_per_s " +
           format(TracedRate) + " - " + format(Out.DecisionsPerS) + " = " +
           format(TracedRate - Out.DecisionsPerS) + " 1/s");

  auto Per = [&Traced](auto Field) {
    std::vector<double> V;
    for (const Sweep &S : Traced)
      V.push_back(Field(S));
    return median(std::move(V));
  };
  double Covered = Per([](const Sweep &S) { return (S.RunSpanS + S.IdleS) / (Workers * S.ExecS); });
  Rep.check(Covered >= 0.6 && Covered <= 1.0 + 1e-9,
            "policy run spans + join idle cover " + format(100.0 * Covered) +
                "% of workers x execution wall (bound: 60-100%; the rest is "
                "baseline runs, whose default policy exp::Driver makes itself, "
                "and per-run simulation set-up)");

  auto Pct = [&SelectNs](const std::string &Policy, double Q) {
    const std::vector<uint32_t> &Ns = SelectNs[Policy];
    return quantile(std::vector<double>(Ns.begin(), Ns.end()), Q);
  };
  std::map<std::string, double> &L = Out.Layers;
  L["core.train_s"] = Times.TrainS;
  L["sim.seed_s"] = Times.BuildS;
  L["policy.online_select_ns_p50"] = Pct("online", 0.5);
  L["policy.offline_select_ns_p50"] = Pct("offline", 0.5);
  L["policy.analytic_select_ns_p50"] = Pct("analytic", 0.5);
  L["core.mixture_select_ns_p50"] = Pct("mixture", 0.5);
  L["core.mixture_select_ns_p99"] = Pct("mixture", 0.99);
  Rep.note(std::to_string(SelectNs["mixture"].size()) + " mixture select() samples, " +
           std::to_string(RunMs.size()) + " decorated runs");
  L["policy.decisions"] = static_cast<double>(Ref.Decisions);
  L["runtime.run_ms_p50"] = median(RunMs);
  L["sim.run_self_share"] = Per([](const Sweep &S) { return (S.RunSpanS - S.SelectS) / S.RunSpanS; });
  L["exp.pool_idle_share"] = Per([](const Sweep &S) { return S.IdleS / (Workers * S.ExecS); });
  L["exp.baseline_cache_hit_ratio"] = Per([](const Sweep &S) {
    return static_cast<double>(S.CacheHits) / static_cast<double>(std::max<uint64_t>(1, S.CacheLookups));
  });
  Rep.note("baseline cache: " + std::to_string(Traced.front().CacheHits) + " hits of " +
           std::to_string(Traced.front().CacheLookups) + " lookups per sweep");
  L["exp.runs"] = static_cast<double>(Ref.Runs);
  L["exp.mixture_hmean_speedup"] = Ref.Overall[Mix];

  StageNs Stages = replayStages(Captured, Rep);
  double Select = L["core.mixture_select_ns_p50"];
  double Timer = clockPairNs();
  double Sum = Stages.Standardize + Stages.ThreadPredict + Stages.EnvPredict + Stages.Selector;
  L["ml.standardize_ns"] = Stages.Standardize;
  L["ml.thread_predict_ns"] = Stages.ThreadPredict;
  L["ml.env_predict_ns"] = Stages.EnvPredict;
  L["core.selector_ns"] = Stages.Selector;
  L["core.stage_remainder_ns"] = Select - Sum - Timer;
  L["core.stage_sum_share"] = Sum / Select;
  Rep.note("mixture decision, " + std::to_string(Stages.Decisions) + " replayed decisions (ns):");
  Rep.note("  standardize " + format(Stages.Standardize) + " + thread predict " +
           format(Stages.ThreadPredict) + " + env predict " + format(Stages.EnvPredict) +
           " + selector " + format(Stages.Selector) + " + span timer " + format(Timer) +
           " + remainder (judge, blend, clamps) " + format(Select - Sum - Timer) +
           " = select p50 " + format(Select));
}
