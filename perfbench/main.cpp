//===-- perfbench/main.cpp - The repository benchmark ---------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload fleet-mixture|fleet-churn|paper-grid --seed N
//             --seconds S --trace 0|1
//
// Runs one workload for S seconds of closed-loop passes and prints a
// metric table, then one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics of untraced passes; --trace 1 alternates untraced
// and traced passes and reports the per-layer metrics, every one on every
// workload (0 where the workload does not run that layer). README.md has
// the metric table.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "exp/PolicySet.h"
#include "support/Statistics.h"

#include <iostream>
#include <string>

using namespace perfbench;
using namespace medley;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Per-layer metrics in print order.
constexpr MetricSpec LayerMetrics[] = {
    {"core.train_s", "s"},
    {"sim.seed_s", "s"},
    {"sim.tick_self_s", "s"},
    {"sim.ns_per_tenant_tick", "ns"},
    {"sim.drain_s", "s"},
    {"sim.churn_s", "s"},
    {"sim.arrivals", "count"},
    {"sim.departures", "count"},
    {"sim.tick_us_p50", "us"},
    {"sim.tick_us_p99", "us"},
    {"support.barrier_idle_share", "share"},
    {"support.slot_imbalance", "ratio"},
    {"policy.decisions", "count"},
    {"core.mixture_select_ns_p50", "ns"},
    {"core.mixture_select_ns_p99", "ns"},
    {"policy.online_select_ns_p50", "ns"},
    {"policy.offline_select_ns_p50", "ns"},
    {"policy.analytic_select_ns_p50", "ns"},
    {"runtime.run_ms_p50", "ms"},
    {"sim.run_self_share", "share"},
    {"exp.pool_idle_share", "share"},
    {"exp.baseline_cache_hit_ratio", "share"},
    {"exp.runs", "count"},
    {"exp.mixture_hmean_speedup", "x"},
    {"ml.standardize_ns", "ns"},
    {"ml.thread_predict_ns", "ns"},
    {"ml.env_predict_ns", "ns"},
    {"core.selector_ns", "ns"},
    {"core.stage_remainder_ns", "ns"},
    {"core.stage_sum_share", "share"},
};

int usage() {
  std::cerr << "usage: perfbench --workload fleet-mixture|fleet-churn|paper-grid"
               " --seed N --seconds S --trace 0|1\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    try {
      size_t Used = 0;
      if (Flag == "--workload")
        Opts.Workload = Value, Used = Value.size();
      else if (Flag == "--seed")
        Opts.Seed = std::stoull(Value, &Used);
      else if (Flag == "--seconds")
        Opts.Seconds = std::stod(Value, &Used);
      else if (Flag == "--trace" && (Value == "0" || Value == "1"))
        Opts.Trace = Value == "1", Used = 1;
      if (Used != Value.size() || Used == 0)
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return Argc % 2 == 1 && Opts.Seconds > 0 &&
         (Opts.Workload == "fleet-mixture" || Opts.Workload == "fleet-churn" ||
          Opts.Workload == "paper-grid");
}

} // namespace

SetupSampler::SetupSampler(std::function<std::shared_ptr<void>()> InBuild)
    : Build(std::move(InBuild)) {
  sample();
}

void SetupSampler::between(double Elapsed, double Window) {
  if (!done() && Elapsed >= Window * static_cast<double>(Total.size()) / SetupSamples)
    sample();
}

void SetupSampler::sample() {
  std::unique_ptr<exp::PolicySet> Fresh;
  Clock::time_point T0 = Clock::now();
  exp::PolicySet *Set = &exp::PolicySet::instance();
  if (!Total.empty())
    Set = (Fresh = std::make_unique<exp::PolicySet>()).get();
  for (const std::string &Name : exp::PolicySet::standardPolicies())
    Set->factory(Name);
  Clock::time_point T1 = Clock::now();
  std::shared_ptr<void> Workload = Build();
  Clock::time_point T2 = Clock::now();
  Total.push_back(seconds(T0, T2));
  Train.push_back(seconds(T0, T1));
  BuildS.push_back(seconds(T1, T2));
}

SetupTimes SetupSampler::times() const {
  return {median(Total), median(Train), median(BuildS)};
}

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();
  std::cout << "perfbench " << Opts.Workload << " seed " << Opts.Seed << ", "
            << Opts.Seconds << " s, " << Workers << " workers, "
            << (Opts.Trace ? "traced" : "untraced") << "\n";

  Report Rep;
  Outcome Out;
  if (Opts.Workload == "paper-grid")
    runGrid(Opts, Rep, Out);
  else
    runFleet(Opts, Rep, Out);

  if (!Opts.Trace) {
    Rep.metric("setup_s", Out.SetupS, "s");
    Rep.metric("decisions_per_s", Out.DecisionsPerS, "1/s");
    Rep.metric("pass_s", Out.PassS, "s");
    Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  } else {
    for (const MetricSpec &M : LayerMetrics) {
      auto It = Out.Layers.find(M.Name);
      Rep.metric(M.Name, It == Out.Layers.end() ? 0.0 : It->second, M.Unit);
    }
  }
  Rep.print();
  return 0;
}
