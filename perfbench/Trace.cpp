//===-- perfbench/Trace.cpp - Benchmark clocks, spans and report ----------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "core/MixtureOfExperts.h"
#include "support/Statistics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

using namespace perfbench;
using namespace medley;

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  auto Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(Values.size())));
  size_t Index = std::min(Values.size() - 1, Rank == 0 ? 0 : Rank - 1);
  std::nth_element(Values.begin(), Values.begin() + static_cast<long>(Index),
                   Values.end());
  return Values[Index];
}

std::string perfbench::format(double V, int Precision) {
  std::ostringstream OS;
  OS.precision(Precision);
  OS << V;
  return OS.str();
}

double perfbench::clockPairNs() {
  std::vector<double> Samples;
  Samples.reserve(4096);
  for (int I = 0; I < 4096; ++I) {
    Clock::time_point A = Clock::now();
    Clock::time_point B = Clock::now();
    Samples.push_back(
        static_cast<double>(std::chrono::nanoseconds(B - A).count()));
  }
  return median(std::move(Samples));
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!std::isfinite(Value)) {
    check(false, "metric " + Name + " is finite");
    Value = 0.0;
  }
  Metrics.push_back({Name, Value, Unit});
}

bool Report::check(bool Ok, const std::string &What) {
  std::cout << (Ok ? "  ok    " : "  FAIL  ") << What << '\n';
  Correct = Correct && Ok;
  return Ok;
}

void Report::note(const std::string &Line) { std::cout << "  " << Line << '\n'; }

void Report::attempt(uint64_t Operations, uint64_t FailedOps) {
  Attempted += Operations;
  Failed += FailedOps;
}

void Report::print() const {
  char Share[160];
  std::snprintf(Share, sizeof(Share), "\n  failed_share %g (%llu failed of %llu attempted)\n",
                static_cast<double>(Failed) / static_cast<double>(std::max<uint64_t>(Attempted, 1)),
                static_cast<unsigned long long>(Failed),
                static_cast<unsigned long long>(Attempted));
  std::cout << Share;
  for (const Metric &M : Metrics) {
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-34s %16.6g %s\n", M.Name.c_str(),
                  M.Value, M.Unit.c_str());
    std::cout << Line;
  }
  // The JSON result is always the last line of stdout.
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(Attempted, 1)
            << ", \"failed\": " << Failed << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", Metrics[I].Value);
    std::cout << (I ? ", " : "") << '"' << Metrics[I].Name
              << "\": {\"value\": " << Value << ", \"unit\": \""
              << Metrics[I].Unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

namespace {

/// Forwards every call to the wrapped policy and records the run span and
/// each select() duration into its PolicyRecord.
class TimedPolicy final : public policy::ThreadPolicy {
public:
  TimedPolicy(std::unique_ptr<policy::ThreadPolicy> Inner, PolicyRecord &Rec)
      : Inner(std::move(Inner)), Rec(Rec) {}

  unsigned select(const policy::FeatureVector &Features) override {
    Clock::time_point Begin = Clock::now();
    unsigned Threads = Inner->select(Features);
    Clock::time_point End = Clock::now();
    auto Ns = static_cast<uint64_t>(std::chrono::nanoseconds(End - Begin).count());
    Rec.SelectNs.push_back(static_cast<uint32_t>(std::min<uint64_t>(Ns, UINT32_MAX)));
    Rec.SelectNsTotal += Ns;
    if (Rec.Capture) {
      Rec.Features.push_back(Features);
      Rec.Threads.push_back(Threads);
    }
    Rec.End = End;
    return Threads;
  }

  void beginDecisionEpoch() override { Inner->beginDecisionEpoch(); }

  void observe(const workload::RegionOutcome &Outcome) override {
    Inner->observe(Outcome);
    Rec.End = Clock::now();
  }

  // runtime::bindPolicy asks this exactly once, when the run binds the
  // policy: the record takes it as the start of the run span.
  bool decisionsArePure() const override {
    Rec.Begin = Clock::now();
    Rec.End = Rec.Begin;
    Rec.Thread = std::this_thread::get_id();
    return Inner->decisionsArePure();
  }

  void reset() override { Inner->reset(); }
  const std::string &name() const override { return Inner->name(); }

private:
  std::unique_ptr<policy::ThreadPolicy> Inner;
  PolicyRecord &Rec;
};

} // namespace

policy::PolicyFactory PolicyTracer::wrap(policy::PolicyFactory Inner,
                                         bool CaptureMixture) {
  return [this, Inner = std::move(Inner), CaptureMixture]()
             -> std::unique_ptr<policy::ThreadPolicy> {
    std::unique_ptr<policy::ThreadPolicy> Policy = Inner();
    PolicyRecord &Rec = Records.emplace_back();
    Rec.Kind = Policy->name();
    Rec.SelectNs.reserve(64);
    if (CaptureMixture)
      if (auto *Mix = dynamic_cast<core::MixtureOfExperts *>(Policy.get())) {
        Rec.Capture = true;
        Rec.Experts = &Mix->experts();
        Rec.FreshSelector = Mix->selector().clone();
      }
    LastFactoryCall = Clock::now();
    return std::make_unique<TimedPolicy>(std::move(Policy), Rec);
  };
}
