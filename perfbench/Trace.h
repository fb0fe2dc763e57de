//===-- perfbench/Trace.h - Benchmark clocks, spans and report --*- C++ -*-===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark's workloads share: the host clock, order statistics,
/// the result report (human table on stdout, one JSON object as the last
/// line), and the timing ThreadPolicy decorator the traced grid run wraps
/// around every adaptive policy. All spans are recorded here, in the
/// benchmark, around calls into the medley layers; nothing inside src/ is
/// instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef MEDLEY_PERFBENCH_TRACE_H
#define MEDLEY_PERFBENCH_TRACE_H

#include "core/ExpertSelector.h"
#include "policy/ThreadPolicy.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace medley::core {
class Expert;
} // namespace medley::core

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::time_point Begin, Clock::time_point End) {
  return std::chrono::duration<double>(End - Begin).count();
}

/// Nearest-rank quantile (0 for an empty sample). Medians use
/// medley::median.
double quantile(std::vector<double> Values, double Q);

/// \p V with \p Precision significant digits.
std::string format(double V, int Precision = 4);

/// Median cost of one back-to-back pair of Clock::now() calls, in ns: the
/// fixed overhead every measured span carries.
double clockPairNs();

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Command-line options every workload receives.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
};

/// One run's result: metrics in print order plus the correctness verdict.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// A check: printed, and any failure makes the run incorrect.
  bool check(bool Ok, const std::string &What);
  void note(const std::string &Line);

  void attempt(uint64_t Operations, uint64_t Failed);

  /// Prints the metric table, then the JSON result as the last line.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// What one decorated policy instance saw during its run.
struct PolicyRecord {
  std::string Kind;
  std::thread::id Thread;
  /// Run span: from the runtime binding the policy (the one
  /// decisionsArePure() call of bindPolicy) to the target's last region
  /// outcome.
  Clock::time_point Begin{};
  Clock::time_point End{};
  uint64_t SelectNsTotal = 0;
  std::vector<uint32_t> SelectNs;

  // Mixture instances with capture on: the decision inputs, and what the
  // stage replay needs to recompute them outside the policy.
  bool Capture = false;
  std::vector<medley::policy::FeatureVector> Features;
  std::vector<unsigned> Threads; ///< What select() returned.
  const std::vector<medley::core::Expert> *Experts = nullptr;
  std::unique_ptr<medley::core::ExpertSelector> FreshSelector;
};

/// Record store for one sweep. Records are created on the planning thread
/// (factories run sequentially in plan order) and each is written only by
/// the worker running its instance, then read after the plan joins.
class PolicyTracer {
public:
  /// \p Inner wrapped so every instance it makes reports into a new record.
  medley::policy::PolicyFactory wrap(medley::policy::PolicyFactory Inner,
                                     bool CaptureMixture);

  std::deque<PolicyRecord> &records() { return Records; }
  /// When the most recent wrapped instance was made (end of planning).
  Clock::time_point lastFactoryCall() const { return LastFactoryCall; }
  void clear() { Records.clear(); }

private:
  std::deque<PolicyRecord> Records;
  Clock::time_point LastFactoryCall{};
};

} // namespace perfbench

#endif // MEDLEY_PERFBENCH_TRACE_H
