//===-- sim/AvailabilityPattern.cpp - Processor availability --------------------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/AvailabilityPattern.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace medley;
using namespace medley::sim;

AvailabilityPattern::~AvailabilityPattern() = default;

StaticAvailability::StaticAvailability(unsigned Cores) : Cores(Cores) {}

unsigned StaticAvailability::coresAt(double) { return Cores; }

double StaticAvailability::nextChangeAt(double) {
  return std::numeric_limits<double>::infinity();
}

PeriodicAvailability::PeriodicAvailability(std::vector<unsigned> Levels,
                                           double Period, uint64_t Seed)
    : Levels(std::move(Levels)), Period(Period), Seed(Seed), Generator(Seed) {
  assert(!this->Levels.empty() && "need at least one availability level");
  assert(Period > 0.0 && "period must be positive");
  assert(std::is_sorted(this->Levels.begin(), this->Levels.end()) &&
         "levels must be increasing");
  CurrentLevel = this->Levels.size() - 1; // Start fully available.
}

std::unique_ptr<PeriodicAvailability>
PeriodicAvailability::standardLadder(unsigned MaxCores, double Period,
                                     uint64_t Seed) {
  assert(MaxCores >= 4 && "ladder needs at least 4 cores");
  std::vector<unsigned> Levels = {MaxCores / 4, MaxCores / 2,
                                  3 * MaxCores / 4, MaxCores};
  return std::make_unique<PeriodicAvailability>(std::move(Levels), Period,
                                                Seed);
}

unsigned PeriodicAvailability::coresAt(double Time) {
  long Epoch = static_cast<long>(std::floor(Time / Period));
  // Advance the walk one epoch at a time so replays are exact regardless of
  // the tick length used by the caller.
  while (CurrentEpoch < Epoch) {
    ++CurrentEpoch;
    if (CurrentEpoch == 0)
      continue; // The initial level covers the first epoch.
    int Step = static_cast<int>(Generator.uniformInt(-1, 1));
    long Next = static_cast<long>(CurrentLevel) + Step;
    Next = std::clamp<long>(Next, 0, static_cast<long>(Levels.size()) - 1);
    CurrentLevel = static_cast<size_t>(Next);
  }
  return Levels[CurrentLevel];
}

double PeriodicAvailability::nextChangeAt(double Time) {
  if (Levels.size() == 1)
    return std::numeric_limits<double>::infinity();
  // The walk can only move at an epoch boundary. floor() here matches
  // coresAt exactly, so the caller's cached value transitions on the same
  // tick it would have by querying every tick.
  double Epoch = std::floor(Time / Period);
  return (Epoch + 1.0) * Period;
}

void PeriodicAvailability::reset() {
  Generator = Rng(Seed);
  CurrentEpoch = -1;
  CurrentLevel = Levels.size() - 1;
}

TraceAvailability::TraceAvailability(
    std::vector<std::pair<double, unsigned>> Points)
    : Points(std::move(Points)) {
  assert(!this->Points.empty() && "trace must have at least one point");
  assert(std::is_sorted(this->Points.begin(), this->Points.end(),
                        [](const auto &A, const auto &B) {
                          return A.first < B.first;
                        }) &&
         "trace points must be sorted by time");
}

unsigned TraceAvailability::coresAt(double Time) {
  // Find the last breakpoint at or before Time.
  auto It = std::upper_bound(
      Points.begin(), Points.end(), Time,
      [](double T, const auto &Point) { return T < Point.first; });
  if (It == Points.begin())
    return Points.front().second;
  return std::prev(It)->second;
}

double TraceAvailability::nextChangeAt(double Time) {
  auto It = std::upper_bound(
      Points.begin(), Points.end(), Time,
      [](double T, const auto &Point) { return T < Point.first; });
  if (It == Points.end())
    return std::numeric_limits<double>::infinity();
  return It->first;
}
