//===-- tests/ChaosLifecycleTest.cpp - Expert lifecycle chaos suite -------===//
//
// Part of Medley, a reproduction of "Celebrating Diversity" (PLDI 2015).
//
// The hot-expert-lifecycle chaos suite (DESIGN.md §14.6): RCU publication
// hammered from concurrent readers (the TSan target), the staged-rollout
// ladder end to end, crash-safe disk publication under injected torn
// writes / stale readbacks / candidate corruption, and the quarantine
// re-admission regression. Runs under ASan and TSan via MEDLEY_SANITIZE.
//
//===----------------------------------------------------------------------===//

#include "core/ExpertRegistry.h"
#include "core/ExpertTrainer.h"
#include "core/LiveMixture.h"
#include "core/RolloutController.h"
#include "sim/FaultInjector.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <thread>

using namespace medley;
using namespace medley::core;

namespace {

/// A linear model that predicts the constant \p Value everywhere (zero
/// weights, identity scaler): cheap, serialisable, bit-exact.
LinearModel constModel(double Value, const std::string &Name) {
  Vec Means(policy::NumFeatures, 0.0);
  Vec Scales(policy::NumFeatures, 1.0);
  LinearFit Fit;
  Fit.Weights = Vec(policy::NumFeatures, 0.0);
  Fit.Intercept = Value;
  return LinearModel(FeatureScaler::fromMoments(std::move(Means),
                                                std::move(Scales)),
                     std::move(Fit), Name);
}

Expert constExpert(const std::string &Name, double Threads, double Env,
                   const std::string &Description = "test") {
  return Expert(Name, Description, constModel(Threads, "w:" + Name),
                constModel(Env, "m:" + Name), Env);
}

std::shared_ptr<const std::vector<Expert>>
expertSet(std::vector<Expert> Experts) {
  return std::make_shared<const std::vector<Expert>>(std::move(Experts));
}

FeatureScaler identityScaler() {
  return FeatureScaler::fromMoments(Vec(policy::NumFeatures, 0.0),
                                    Vec(policy::NumFeatures, 1.0));
}

policy::FeatureVector makeFeatures(double EnvNorm) {
  policy::FeatureVector F;
  F.Values = {0.3, 0.4, 0.1, 5.0, 32.0, 10.0, 8.0, 8.0, 0.9, 0.01};
  F.EnvNorm = EnvNorm;
  F.MaxThreads = 32;
  return F;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

} // namespace

//===----------------------------------------------------------------------===//
// RCU publication under concurrent readers (the TSan target)
//===----------------------------------------------------------------------===//

TEST(LifecycleChaosTest, PublishHammerKeepsReadersConsistent) {
  support::FaultStats Stats;
  auto Registry = std::make_shared<ExpertRegistry>(&Stats);
  const FeatureScaler Scaler = identityScaler();

  // Two alternating contents; each version's checksum is known up front,
  // so any torn snapshot (version from one publication, experts from
  // another) is detectable by every reader.
  auto SetA = expertSet({constExpert("A0", 8.0, 1.0),
                         constExpert("A1", 16.0, 2.0)});
  auto SetB = expertSet({constExpert("B0", 4.0, 3.0),
                         constExpert("B1", 24.0, 4.0)});
  const uint64_t CkA = snapshotChecksum(*SetA, Scaler);
  const uint64_t CkB = snapshotChecksum(*SetB, Scaler);
  ASSERT_NE(CkA, CkB);

  Registry->publish(SetA, Scaler, nullptr);

  constexpr int Publications = 400;
  constexpr unsigned Readers = 4;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> NullSnapshots{0};
  std::atomic<uint64_t> TornSnapshots{0};
  std::atomic<uint64_t> NonMonotonic{0};

  {
    // Each long-running reader task occupies one pool worker until Stop.
    support::ThreadPool Pool(Readers);
    for (unsigned R = 0; R < Readers; ++R)
      Pool.submit([&] {
        ExpertRegistry::ReaderEpoch Reader;
        uint64_t LastVersion = 0;
        while (!Stop.load(std::memory_order_acquire)) {
          const ExpertSnapshot *Snap = Registry->acquire(Reader);
          if (!Snap) {
            ++NullSnapshots;
            continue;
          }
          if (Snap->Version < LastVersion)
            ++NonMonotonic;
          LastVersion = Snap->Version;
          const uint64_t Expected = Snap->Version % 2 == 1 ? CkA : CkB;
          if (Snap->Checksum != Expected ||
              (*Snap->Experts)[0].name()[0] !=
                  (Snap->Version % 2 == 1 ? 'A' : 'B'))
            ++TornSnapshots;
        }
      });

    for (int P = 2; P <= Publications; ++P)
      Registry->publish(P % 2 == 1 ? SetA : SetB, Scaler, nullptr);
    Stop.store(true, std::memory_order_release);
  } // Pool drain joins the readers.

  EXPECT_EQ(NullSnapshots.load(), 0u);

  EXPECT_EQ(TornSnapshots.load(), 0u);
  EXPECT_EQ(NonMonotonic.load(), 0u);
  EXPECT_EQ(Registry->epoch(), static_cast<uint64_t>(Publications));
  EXPECT_EQ(Stats.SnapshotPublications, static_cast<uint64_t>(Publications));
}

TEST(LifecycleChaosTest, TrainerThreadFeedsRolloutUnderReaders) {
  // The production shape: a ThreadPool worker retrains and submits
  // candidates while the decision thread drives observe()/maintain() and
  // extra reader threads hammer acquire(). TSan checks the hand-off.
  auto Registry = std::make_shared<ExpertRegistry>();
  auto Live = expertSet({constExpert("L0", 8.0, 5.0)});
  Registry->publish(Live, identityScaler(), nullptr);

  RolloutOptions Options;
  Options.ShadowWindow = 4;
  Options.PromoteFraction = 0.5;
  Options.CanaryWindow = 4;
  RolloutController Controller(Registry, Options);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> NullSnapshots{0};
  {
    // Workers 1..2 run reader loops until Stop; worker 3 streams
    // candidate submissions, mimicking the background trainer. A pool of
    // size N starts N - 1 workers (the caller is the N-th in
    // parallelFor), so three workers take size 4: with only two, both
    // could pick up a reader loop and starve every submission.
    support::ThreadPool Pool(4);
    for (unsigned R = 0; R < 2; ++R)
      Pool.submit([&] {
        ExpertRegistry::ReaderEpoch Reader;
        while (!Stop.load(std::memory_order_acquire))
          if (!Registry->acquire(Reader))
            ++NullSnapshots;
      });
    std::atomic<int> Submitted{0};
    for (int Round = 0; Round < 8; ++Round)
      Pool.submit([&Controller, &Submitted, Round] {
        Controller.submitCandidate(
            {constExpert("C" + std::to_string(Round), 8.0, 1.0)});
        Submitted.fetch_add(1, std::memory_order_release);
      });
    // Decision thread: judge towards promotion while candidates stream
    // in. The submitter worker may be scheduled long after this thread
    // starts (on a loaded host, later than any fixed spin would last), so
    // the spin starts once the first candidate is in the mailbox; the
    // other seven may still arrive during it. Bounded spin rather than a
    // fixed count (promotions() is only ever written by maintain() on
    // this thread, so the read races with nothing).
    while (Submitted.load(std::memory_order_acquire) == 0)
      std::this_thread::yield();
    const policy::FeatureVector F = makeFeatures(1.0);
    for (int I = 0; I < 2000000 && Controller.promotions() == 0; ++I) {
      Controller.maintain();
      Controller.observe(F);
    }
    Controller.maintain();
    Stop.store(true, std::memory_order_release);
  } // Pool drain joins readers and the submitter.
  EXPECT_EQ(NullSnapshots.load(), 0u);

  // Candidates predicting 1.0 against a live 5.0 and observations at 1.0
  // must win shadow and survive canary: at least one promotion happened.
  EXPECT_GE(Controller.promotions(), 1u);
  EXPECT_GE(Registry->epoch(), 2u);
}

//===----------------------------------------------------------------------===//
// Swap transparency: no publication => bit-identical decisions
//===----------------------------------------------------------------------===//

TEST(LifecycleChaosTest, NoSwapDecisionSequenceBitIdentical) {
  auto Experts = expertSet({constExpert("E0", 8.0, 1.0),
                            constExpert("E1", 16.0, 3.0)});
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(Experts, identityScaler(), nullptr);

  LiveMixture Live(Registry, std::make_unique<AccuracySelector>(2));
  MixtureOfExperts Plain(Experts, std::make_unique<AccuracySelector>(2));

  Rng R(77);
  for (int I = 0; I < 500; ++I) {
    policy::FeatureVector F = makeFeatures(R.uniform(0.5, 4.0));
    for (double &V : F.Values)
      V += R.uniform(-0.2, 0.2);
    Live.beginDecisionEpoch();
    EXPECT_EQ(Live.select(F), Plain.select(F)) << "decision " << I;
  }
  EXPECT_EQ(Live.swaps(), 0u);
  EXPECT_EQ(Live.boundVersion(), 1u);
}

//===----------------------------------------------------------------------===//
// The rollout ladder
//===----------------------------------------------------------------------===//

namespace {

RolloutOptions fastRollout() {
  RolloutOptions Options;
  Options.ShadowWindow = 8;
  Options.PromoteFraction = 0.6;
  Options.CanaryWindow = 8;
  Options.RollbackStrikes = 3;
  Options.DivergenceFactor = 1.5;
  Options.AbsoluteErrorFloor = 0.25;
  return Options;
}

/// Runs maintain()+observe() cycles, as the decision loop would.
void drive(RolloutController &Controller, double Observed, int Decisions) {
  const policy::FeatureVector F = makeFeatures(Observed);
  for (int I = 0; I < Decisions; ++I) {
    Controller.maintain();
    Controller.observe(F);
  }
  Controller.maintain();
}

} // namespace

TEST(LifecycleChaosTest, ShadowLoserIsRejectedWithoutPublication) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("L", 8.0, 1.0)}),
                    identityScaler(), nullptr);
  support::FaultStats Stats;
  RolloutController Controller(Registry, fastRollout(), &Stats);

  // Candidate predicts 4.0, live predicts 1.0, world delivers 1.0: the
  // candidate loses every judged decision.
  Controller.submitCandidate({constExpert("C", 8.0, 4.0)});
  drive(Controller, 1.0, 16);

  EXPECT_EQ(Controller.state(), RolloutState::Idle);
  EXPECT_EQ(Controller.shadowRejects(), 1u);
  EXPECT_EQ(Controller.promotions(), 0u);
  EXPECT_EQ(Registry->epoch(), 1u); // The loser never went live.
}

TEST(LifecycleChaosTest, CandidatePromotesThroughShadowAndCanary) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("L", 8.0, 5.0)}),
                    identityScaler(), nullptr);
  support::FaultStats Stats;
  RolloutController Controller(Registry, fastRollout(), &Stats);

  Controller.submitCandidate({constExpert("C", 12.0, 1.0)});
  drive(Controller, 1.0, 12); // Shadow: candidate wins every decision.
  EXPECT_EQ(Controller.state(), RolloutState::Canary);
  EXPECT_EQ(Registry->epoch(), 2u); // The swap happened at promotion.
  ASSERT_NE(Controller.preSwapSnapshot(), nullptr);
  EXPECT_EQ(Controller.preSwapSnapshot()->Version, 1u);

  drive(Controller, 1.0, 12); // Canary: zero error, zero strikes.
  EXPECT_EQ(Controller.state(), RolloutState::Promoted);
  EXPECT_EQ(Controller.promotions(), 1u);
  EXPECT_EQ(Controller.rollbacks(), 0u);
  EXPECT_EQ(Stats.SnapshotPromotions, 1u);
  EXPECT_EQ(Controller.preSwapSnapshot(), nullptr);
  EXPECT_EQ((*Registry->current()->Experts)[0].name(), "C");
  EXPECT_FALSE(Controller.consumeRollback());
}

TEST(LifecycleChaosTest, DivergingCanaryRollsBackBitIdentical) {
  auto Registry = std::make_shared<ExpertRegistry>();
  auto LiveSet = expertSet({constExpert("L", 8.0, 2.0)});
  Registry->publish(LiveSet, identityScaler(), nullptr);
  const uint64_t LiveChecksum = Registry->current()->Checksum;

  support::FaultStats Stats;
  RolloutController Controller(Registry, fastRollout(), &Stats);

  // Shadow at 6.0: candidate (6.0) beats live (2.0) and promotes...
  Controller.submitCandidate({constExpert("C", 12.0, 6.0)});
  drive(Controller, 6.0, 12);
  ASSERT_EQ(Controller.state(), RolloutState::Canary);
  ASSERT_EQ(Registry->epoch(), 2u);

  // ...but the world snaps back to 2.0: the canary's error (4.0) exceeds
  // 1.5 x the pre-swap snapshot's (0.0 -> floor 0.25) on every scored
  // decision; RollbackStrikes consecutive strikes trigger auto-rollback.
  drive(Controller, 2.0, 8);
  EXPECT_EQ(Controller.state(), RolloutState::RolledBack);
  EXPECT_EQ(Controller.rollbacks(), 1u);
  EXPECT_EQ(Stats.SnapshotRollbacks, 1u);

  // The rollback republished the pre-swap content under a fresh version:
  // monotonic epoch, bit-identical experts (the very same vector).
  EXPECT_EQ(Registry->epoch(), 3u);
  EXPECT_EQ(Registry->current()->Checksum, LiveChecksum);
  EXPECT_EQ(Registry->current()->Experts.get(), LiveSet.get());

  EXPECT_TRUE(Controller.consumeRollback());
  EXPECT_FALSE(Controller.consumeRollback()); // Acked exactly once.
}

TEST(LifecycleChaosTest, LiveMixtureFollowsSwapsAcrossTheLadder) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("L0", 8.0, 2.0),
                               constExpert("L1", 16.0, 2.5)}),
                    identityScaler(), nullptr);
  auto Controller =
      std::make_shared<RolloutController>(Registry, fastRollout());
  LiveMixture Policy(Registry,
                     std::make_unique<QuarantineSelector>(
                         std::make_unique<AccuracySelector>(2)),
                     Controller);

  EXPECT_EQ(Policy.boundVersion(), 1u);
  Controller->submitCandidate({constExpert("C0", 10.0, 6.0),
                               constExpert("C1", 20.0, 6.5)});

  auto decide = [&Policy](double Observed, int Decisions) {
    for (int I = 0; I < Decisions; ++I) {
      Policy.beginDecisionEpoch();
      unsigned N = Policy.select(makeFeatures(Observed));
      EXPECT_GE(N, 1u);
      EXPECT_LE(N, 32u);
    }
  };

  decide(6.0, 14); // Shadow won -> canary published -> policy swaps.
  EXPECT_EQ(Policy.boundVersion(), 2u);
  EXPECT_EQ(Policy.swaps(), 1u);
  EXPECT_EQ(Policy.mixture().experts()[0].name(), "C0");

  decide(2.0, 10); // Canary diverges -> rollback -> policy swaps back.
  EXPECT_EQ(Controller->state(), RolloutState::RolledBack);
  EXPECT_EQ(Policy.boundVersion(), 3u);
  EXPECT_EQ(Policy.swaps(), 2u);
  EXPECT_EQ(Policy.mixture().experts()[0].name(), "L0");
  // The rollback ack was consumed inside beginDecisionEpoch.
  EXPECT_FALSE(Controller->consumeRollback());
}

//===----------------------------------------------------------------------===//
// Quarantine re-admission (strike-leakage regression)
//===----------------------------------------------------------------------===//

TEST(LifecycleChaosTest, ReadmissionClearsStrikesButKeepsInnerLearning) {
  QuarantineOptions Options;
  Options.Strikes = 3;
  support::FaultStats Stats;
  // Three experts so the strike yardstick (median error) tracks the
  // healthy majority rather than the diverging outlier.
  QuarantineSelector Selector(std::make_unique<AccuracySelector>(3), Options,
                              &Stats);

  const Vec F = makeFeatures(1.0).Values;
  // Expert 0 diverges hard; experts 1 and 2 are accurate. The inner
  // accuracy selector learns to prefer 1 while the ladder quarantines 0.
  for (int I = 0; I < 8; ++I)
    Selector.update(F, {50.0, 0.1, 0.2});
  ASSERT_TRUE(Selector.isQuarantined(0));
  ASSERT_EQ(Selector.select(F), 1u);

  Selector.readmitAll();
  EXPECT_FALSE(Selector.isQuarantined(0));
  EXPECT_GE(Stats.Readmissions, 1u);
  // Inner learning survived: expert 1 is still preferred.
  EXPECT_EQ(Selector.select(F), 1u);

  // Strikes were cleared, not leaked: one post-readmission bad update is
  // below the 3-strike threshold, so expert 0 stays admitted.
  Selector.update(F, {50.0, 0.1, 0.2});
  EXPECT_FALSE(Selector.isQuarantined(0));
  // Three consecutive strikes quarantine again — the ladder still works.
  Selector.update(F, {50.0, 0.1, 0.2});
  Selector.update(F, {50.0, 0.1, 0.2});
  EXPECT_TRUE(Selector.isQuarantined(0));
}

TEST(LifecycleChaosTest, MixtureReadmitForwardsToQuarantineSelector) {
  auto Experts = expertSet({constExpert("E0", 8.0, 1.0),
                            constExpert("E1", 16.0, 1.0)});
  MixtureOfExperts Mix(Experts,
                       std::make_unique<QuarantineSelector>(
                           std::make_unique<AccuracySelector>(2)));
  // Expert 0's env prediction (1.0) is fine; force strikes by feeding
  // decisions whose observed env makes it diverge is impossible with equal
  // experts — drive the selector directly through decisions instead.
  for (int I = 0; I < 30; ++I)
    Mix.select(makeFeatures(I % 2 ? 1.0 : 60.0));
  // Whether or not anything was quarantined, the hook must be safe and
  // leave the mixture deciding.
  Mix.readmitQuarantined();
  EXPECT_FALSE(Mix.selector().allQuarantined());
  EXPECT_GE(Mix.select(makeFeatures(1.0)), 1u);
}

//===----------------------------------------------------------------------===//
// Crash-safe disk publication under injected faults
//===----------------------------------------------------------------------===//

namespace {

ExpertSnapshot snapshotOf(const ExpertRegistry &Registry) {
  return *Registry.current();
}

} // namespace

TEST(LifecycleChaosTest, SnapshotFileRoundTripsExactly) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("E0", 8.0, 1.25),
                               constExpert("E1", 16.0, 2.5)}),
                    identityScaler(),
                    std::make_shared<AccuracySelector>(2));
  const std::string Path = tempPath("medley_snapshot_roundtrip.txt");

  support::Error Err;
  ASSERT_TRUE(saveSnapshotToFile(Path, snapshotOf(*Registry), &Err))
      << Err.str();

  std::string SelectorName;
  auto Loaded = loadSnapshotFromFile(Path, &Err, 0, &SelectorName);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  EXPECT_EQ(Loaded->Version, 1u);
  EXPECT_EQ(Loaded->Checksum, Registry->current()->Checksum);
  EXPECT_EQ(SelectorName, "accuracy");
  ASSERT_EQ(Loaded->numExperts(), 2u);
  const policy::FeatureVector F = makeFeatures(1.0);
  for (size_t K = 0; K < 2; ++K) {
    EXPECT_EQ((*Loaded->Experts)[K].predictThreads(F),
              (*Registry->current()->Experts)[K].predictThreads(F));
    EXPECT_DOUBLE_EQ((*Loaded->Experts)[K].predictEnvNorm(F),
                     (*Registry->current()->Experts)[K].predictEnvNorm(F));
  }
}

TEST(LifecycleChaosTest, TornPublicationLeavesPreviousFileIntact) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("V1", 8.0, 1.0)}),
                    identityScaler(), nullptr);
  const std::string Path = tempPath("medley_snapshot_torn.txt");

  support::Error Err;
  ASSERT_TRUE(saveSnapshotToFile(Path, snapshotOf(*Registry), &Err));

  // Publish v2, but tear its disk publication through an injector window.
  Registry->publish(expertSet({constExpert("V2", 10.0, 2.0)}),
                    identityScaler(), nullptr);
  sim::FaultPlan Plan;
  Plan.TornPublication.push_back({0.0, 100.0});
  sim::FaultInjector Injector(Plan, 7);
  SnapshotFaultHooks Hooks;
  Hooks.TearWrite = [&Injector] { return Injector.tearPublication(50.0); };

  support::FaultStats Stats;
  EXPECT_FALSE(
      saveSnapshotToFile(Path, snapshotOf(*Registry), &Err, &Hooks, &Stats));
  EXPECT_EQ(Err.code(), support::ErrorCode::IoFailure);
  EXPECT_EQ(Stats.TornPublications, 1u);
  EXPECT_EQ(Injector.stats().TornPublications, 1u);

  // Crash consistency: the published path still holds complete v1.
  auto Loaded = loadSnapshotFromFile(Path, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  EXPECT_EQ(Loaded->Version, 1u);
  EXPECT_EQ((*Loaded->Experts)[0].name(), "V1");

  // Stale-readback defence: a reader that already observed v2 must refuse
  // the v1 file.
  support::FaultStats ReadStats;
  EXPECT_FALSE(
      loadSnapshotFromFile(Path, &Err, 2, nullptr, &ReadStats).has_value());
  EXPECT_EQ(Err.code(), support::ErrorCode::StaleVersion);
  EXPECT_EQ(ReadStats.StaleSnapshotReads, 1u);
}

TEST(LifecycleChaosTest, CorruptedCandidateNeverLoads) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("E", 8.0, 1.0)}),
                    identityScaler(), nullptr);

  sim::FaultPlan Plan;
  Plan.CandidateCorruption.push_back({0.0, 100.0});

  // Whatever the corruption (truncation or bit rot, seed-dependent), a
  // damaged candidate must never load as a valid snapshot.
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    sim::FaultInjector Injector(Plan, Seed);
    SnapshotFaultHooks Hooks;
    Hooks.CorruptCandidate = [&Injector](std::string &Bytes) {
      Injector.corruptCandidate(10.0, Bytes);
    };
    const std::string Path =
        tempPath("medley_snapshot_corrupt_" + std::to_string(Seed) + ".txt");
    support::Error Err;
    support::FaultStats Stats;
    const bool Saved =
        saveSnapshotToFile(Path, snapshotOf(*Registry), &Err, &Hooks, &Stats);
    EXPECT_EQ(Stats.CandidateCorruptions, 1u);
    EXPECT_EQ(Injector.stats().CandidateCorruptions, 1u);
    if (!Saved)
      continue; // Truncated below a writable payload: nothing published.
    EXPECT_FALSE(loadSnapshotFromFile(Path, &Err).has_value())
        << "seed " << Seed << " produced a loadable corrupt snapshot";
  }
}

TEST(LifecycleChaosTest, ChecksumMismatchIsCountedAndTyped) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(expertSet({constExpert("E", 8.0, 1.0)}),
                    identityScaler(), nullptr);
  const std::string Path = tempPath("medley_snapshot_bitflip.txt");
  support::Error Err;
  ASSERT_TRUE(saveSnapshotToFile(Path, snapshotOf(*Registry), &Err));

  // Flip one payload byte far from the header.
  {
    std::FILE *F = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fseek(F, -8, SEEK_END), 0);
    int C = std::fgetc(F);
    ASSERT_NE(C, EOF);
    ASSERT_EQ(std::fseek(F, -1, SEEK_CUR), 0);
    std::fputc(C == '0' ? '1' : '0', F);
    std::fclose(F);
  }

  support::FaultStats Stats;
  EXPECT_FALSE(
      loadSnapshotFromFile(Path, &Err, 0, nullptr, &Stats).has_value());
  EXPECT_EQ(Err.code(), support::ErrorCode::ChecksumMismatch);
  EXPECT_EQ(Stats.ChecksumRejects, 1u);
}

//===----------------------------------------------------------------------===//
// Background retraining
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic trace alternating between an uncontended regime (workload
/// below cores, small env) and a contended one (workload above cores,
/// large env).
trace::TickTrace syntheticTrace(size_t Rows) {
  trace::TickTrace Trace;
  Rng R(13);
  for (size_t I = 0; I < Rows; ++I) {
    trace::TracePoint P;
    P.Time = static_cast<double>(I);
    const bool Contended = (I / 32) % 2 == 1;
    P.AvailableCores = 16;
    P.WorkloadThreads = Contended ? 24 + I % 4 : 4 + I % 4;
    P.TargetThreads = Contended ? 6 : 14;
    P.EnvNorm = (Contended ? 3.0 : 0.8) + R.uniform(-0.1, 0.1);
    Trace.append(P);
  }
  return Trace;
}

} // namespace

TEST(LifecycleChaosTest, RetrainingIsDeterministicAndRegimeRouted) {
  auto Registry = std::make_shared<ExpertRegistry>();
  Registry->publish(
      expertSet({constExpert("U", 14.0, 0.8, "uncontended synthetic"),
                 constExpert("K", 6.0, 3.0, "contended synthetic")}),
      identityScaler(), nullptr);

  trace::TickTrace Trace = syntheticTrace(512);
  TrainerOptions Options;
  Options.Window.Window = 256;
  ExpertTrainer Trainer(Options);

  auto First = Trainer.retrainCounted(Trace, *Registry->current());
  auto Second = Trainer.retrainCounted(Trace, *Registry->current());
  ASSERT_TRUE(First.has_value());
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(First->Refitted, 2u);
  EXPECT_EQ(First->CarriedOver, 0u);

  // Determinism: same (window, base, options) => bit-identical models.
  ASSERT_EQ(First->Experts.size(), Second->Experts.size());
  for (size_t K = 0; K < First->Experts.size(); ++K) {
    ASSERT_NE(First->Experts[K].envModel(), nullptr);
    EXPECT_EQ(First->Experts[K].envModel()->weights(),
              Second->Experts[K].envModel()->weights());
    EXPECT_EQ(First->Experts[K].threadModel()->weights(),
              Second->Experts[K].threadModel()->weights());
    // Shared-scaler discipline: refits reuse the base corpus scaler, so
    // the mixture's batched scoring path stays valid for candidates.
    EXPECT_EQ(First->Experts[K].threadModel()->scaler().means(),
              Registry->current()->Scaler.means());
  }

  // A window too thin to refit anything yields no candidate at all.
  EXPECT_FALSE(
      Trainer.retrain(syntheticTrace(8), *Registry->current()).has_value());
}

//===----------------------------------------------------------------------===//
// Fault-plan wiring
//===----------------------------------------------------------------------===//

TEST(LifecycleChaosTest, ChaosScheduleCoversLifecycleFaults) {
  sim::FaultPlan Plan = sim::FaultPlan::chaosSchedule(100.0);
  EXPECT_FALSE(Plan.TornPublication.empty());
  EXPECT_FALSE(Plan.StaleSnapshotRead.empty());
  EXPECT_FALSE(Plan.CandidateCorruption.empty());

  sim::FaultInjector Injector(Plan, 3);
  // Inside the first torn window (5..8 of each 25 s cycle) the injector
  // tears; outside it does not.
  EXPECT_TRUE(Injector.tearPublication(6.0));
  EXPECT_FALSE(Injector.tearPublication(20.0));
  EXPECT_TRUE(Injector.staleSnapshotRead(15.0));
  EXPECT_FALSE(Injector.staleSnapshotRead(2.0));
  std::string Bytes = "medley-snapshot payload payload payload";
  const std::string Before = Bytes;
  EXPECT_FALSE(Injector.corruptCandidate(2.0, Bytes));
  EXPECT_EQ(Bytes, Before);
  EXPECT_TRUE(Injector.corruptCandidate(22.0, Bytes));
  EXPECT_NE(Bytes, Before);
  EXPECT_EQ(Injector.stats().TornPublications, 1u);
  EXPECT_EQ(Injector.stats().StaleSnapshotReads, 1u);
  EXPECT_EQ(Injector.stats().CandidateCorruptions, 1u);

  // reset() rewinds the lifecycle fault stream with everything else.
  Injector.reset();
  EXPECT_EQ(Injector.stats().TornPublications, 0u);
  std::string Bytes2 = Before;
  EXPECT_TRUE(Injector.corruptCandidate(22.0, Bytes2));
  EXPECT_EQ(Bytes2, Bytes); // Same seed, same damage.
}
