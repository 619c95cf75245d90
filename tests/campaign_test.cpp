// The campaign subsystem's contract tests:
//
//   * the work-stealing pool runs every task (including tasks submitted
//     from inside tasks) and survives reuse across waves;
//   * sub-run derivation is a pure function of (master seed, index);
//   * the mixed campaign covers all 14 transaction cases of Section 2.3
//     with zero false positives on the faithful protocol;
//   * the aggregated report is byte-identical for any --jobs value (the
//     determinism guarantee CI leans on);
//   * the delta-debugging minimizer shrinks a failing schedule while
//     preserving the exact failure signature, and the archived minimal
//     trace re-verifies offline with the same checker;
//   * it finds bugs: every seeded mutant of the three backends, the Tardis
//     ownership races and the directory write-back-race bugs included, is
//     caught within a pinned number of cases, naming the expected claim or
//     outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <ostream>
#include <string>

#include "backend/backend.hpp"
#include "campaign/campaign.hpp"
#include "campaign/minimize.hpp"
#include "common/thread_pool.hpp"
#include "temp_dir.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "verify/checkers.hpp"

namespace lcdc {
namespace {

TEST(ThreadPool, RunsEveryTaskAcrossWaves) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait();
  }
  EXPECT_EQ(counter.load(), 300);
  EXPECT_EQ(pool.stats().tasksExecuted, 300u);
}

TEST(ThreadPool, TasksMaySubmitSubtasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &counter] {
      for (int j = 0; j < 5; ++j) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.wait();  // must cover the nested submissions too
  EXPECT_EQ(counter.load(), 40);
}

TEST(Campaign, DeriveCaseIsPureFunctionOfIndex) {
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 99;
  for (const std::uint64_t i : {0ULL, 1ULL, 17ULL}) {
    const campaign::CaseSpec a = campaign::deriveCase(cfg, i);
    const campaign::CaseSpec b = campaign::deriveCase(cfg, i);
    EXPECT_EQ(a.description, b.description);
    ASSERT_EQ(a.programs.size(), b.programs.size());
    EXPECT_EQ(campaign::totalSteps(a), campaign::totalSteps(b));
    EXPECT_EQ(a.sys.seed, b.sys.seed);
  }
  // Distinct indices must not collide (distinct derived sim seeds).
  const campaign::CaseSpec a = campaign::deriveCase(cfg, 2);
  const campaign::CaseSpec b = campaign::deriveCase(cfg, 3);
  EXPECT_NE(a.sys.seed, b.sys.seed);
}

TEST(Campaign, MixedCampaignCoversAllTransactionCasesCleanly) {
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 1;
  cfg.seeds = 24;
  cfg.jobs = 4;
  cfg.minimize = false;
  const campaign::CampaignResult r = campaign::run(cfg);
  EXPECT_EQ(r.seedsRun, 24u);
  EXPECT_TRUE(r.failures.empty())
      << "false positive: " << r.failures.front().signature << " — "
      << r.failures.front().detail;
  EXPECT_TRUE(r.coverage.transactionCasesComplete()) << r.coverage.report();
  // The extension paths must be exercised too.
  EXPECT_GT(r.coverage.count(campaign::Point::PutShared), 0u);
  EXPECT_GT(r.coverage.count(campaign::Point::DeadlockResolved), 0u);
  EXPECT_GT(r.coverage.count(campaign::Point::ForwardedLoad), 0u);
}

TEST(Campaign, ReportIsByteIdenticalAcrossJobCounts) {
  // Clean campaign: coverage tables and totals must fold identically.
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 42;
  cfg.seeds = 16;
  cfg.minimize = false;
  cfg.jobs = 1;
  const std::string r1 = campaign::run(cfg).report();
  cfg.jobs = 4;
  const std::string r4 = campaign::run(cfg).report();
  EXPECT_EQ(r1, r4);

  // Failing campaign: the failure *set* (indices, signatures, details)
  // must also be order-independent.
  campaign::CampaignConfig bad;
  bad.masterSeed = 7;
  bad.seeds = 5;
  bad.mutant = Mutant::NoBusyNack;
  bad.minimize = false;
  bad.jobs = 1;
  const campaign::CampaignResult b1 = campaign::run(bad);
  bad.jobs = 3;
  const campaign::CampaignResult b3 = campaign::run(bad);
  ASSERT_FALSE(b1.failures.empty());
  ASSERT_EQ(b1.failures.size(), b3.failures.size());
  for (std::size_t i = 0; i < b1.failures.size(); ++i) {
    EXPECT_EQ(b1.failures[i].index, b3.failures[i].index);
    EXPECT_EQ(b1.failures[i].signature, b3.failures[i].signature);
    EXPECT_EQ(b1.failures[i].detail, b3.failures[i].detail);
  }
  EXPECT_EQ(b1.report(), b3.report());
}

TEST(Campaign, UntilCoverageStopsAtAWaveBoundaryDeterministically) {
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 3;
  cfg.seeds = 512;
  cfg.untilCoverage = true;
  cfg.minimize = false;
  cfg.jobs = 2;
  const campaign::CampaignResult a = campaign::run(cfg);
  cfg.jobs = 5;
  const campaign::CampaignResult b = campaign::run(cfg);
  EXPECT_TRUE(a.coverage.transactionCasesComplete());
  EXPECT_LT(a.seedsRun, 512u) << "coverage should complete well before 512";
  EXPECT_EQ(a.seedsRun, b.seedsRun);
  EXPECT_EQ(a.report(), b.report());
}

TEST(Campaign, UntilCoverageUsesTheBackendsReachableTarget) {
  // A bus campaign can genuinely complete: 4 reachable cases, not 15.
  campaign::CampaignConfig cfg;
  cfg.protocol = ProtocolKind::Bus;
  cfg.masterSeed = 77;
  cfg.seeds = 512;
  cfg.untilCoverage = true;
  cfg.minimize = false;
  const campaign::CampaignResult r = campaign::run(cfg);
  EXPECT_TRUE(r.coverage.transactionCasesComplete(ProtocolKind::Bus));
  EXPECT_LT(r.seedsRun, 512u)
      << "bus coverage target should stop the campaign early";
  EXPECT_FALSE(r.coverage.transactionCasesComplete(ProtocolKind::Directory));
}

/// First campaign sub-run that fails with a checker signature.
campaign::CaseSpec findCheckerFailure(const campaign::CampaignConfig& cfg,
                                      std::string* signature) {
  for (std::uint64_t i = 0; i < cfg.seeds; ++i) {
    campaign::CaseSpec spec = campaign::deriveCase(cfg, i);
    const campaign::CaseOutcome o =
        campaign::runCase(spec, cfg.maxEventsPerRun);
    if (o.signature.rfind("checker:", 0) == 0) {
      *signature = o.signature;
      return spec;
    }
  }
  ADD_FAILURE() << "no checker-detected failure in " << cfg.seeds << " seeds";
  return campaign::deriveCase(cfg, 0);
}

TEST(Minimizer, ShrinksWhilePreservingTheFailureSignature) {
  campaign::CampaignConfig cfg;
  cfg.mutant = Mutant::ForwardStaleValue;
  cfg.seeds = 16;
  std::string signature;
  const campaign::CaseSpec failing = findCheckerFailure(cfg, &signature);
  ASSERT_FALSE(signature.empty());

  campaign::MinimizeOptions opts;
  opts.maxAttempts = 150;
  const campaign::MinimizeResult mr =
      campaign::shrink(failing, signature, opts);
  EXPECT_EQ(mr.signature, signature);
  EXPECT_LE(mr.stepsAfter, mr.stepsBefore);
  EXPECT_TRUE(mr.reduced()) << "nothing shrank within the probe budget";
  // The guarantee that matters: the minimized case still trips the same
  // checker when re-executed from scratch.
  const campaign::CaseOutcome again =
      campaign::runCase(mr.spec, cfg.maxEventsPerRun);
  EXPECT_EQ(again.signature, signature);
}

TEST(Minimizer, MinimizedTraceReVerifiesOfflineWithTheSameChecker) {
  campaign::CampaignConfig cfg;
  cfg.mutant = Mutant::ForwardStaleValue;
  cfg.seeds = 16;
  std::string signature;
  const campaign::CaseSpec failing = findCheckerFailure(cfg, &signature);
  ASSERT_FALSE(signature.empty());

  campaign::MinimizeOptions opts;
  opts.maxAttempts = 120;
  const campaign::MinimizeResult mr =
      campaign::shrink(failing, signature, opts);

  trace::Trace minTrace;
  (void)campaign::runCase(mr.spec, opts.maxEventsPerRun, &minTrace);
  const test::TempDir dir("campaign_min");
  const std::string path = dir.path + "/min.trace";
  trace::saveFileWithMeta(
      minTrace, path,
      {"campaign test reproducer", "signature: " + signature});
  const trace::Trace loaded = trace::loadFile(path);

  const verify::CheckReport report =
      verify::checkAll(loaded, proto::verifyConfigFor(mr.spec.sys));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ("checker:" + report.primaryCheck(), signature);
}

TEST(Campaign, ArchivesFailingAndMinimizedTraces) {
  const test::TempDir dir("campaign_out");
  const std::string outDir = dir.path + "/out";

  campaign::CampaignConfig cfg;
  cfg.mutant = Mutant::ForwardStaleValue;
  cfg.seeds = 6;
  cfg.jobs = 2;
  cfg.minimize = true;
  cfg.maxMinimized = 1;
  cfg.minimizeAttempts = 100;
  cfg.outDir = outDir;
  const campaign::CampaignResult r = campaign::run(cfg);
  ASSERT_FALSE(r.failures.empty());
  const campaign::Failure& f = r.failures.front();
  EXPECT_FALSE(f.tracePath.empty());
  EXPECT_TRUE(std::filesystem::exists(f.tracePath));
  if (!f.minimizedPath.empty()) {
    EXPECT_TRUE(std::filesystem::exists(f.minimizedPath));
    // Archived minimized traces must parse back (comments skipped).
    const trace::Trace t = trace::loadFile(f.minimizedPath);
    EXPECT_FALSE(t.operations().empty() && t.serializations().empty());
  }
}

// -- time-to-detection battery -----------------------------------------------

/// Every seeded mutant each backend implements.  The first failing case of
/// master seed 1 must come within `budget` cases (a few times the index it
/// has on the PCT schedule; EXPERIMENTS.md S16) with signature `expected`.
struct MutantCase {
  ProtocolKind protocol;
  Mutant mutant;
  std::uint64_t budget;
  const char* expected;
};

const MutantCase kBattery[] = {
    {ProtocolKind::Directory, Mutant::SkipInvAckWait, 8, "invariant"},
    {ProtocolKind::Directory, Mutant::StaleDataFromHome, 8, "invariant"},
    {ProtocolKind::Directory, Mutant::IgnoreInvalidation, 8, "invariant"},
    {ProtocolKind::Directory, Mutant::ForwardStaleValue, 8,
     "checker:sequential-consistency"},
    {ProtocolKind::Directory, Mutant::NoBusyNack, 8, "invariant"},
    {ProtocolKind::Directory, Mutant::NoDeadlockDetection, 8,
     "outcome:livelock"},
    {ProtocolKind::Directory, Mutant::SkipWbClockAbsorb, 16, "checker:claim3b"},
    {ProtocolKind::Directory, Mutant::StaleWbForward, 8,
     "checker:sequential-consistency"},
    {ProtocolKind::Bus, Mutant::IgnoreInvalidation, 8, "checker:lemma2"},
    {ProtocolKind::Tardis, Mutant::DropLeaseBump, 8, "checker:claim3a"},
    {ProtocolKind::Tardis, Mutant::FlushStaleEpoch, 32, "invariant"},
    {ProtocolKind::Tardis, Mutant::CompleteStaleEpoch, 32,
     "checker:lemma3-values"},
    {ProtocolKind::Tardis, Mutant::DisplaceParkedFlush, 256,
     "outcome:livelock"},
};

class CampaignDetection : public ::testing::TestWithParam<MutantCase> {};

TEST_P(CampaignDetection, CatchesTheMutantWithinBudget) {
  const MutantCase& mc = GetParam();
  campaign::CampaignConfig cfg;
  cfg.protocol = mc.protocol;
  cfg.mutant = mc.mutant;
  // Cases in index order, as the campaign numbers them, stopping at the
  // first failure.
  campaign::CaseSpec spec;
  for (std::uint64_t i = 0; i < mc.budget; ++i) {
    campaign::deriveCaseInto(cfg, i, spec);
    const campaign::CaseOutcome o =
        campaign::runCase(spec, cfg.maxEventsPerRun);
    if (o.clean()) continue;
    EXPECT_EQ(o.signature, mc.expected)
        << "case " << i << ": " << o.detail;
    return;
  }
  ADD_FAILURE() << "campaign missed mutant " << toString(mc.mutant) << " in "
                << mc.budget << " cases";
}

std::string batteryLabel(const MutantCase& mc) {
  std::string name =
      std::string(toString(mc.protocol)) + "_" + toString(mc.mutant);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::string batteryName(const ::testing::TestParamInfo<MutantCase>& info) {
  return batteryLabel(info.param);
}

// Prints the label instead of the raw bytes, which include the struct's
// padding and so would leak into the discovered test names.
void PrintTo(const MutantCase& mc, std::ostream* os) {
  *os << batteryLabel(mc);
}

INSTANTIATE_TEST_SUITE_P(AllMutants, CampaignDetection,
                         ::testing::ValuesIn(kBattery), batteryName);

}  // namespace
}  // namespace lcdc
