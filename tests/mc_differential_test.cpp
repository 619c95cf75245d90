// The MC-vs-simulator differential battery (the PR's central soundness
// check): for every protocol variant — pristine plus all six mutants — the
// parallel model checker's verdict at (2 procs, 1 block) must agree with
// the Lamport-clock checkers' verdict on concrete executions of the same
// variant.  Disagreement in either direction is a bug:
//
//   MC flags, checkers never do  -> the MC's abstraction is unsound (false
//                                   alarm) or the checkers have a hole;
//   checkers flag, MC does not   -> the MC's projection abstracted the bug
//                                   away (the state graph is incomplete).
//
// The checker-side evidence combines a seeded simulator sweep at the same
// small shape with replay of the MC's own counterexample; the MC side runs
// both unreduced and under symmetry+POR, which must agree with each other.
#include <gtest/gtest.h>

#include <string>

#include "common/expect.hpp"
#include "mc/model_checker.hpp"
#include "mc/replay.hpp"
#include "tardis/tardis_system.hpp"
#include "testutil.hpp"

namespace lcdc {
namespace {

struct McVerdict {
  bool flagged = false;     ///< violation or deadlock found
  bool deadlock = false;
  std::uint64_t states = 0;
  mc::McResult result;
};

/// Exhaustive verdict at (2 procs, 1 block) with value tracking — the
/// shape every mutant is detectable at (ForwardStaleValue only via values).
McVerdict mcVerdict(Mutant m, bool reduced) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = m;
  cfg.modelData = true;
  cfg.symmetry = reduced;
  cfg.por = reduced;
  cfg.jobs = reduced ? 1 : 2;  // exercise the parallel path on the big run
  McVerdict v;
  v.result = mc::explore(cfg);
  EXPECT_FALSE(v.result.hitStateLimit) << "state budget too small for (2,1)";
  v.flagged = !v.result.ok();
  v.deadlock = v.result.deadlockFound;
  v.states = v.result.statesExplored;
  return v;
}

/// Lamport-checker verdict from seeded contended runs at the MC's shape.
bool simulatorFlags(Mutant m, std::uint64_t maxSeeds = 24) {
  for (std::uint64_t seed = 1; seed <= maxSeeds; ++seed) {
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.numDirectories = 1;
    cfg.numBlocks = 1;
    cfg.cacheCapacity = 0;
    cfg.seed = seed;
    cfg.proto.mutant = m;

    auto w = test::workloadFor(cfg, 400, seed * 31 + 7);
    w.storePercent = 50;
    w.evictPercent = 10;
    const auto programs = workload::hotBlock(w, 100, 1);

    trace::Trace trace;
    sim::System system(cfg, trace);
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      system.setProgram(p, programs[p]);
    }
    try {
      const sim::RunResult result = system.run(5'000'000);
      if (result.outcome != sim::RunResult::Outcome::Quiescent) return true;
      const auto report =
          verify::checkAll(trace, verify::VerifyConfig{cfg.numProcessors});
      if (!report.ok()) return true;
    } catch (const ProtocolError&) {
      return true;
    }
  }
  return false;
}

/// Do the streaming checkers flag the MC's own counterexample?
bool replayFlags(Mutant m, const McVerdict& v) {
  if (!v.result.counterexample) return false;
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = m;
  cfg.modelData = true;
  const mc::ReplayResult rep =
      mc::replayCounterexample(cfg, v.result.counterexample->schedule);
  EXPECT_TRUE(rep.divergence.empty())
      << "mutant " << toString(m) << ": " << rep.divergence;
  return rep.flagged();
}

void differential(Mutant m) {
  const McVerdict full = mcVerdict(m, /*reduced=*/false);
  const McVerdict red = mcVerdict(m, /*reduced=*/true);

  // Reductions are sound and complete for these properties: same verdict.
  EXPECT_EQ(full.flagged, red.flagged) << "mutant " << toString(m);
  EXPECT_EQ(full.deadlock, red.deadlock) << "mutant " << toString(m);
  EXPECT_LE(red.states, full.states) << "mutant " << toString(m);

  // Checker-side evidence: a seeded sweep, or the replayed counterexample.
  const bool checkers =
      simulatorFlags(m) || replayFlags(m, full) || replayFlags(m, red);

  EXPECT_EQ(full.flagged, checkers)
      << "mutant " << toString(m) << ": MC "
      << (full.flagged ? "flags" : "is clean") << " but Lamport checkers "
      << (checkers ? "flag" : "are clean");
}

TEST(Differential, Pristine) {
  const McVerdict full = mcVerdict(Mutant::None, false);
  const McVerdict red = mcVerdict(Mutant::None, true);
  EXPECT_FALSE(full.flagged);
  EXPECT_FALSE(red.flagged);
  EXPECT_FALSE(simulatorFlags(Mutant::None))
      << "false positive on the faithful protocol";
}

TEST(Differential, SkipInvAckWait) { differential(Mutant::SkipInvAckWait); }

TEST(Differential, StaleDataFromHome) {
  differential(Mutant::StaleDataFromHome);
}

TEST(Differential, IgnoreInvalidation) {
  differential(Mutant::IgnoreInvalidation);
}

TEST(Differential, ForwardStaleValue) {
  differential(Mutant::ForwardStaleValue);
}

TEST(Differential, NoBusyNack) { differential(Mutant::NoBusyNack); }

TEST(Differential, NoDeadlockDetection) {
  differential(Mutant::NoDeadlockDetection);
}

TEST(Differential, EveryMutantIsRefutedExhaustively) {
  // Not just consistency — the battery must have teeth: all six bugs are
  // found by the MC at the smallest interesting shape.
  for (const Mutant m :
       {Mutant::SkipInvAckWait, Mutant::StaleDataFromHome,
        Mutant::IgnoreInvalidation, Mutant::ForwardStaleValue,
        Mutant::NoBusyNack, Mutant::NoDeadlockDetection}) {
    const McVerdict v = mcVerdict(m, /*reduced=*/true);
    EXPECT_TRUE(v.flagged) << "mutant " << toString(m) << " survived "
                           << v.states << " states";
  }
}

// -- Tardis backend -----------------------------------------------------------
//
// The same MC<->checkers agreement, against the second model-checkable
// backend.  The Tardis space at (2,1) outgrows any fixed bound (even
// rebased, timestamps keep minting fresh states), so the pristine side is
// bounded-exhaustive rather than exhaustive: every state within the cap is
// invariant-clean.  The seeded mutant must be refuted *inside* the bound,
// and the concrete simulator + unchanged Lamport checkers must agree.

mc::McResult tardisMc(Mutant m) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = m;
  cfg.maxStates = 150'000;
  return mc::explore(cfg);
}

/// Lamport-checker verdict from seeded Tardis runs at a small shape.
bool tardisSimulatorFlags(Mutant m, std::uint64_t maxSeeds = 24) {
  for (std::uint64_t seed = 1; seed <= maxSeeds; ++seed) {
    SystemConfig cfg;
    cfg.protocol = ProtocolKind::Tardis;
    cfg.numProcessors = 2;
    cfg.numDirectories = 1;
    cfg.numBlocks = 1;
    cfg.cacheCapacity = 0;
    cfg.seed = seed;
    cfg.proto.mutant = m;
    cfg.proto.leaseLength = 8;

    auto w = test::workloadFor(cfg, 400, seed * 31 + 7);
    w.storePercent = 50;
    const auto programs = workload::hotBlock(w, 100, 1);

    trace::Trace trace;
    tardis::TardisSystem system(cfg, trace);
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      system.setProgram(p, programs[p]);
    }
    try {
      if (!system.run(5'000'000).ok()) return true;
      const auto report =
          verify::checkAll(trace, proto::verifyConfigFor(cfg));
      if (!report.ok()) return true;
    } catch (const ProtocolError&) {
      return true;
    }
  }
  return false;
}

TEST(TardisDifferential, Pristine) {
  const mc::McResult r = tardisMc(Mutant::None);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "deadlock"
                                               : r.violations.front());
  EXPECT_FALSE(tardisSimulatorFlags(Mutant::None))
      << "false positive on the faithful Tardis protocol";
}

TEST(TardisDifferential, DropLeaseBump) {
  const mc::McResult r = tardisMc(Mutant::DropLeaseBump);
  EXPECT_FALSE(r.ok()) << "MC missed the dropped lease bump";
  ASSERT_FALSE(r.violations.empty());
  // Caught by name: the violated invariant is the lease-frontier clearance
  // (exclusive grant must be timestamped above every outstanding lease).
  EXPECT_NE(r.violations.front().find("lease frontier"), std::string::npos)
      << r.violations.front();
  EXPECT_TRUE(tardisSimulatorFlags(Mutant::DropLeaseBump))
      << "MC flags drop-lease-bump but the Lamport checkers never do";
}

}  // namespace
}  // namespace lcdc
