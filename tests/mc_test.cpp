// Model-checker tests: the faithful protocol passes exhaustive exploration
// of small configurations; mutants are refuted; and the state count grows
// explosively with the configuration — the paper's core scalability
// argument against this class of techniques.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mc/model_checker.hpp"

namespace lcdc {
namespace {

TEST(ModelChecker, TwoProcsOneBlockIsSafe) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "deadlock"
                                               : r.violations.front());
  EXPECT_FALSE(r.hitStateLimit);
  EXPECT_GT(r.statesExplored, 100u);
}

TEST(ModelChecker, TwoProcsOneBlockNoEvictions) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.allowEvictions = false;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "deadlock"
                                               : r.violations.front());
  EXPECT_FALSE(r.hitStateLimit);
}

TEST(ModelChecker, ThreeProcsOneBlockIsSafe) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 1;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "deadlock"
                                               : r.violations.front());
  EXPECT_FALSE(r.hitStateLimit);
}

TEST(ModelChecker, WithoutPutSharedIsSafe) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.putSharedEnabled = false;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "deadlock"
                                               : r.violations.front());
}

TEST(ModelChecker, ExplorationIsDeterministic) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  const mc::McResult a = mc::explore(cfg);
  const mc::McResult b = mc::explore(cfg);
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.frontierPeak, b.frontierPeak);
}

TEST(ModelChecker, EvictionsEnlargeTheSpace) {
  mc::McConfig off;
  off.numProcessors = 2;
  off.numBlocks = 1;
  off.allowEvictions = false;
  mc::McConfig on = off;
  on.allowEvictions = true;
  const mc::McResult a = mc::explore(off);
  const mc::McResult b = mc::explore(on);
  EXPECT_GT(b.statesExplored, a.statesExplored)
      << "the Section 2.5 actions must add reachable states";
}

TEST(ModelChecker, StateCountExplodesWithBlocks) {
  mc::McConfig one;
  one.numProcessors = 2;
  one.numBlocks = 1;
  const mc::McResult r1 = mc::explore(one);

  mc::McConfig two = one;
  two.numBlocks = 2;
  two.maxStates = 100'000;
  const mc::McResult r2 = mc::explore(two);

  // Adding a block squares the space: blocks are independent, so the 2x2
  // space is the product of two 2x1 copies (BlockProduct below).
  EXPECT_TRUE(r2.hitStateLimit || r2.statesExplored > 10 * r1.statesExplored)
      << "1 block: " << r1.statesExplored
      << ", 2 blocks: " << r2.statesExplored;
}

TEST(ModelChecker, RefutesSkipInvAckWait) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;  // need two sharers + an upgrader for the race
  cfg.numBlocks = 1;
  cfg.proto.mutant = Mutant::SkipInvAckWait;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_FALSE(r.violations.empty())
      << "mutant survived " << r.statesExplored << " states";
}

TEST(ModelChecker, RefutesNoDeadlockDetection) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = Mutant::NoDeadlockDetection;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.deadlockFound)
      << "Figure 2 deadlock not reached in " << r.statesExplored << " states";
}

TEST(ModelChecker, RefutesNoBusyNack) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 1;
  cfg.proto.mutant = Mutant::NoBusyNack;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_FALSE(r.violations.empty() && r.ok())
      << "mutant survived " << r.statesExplored << " states";
  EXPECT_FALSE(r.violations.empty());
}

// -- block product -----------------------------------------------------------
//
// No handler or check couples two blocks, and the clocks and transaction ids
// that span blocks are canonicalized away, so a Px2 space is the
// asynchronous product of two copies of the Px1 space: a state is a pair of
// block states, and a transition steps one block or the other.  The Px2
// figures below are derived from Px1 runs, so the tests fail the day
// something couples blocks.

/// BFS layers of a one-block space: the states first reached at each depth
/// and the transitions leaving them.
struct Layers {
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> transitions;
};

/// The first `depth` layers, from runs bounded at successive depths.
Layers oneBlockLayers(mc::McConfig cfg, std::uint64_t depth) {
  cfg.numBlocks = 1;
  Layers layers;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  for (std::uint64_t d = 1; d <= depth; ++d) {
    cfg.maxDepth = d;
    const mc::McResult r = mc::explore(cfg);
    layers.states.push_back(r.statesExplored - states);
    layers.transitions.push_back(r.transitions - transitions);
    states = r.statesExplored;
    transitions = r.transitions;
  }
  return layers;
}

/// What the product explores through as many waves as `one` has layers:
/// layer d pairs the block layers i and d - i, and a pair's transitions are
/// either block's.
mc::McResult twoBlockProduct(const Layers& one) {
  mc::McResult product;
  for (std::size_t d = 0; d < one.states.size(); ++d) {
    std::uint64_t layer = 0;
    for (std::size_t i = 0; i <= d; ++i) {
      layer += one.states[i] * one.states[d - i];
      product.transitions += 2 * one.transitions[i] * one.states[d - i];
    }
    product.statesExplored += layer;
    product.frontierPeak = std::max(product.frontierPeak, layer);
  }
  product.wavesCompleted = one.states.size();
  return product;
}

void expectProduct(const mc::McResult& two, const mc::McResult& law) {
  EXPECT_EQ(two.statesExplored, law.statesExplored);
  EXPECT_EQ(two.transitions, law.transitions);
  EXPECT_EQ(two.frontierPeak, law.frontierPeak);
  EXPECT_EQ(two.wavesCompleted, law.wavesCompleted);
  EXPECT_TRUE(two.ok());
}

TEST(BlockProduct, TwoBlocksWithoutEvictionsSquareOneBlock) {
  // 2x1: 315 states, 678 transitions, 15 waves.  2x2: 315^2 = 99,225
  // states, 2 * 315 * 678 = 427,140 transitions, 2 * (15 - 1) + 1 = 29 waves.
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.allowEvictions = false;
  cfg.jobs = 4;
  cfg.numBlocks = 1;
  const mc::McResult one = mc::explore(cfg);
  ASSERT_FALSE(one.hitStateLimit);
  cfg.numBlocks = 2;
  const mc::McResult two = mc::explore(cfg);
  ASSERT_FALSE(two.hitStateLimit);
  EXPECT_EQ(two.statesExplored, one.statesExplored * one.statesExplored);
  EXPECT_EQ(two.transitions, 2 * one.statesExplored * one.transitions);
  EXPECT_EQ(two.wavesCompleted, 2 * (one.wavesCompleted - 1) + 1);
  EXPECT_TRUE(two.ok());
}

TEST(BlockProduct, BoundedTwoBlockRunsAreTheDepthConvolution) {
  // 3x2 at depth 6 explores 3,941 states with peak frontier 2,628, from the
  // 3x1 layers 1, 6, 18, 38, 78, 162.
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.jobs = 4;
  cfg.maxDepth = 6;
  cfg.numBlocks = 2;
  expectProduct(mc::explore(cfg), twoBlockProduct(oneBlockLayers(cfg, 6)));

  // With values even 2x2 without evictions holds 1,830^2 states, over the
  // default state cap, so this case stays bounded too.
  cfg.numProcessors = 2;
  cfg.modelData = true;
  cfg.maxDepth = 8;
  expectProduct(mc::explore(cfg), twoBlockProduct(oneBlockLayers(cfg, 8)));
}

// -- parallel exploration ----------------------------------------------------

TEST(ParallelMc, ResultsAreIndependentOfJobCount) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.jobs = 1;
  const mc::McResult base = mc::explore(cfg);
  for (const unsigned jobs : {2u, 8u}) {
    cfg.jobs = jobs;
    const mc::McResult r = mc::explore(cfg);
    EXPECT_EQ(r.statesExplored, base.statesExplored) << "jobs=" << jobs;
    EXPECT_EQ(r.transitions, base.transitions) << "jobs=" << jobs;
    EXPECT_EQ(r.frontierPeak, base.frontierPeak) << "jobs=" << jobs;
    EXPECT_EQ(r.wavesCompleted, base.wavesCompleted) << "jobs=" << jobs;
    EXPECT_EQ(r.ok(), base.ok()) << "jobs=" << jobs;
    EXPECT_EQ(r.deadlockFound, base.deadlockFound) << "jobs=" << jobs;
  }
}

TEST(ParallelMc, MutantVerdictIsIndependentOfJobCount) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = Mutant::SkipInvAckWait;
  cfg.jobs = 1;
  const mc::McResult base = mc::explore(cfg);
  ASSERT_FALSE(base.ok());
  for (const unsigned jobs : {2u, 8u}) {
    cfg.jobs = jobs;
    const mc::McResult r = mc::explore(cfg);
    EXPECT_EQ(r.statesExplored, base.statesExplored) << "jobs=" << jobs;
    EXPECT_FALSE(r.ok()) << "jobs=" << jobs;
  }
}

TEST(ParallelMc, StateCapDrainsCleanlyAndDeterministically) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.maxStates = 500;  // well below the ~2k reachable states
  cfg.jobs = 1;
  const mc::McResult base = mc::explore(cfg);
  EXPECT_TRUE(base.hitStateLimit);
  // The cap is exact: expansion stops at the budget, never beyond it.
  EXPECT_EQ(base.statesExplored, 500u);
  for (const unsigned jobs : {2u, 8u}) {
    cfg.jobs = jobs;
    const mc::McResult r = mc::explore(cfg);
    EXPECT_TRUE(r.hitStateLimit) << "jobs=" << jobs;
    // The capped wave expands the states with the smallest canonical
    // fingerprints, not a prefix of the race-ordered frontier, so every
    // count and verdict is jobs-invariant.
    EXPECT_EQ(r.statesExplored, base.statesExplored) << "jobs=" << jobs;
    EXPECT_EQ(r.transitions, base.transitions) << "jobs=" << jobs;
    EXPECT_EQ(r.violations, base.violations) << "jobs=" << jobs;
    EXPECT_EQ(r.deadlockFound, base.deadlockFound) << "jobs=" << jobs;
  }
}

// A parent edge packs an action into 64 bits; every message type must
// come back out, including the five numbered 16 and up.
TEST(ParallelMc, PackedActionsKeepEveryMessageType) {
  for (std::size_t t = 0; t < proto::kNumMsgTypes; ++t) {
    mc::Action a;
    a.kind = mc::Action::Kind::Deliver;
    a.flightIndex = 7;
    a.dst = 3;
    a.msgType = static_cast<proto::MsgType>(t);
    a.block = 5;
    const mc::Action b = mc::unpackAction(mc::packAction(a));
    EXPECT_EQ(b.msgType, a.msgType) << proto::toString(a.msgType);
    EXPECT_EQ(mc::toString(b), mc::toString(a));
    EXPECT_EQ(b.proc, kNoNode);
  }
}

// -- reductions --------------------------------------------------------------

TEST(Reduction, SymmetryShrinksStatesAndPreservesSafety) {
  mc::McConfig plain;
  plain.numProcessors = 2;
  plain.numBlocks = 1;
  mc::McConfig sym = plain;
  sym.symmetry = true;
  const mc::McResult a = mc::explore(plain);
  const mc::McResult b = mc::explore(sym);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  // Two interchangeable processors: the quotient is close to half.
  EXPECT_LT(b.statesExplored, a.statesExplored * 2 / 3)
      << "plain " << a.statesExplored << " vs sym " << b.statesExplored;
}

TEST(Reduction, SymmetryPreservesMutantVerdicts) {
  for (const Mutant m : {Mutant::SkipInvAckWait, Mutant::StaleDataFromHome,
                         Mutant::IgnoreInvalidation, Mutant::NoBusyNack}) {
    mc::McConfig plain;
    plain.numProcessors = 2;
    plain.numBlocks = 1;
    plain.proto.mutant = m;
    mc::McConfig sym = plain;
    sym.symmetry = true;
    const mc::McResult a = mc::explore(plain);
    const mc::McResult b = mc::explore(sym);
    EXPECT_EQ(a.ok(), b.ok()) << "mutant " << toString(m);
    EXPECT_EQ(a.violations.empty(), b.violations.empty())
        << "mutant " << toString(m);
  }
}

TEST(Reduction, PorPreservesSafetyAndCutsTransitions) {
  mc::McConfig plain;
  plain.numProcessors = 3;
  plain.numBlocks = 1;
  plain.maxDepth = 14;  // depth-bounded: keeps the test sub-second
  mc::McConfig por = plain;
  por.por = true;
  const mc::McResult a = mc::explore(plain);
  const mc::McResult b = mc::explore(por);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_LE(b.transitions, a.transitions);
  EXPECT_GT(b.ampleStates, 0u) << "ample sets never applied — POR inert";
}

TEST(Reduction, PorPreservesMutantVerdicts) {
  for (const Mutant m : {Mutant::SkipInvAckWait, Mutant::NoBusyNack,
                         Mutant::NoDeadlockDetection}) {
    mc::McConfig plain;
    plain.numProcessors = 2;
    plain.numBlocks = 1;
    plain.proto.mutant = m;
    mc::McConfig red = plain;
    red.symmetry = true;
    red.por = true;
    const mc::McResult a = mc::explore(plain);
    const mc::McResult b = mc::explore(red);
    EXPECT_EQ(a.ok(), b.ok()) << "mutant " << toString(m);
    EXPECT_EQ(a.deadlockFound, b.deadlockFound) << "mutant " << toString(m);
  }
}

TEST(Reduction, ModelDataCatchesForwardStaleValue) {
  // Control-state projection alone cannot see this bug: the protocol
  // messages are all legal, only the *value* forwarded is stale.
  mc::McConfig control;
  control.numProcessors = 2;
  control.numBlocks = 1;
  control.proto.mutant = Mutant::ForwardStaleValue;
  const mc::McResult a = mc::explore(control);
  EXPECT_TRUE(a.ok()) << "control projection unexpectedly flags values";

  mc::McConfig data = control;
  data.modelData = true;
  const mc::McResult b = mc::explore(data);
  EXPECT_FALSE(b.ok()) << "value coherence missed the stale forward in "
                       << b.statesExplored << " states";
}

// -- counterexamples ---------------------------------------------------------

TEST(Counterexample, ViolationYieldsASchedule) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = Mutant::SkipInvAckWait;
  const mc::McResult r = mc::explore(cfg);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->kind, "violation");
  EXPECT_FALSE(r.counterexample->schedule.empty());
  EXPECT_FALSE(r.counterexample->detail.empty());
  // Every step renders.
  for (const mc::Action& a : r.counterexample->schedule) {
    EXPECT_FALSE(mc::toString(a).empty());
  }
}

TEST(Counterexample, DeadlockYieldsASchedule) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = Mutant::NoDeadlockDetection;
  const mc::McResult r = mc::explore(cfg);
  ASSERT_TRUE(r.deadlockFound);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->kind, "deadlock");
  EXPECT_FALSE(r.counterexample->schedule.empty());
}

TEST(Counterexample, PristineProtocolYieldsNone) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.counterexample.has_value());
}

// -- golden counts (binary engine == string engine) ---------------------------
//
// Exact state/transition/frontier/wave counts recorded from the original
// string-key engine.  The binary encoding pipeline must reproduce them
// byte-identically — any drift means the canonical equivalence classes
// changed.

struct GoldenCase {
  NodeId procs;
  BlockId blocks;
  bool symmetry;
  bool por;
  bool modelData;
  std::uint64_t maxDepth;
  std::uint64_t states;
  std::uint64_t transitions;
  std::uint64_t frontierPeak;
  std::uint64_t waves;
  /// States expanded through an ample set, where a row pins it.
  std::optional<std::uint64_t> ampleStates = std::nullopt;
};

TEST(GoldenCounts, MatchTheStringEngine) {
  const GoldenCase cases[] = {
      // procs blocks sym  por  data depth states transitions peak waves
      {2, 1, false, false, false, 0, 1998, 4988, 208, 27},
      {2, 1, true, false, false, 0, 1013, 2529, 105, 27},
      {2, 1, false, true, false, 0, 1998, 4988, 208, 27},
      {2, 1, true, true, false, 0, 1013, 2529, 105, 27},
      {2, 1, false, false, true, 0, 12189, 33236, 981, 31},
      {2, 1, true, true, true, 0, 6149, 16752, 492, 31},
      {3, 1, false, false, false, 12, 10508, 41811, 3909, 12},
      {3, 1, true, false, false, 12, 1814, 7229, 664, 12},
      {3, 1, false, true, false, 12, 10508, 41661, 3909, 12},
      {3, 1, true, true, false, 12, 1814, 7204, 664, 12},
      // Uncapped POR, so an ample choice made in any wave moves a count.
      {3, 1, true, true, false, 0, 30537, 113215, 2455, 41, 313},
      {2, 2, false, false, false, 10, 11034, 58992, 4980, 10},
      {2, 2, true, true, false, 10, 5530, 29570, 2490, 10},
      {3, 2, true, true, false, 8, 4833, 41424, 2858, 8},
      // Recorded with the all-P! symmetric codec, before the signature-
      // sorted one replaced it.
      {4, 1, true, true, true, 12, 5117, 28711, 2421, 12},
      {4, 1, true, false, false, 12, 3671, 19910, 1622, 12},
  };
  for (const GoldenCase& g : cases) {
    mc::McConfig cfg;
    cfg.numProcessors = g.procs;
    cfg.numBlocks = g.blocks;
    cfg.symmetry = g.symmetry;
    cfg.por = g.por;
    cfg.modelData = g.modelData;
    cfg.maxDepth = g.maxDepth;
    const mc::McResult r = mc::explore(cfg);
    const std::string label =
        std::to_string(g.procs) + "x" + std::to_string(g.blocks) +
        (g.symmetry ? " sym" : "") + (g.por ? " por" : "") +
        (g.modelData ? " data" : "") +
        (g.maxDepth != 0 ? " depth=" + std::to_string(g.maxDepth) : "");
    EXPECT_EQ(r.statesExplored, g.states) << label;
    EXPECT_EQ(r.transitions, g.transitions) << label;
    EXPECT_EQ(r.frontierPeak, g.frontierPeak) << label;
    EXPECT_EQ(r.wavesCompleted, g.waves) << label;
    if (g.ampleStates) {
      EXPECT_EQ(r.ampleStates, *g.ampleStates) << label;
    }
    EXPECT_TRUE(r.ok()) << label;
  }
}

// -- memory limit -------------------------------------------------------------

TEST(MemLimit, StopsGracefullyAtAWaveBoundary) {
  // The wave at which the limit trips depends on the run's actual memory
  // footprint (arena slack, container capacities), which varies with jobs
  // and scheduling — but the STOP is always wave-aligned: whatever wave
  // count a mem-limited run reports, its counts must be byte-identical to
  // a --max-depth run cut at that same wave count.
  const auto checkWaveAligned = [](unsigned jobs) {
    mc::McConfig cfg;
    cfg.numProcessors = 3;
    cfg.numBlocks = 1;
    cfg.jobs = jobs;
    cfg.memLimitMb = 4;  // far below what full 3x1 needs
    const mc::McResult r = mc::explore(cfg);
    EXPECT_TRUE(r.memLimitHit);
    EXPECT_TRUE(r.ok()) << "a mem-limited clean run is not a violation";
    EXPECT_FALSE(r.hitStateLimit);
    EXPECT_GT(r.wavesCompleted, 0u) << "must stop between waves, not before";
    EXPECT_GT(r.statesExplored, 0u);

    mc::McConfig depthCfg = cfg;
    depthCfg.memLimitMb = 0;
    depthCfg.maxDepth = r.wavesCompleted;
    const mc::McResult rd = mc::explore(depthCfg);
    EXPECT_FALSE(rd.memLimitHit);
    EXPECT_EQ(r.wavesCompleted, rd.wavesCompleted) << "jobs=" << jobs;
    EXPECT_EQ(r.statesExplored, rd.statesExplored) << "jobs=" << jobs;
    EXPECT_EQ(r.transitions, rd.transitions) << "jobs=" << jobs;
    EXPECT_EQ(r.violations.size(), rd.violations.size());
  };
  checkWaveAligned(1);
  checkWaveAligned(2);
}

TEST(MemLimit, GenerousLimitDoesNotTrigger) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.memLimitMb = 4096;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_FALSE(r.memLimitHit);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.statesExplored, 1998u);
}

// -- perf instrumentation -----------------------------------------------------

TEST(Perf, CountersArePopulatedAndTimingIsOptIn) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  const mc::McResult off = mc::explore(cfg);
  // Byte counters are always on.
  EXPECT_EQ(off.perf.storedStates, off.statesExplored);
  EXPECT_EQ(off.perf.encodeCalls, off.transitions + 1) << "root + successors";
  EXPECT_EQ(off.perf.insertCalls, off.transitions + 1);
  EXPECT_GT(off.perf.storedEncodingBytes, 0u);
  EXPECT_GT(off.visitedBytes, 0u);
  EXPECT_GT(off.frontierBytesPeak, 0u);
  std::uint64_t probes = 0;
  for (const std::uint64_t b : off.perf.probeHist) probes += b;
  EXPECT_EQ(probes, off.perf.insertCalls) << "every insert lands in a bucket";
  // Timing is zero unless requested.
  EXPECT_EQ(off.perf.encodeNanos, 0u);
  EXPECT_EQ(off.perf.expandNanos, 0u);

  mc::McConfig on = cfg;
  on.perf = true;
  const mc::McResult timed = mc::explore(on);
  EXPECT_EQ(timed.perf.storedStates, off.perf.storedStates);
  EXPECT_EQ(timed.perf.storedEncodingBytes, off.perf.storedEncodingBytes)
      << "stored encoding bytes are deterministic";
  EXPECT_GT(timed.perf.expandNanos, 0u);
  EXPECT_GT(timed.perf.encodeNanos, 0u);
}

}  // namespace
}  // namespace lcdc
