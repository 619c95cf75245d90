// Engine-reuse equivalence: System::reset(seed) + StreamCheckerSet::reset
// followed by a run must be byte-identical to constructing a fresh System
// and checker set with the same seed — the contract the campaign's
// per-thread WorkerEngine reuse (campaign.cpp) rests on.  One persistent
// engine replays a chain of sub-runs with differing seeds, programs and
// per-seed shapes drawn from the seed-equivalence matrix, and every
// artifact fingerprint (trace text, run result, network counters, checker
// verdict) must match its freshly-constructed twin.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "backend/backend.hpp"
#include "run_fingerprint.hpp"

namespace lcdc::testing {

static std::string resetReuseLabel(const MatrixCell& cell) {
  std::string name = workload::toString(cell.kind);
  name += cell.mode == net::Network::Mode::Fifo ? "Fifo" : "Rand";
  return name;
}

// Prints the label instead of the raw bytes: MatrixCell's padding is
// uninitialized, so the bytes would change the discovered test names
// from build to build.
static void PrintTo(const MatrixCell& cell, std::ostream* os) {
  *os << resetReuseLabel(cell);
}

}  // namespace lcdc::testing

namespace lcdc {
namespace {

using lcdc::testing::MatrixCell;

class ResetReuseCell : public ::testing::TestWithParam<MatrixCell> {};

TEST_P(ResetReuseCell, ResetThenRunEqualsConstructThenRun) {
  const MatrixCell cell = GetParam();

  // The persistent engine.  The matrix varies topology with the seed, so
  // pick one seed's shape and chain every sub-run that shares it — the
  // campaign reuses a System only across identically-shaped specs too.
  const SystemConfig shape = lcdc::testing::matrixConfig(2);
  trace::Trace trace;
  verify::StreamCheckerSet checkers(proto::verifyConfigFor(shape));
  proto::TeeSink tee{&trace, &checkers};
  std::optional<sim::System> reused;

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SystemConfig sys = shape;
    sys.seed = 0x5EEDULL ^ (seed * 0x9E3779B97F4A7C15ULL);
    const workload::WorkloadConfig w =
        lcdc::testing::matrixWorkload(sys, seed);
    const auto progs = workload::make(cell.kind, w);

    const std::uint64_t fresh =
        lcdc::testing::runFingerprint(sys, progs, cell.mode);

    if (!reused) {
      reused.emplace(sys, tee, cell.mode);
    } else {
      reused->reset(sys.seed);
    }
    trace.clear();
    checkers.reset(proto::verifyConfigFor(sys));
    for (NodeId p = 0; p < sys.numProcessors; ++p) {
      reused->setProgram(p, progs[p]);
    }
    const sim::RunResult r = reused->run();
    checkers.finish();
    const std::uint64_t replay = lcdc::testing::artifactFingerprint(
        trace, r, reused->network().stats(), checkers.report());

    EXPECT_EQ(replay, fresh)
        << "sub-run " << seed << " of " << workload::toString(cell.kind)
        << " diverged after reset";
  }
}

// Observer-lifecycle extension: one persistent TeeSink + StreamCheckerSet
// reused across cycles whose *topologies differ* (the matrix varies
// processors, directories, capacity, TSO depth with the cycle) and one of
// which injects a value-corrupting mutant — the reused pipeline's verdict,
// violation for violation, must match a freshly constructed engine's.
// This is the contract the dsm certifier and the campaign's worker reuse
// both rest on: reset() really does forget the previous stream.
TEST(ObserverLifecycle, PersistentTeeAcrossShapesAndMutants) {
  trace::Trace trace;
  proto::TeeSink tee;
  std::optional<verify::StreamCheckerSet> checkers;

  for (std::uint64_t cycle = 0; cycle < 8; ++cycle) {
    SystemConfig sys = lcdc::testing::matrixConfig(cycle);
    // Two mutant cycles mid-chain: their violating reports must not bleed
    // into the clean cycles that follow.
    const bool mutated = cycle == 2 || cycle == 5;
    if (mutated) sys.proto.mutant = Mutant::ForwardStaleValue;
    const workload::WorkloadConfig w =
        lcdc::testing::matrixWorkload(sys, cycle);
    const auto progs = workload::make(
        mutated ? workload::Kind::Hot : workload::Kind::Uniform, w);
    const verify::VerifyConfig vc = proto::verifyConfigFor(sys);

    // Freshly constructed engines.
    trace::Trace freshTrace;
    verify::StreamCheckerSet freshCheckers(vc);
    proto::TeeSink freshTee{&freshTrace, &freshCheckers};
    sim::System freshSys(sys, freshTee);
    for (NodeId p = 0; p < sys.numProcessors; ++p) {
      freshSys.setProgram(p, progs[p]);
    }
    const sim::RunResult freshRun = freshSys.run();
    freshCheckers.finish();

    // The persistent pipeline: TeeSink re-wired, checkers reset to the new
    // (different!) shape, trace cleared.  The System itself is fresh — a
    // topology change requires that — the observers are what persist.
    tee.clear();
    trace.clear();
    if (!checkers) {
      checkers.emplace(vc);
    } else {
      checkers->reset(vc);
    }
    tee.attach(trace);
    tee.attach(*checkers);
    sim::System reusedSys(sys, tee);
    for (NodeId p = 0; p < sys.numProcessors; ++p) {
      reusedSys.setProgram(p, progs[p]);
    }
    const sim::RunResult reusedRun = reusedSys.run();
    checkers->finish();

    EXPECT_EQ(reusedRun.outcome, freshRun.outcome) << "cycle " << cycle;
    const verify::CheckReport& a = checkers->report();
    const verify::CheckReport& b = freshCheckers.report();
    EXPECT_EQ(a.summary(), b.summary()) << "cycle " << cycle;
    ASSERT_EQ(a.violations.size(), b.violations.size()) << "cycle " << cycle;
    for (std::size_t v = 0; v < a.violations.size(); ++v) {
      EXPECT_EQ(a.violations[v].check, b.violations[v].check);
      EXPECT_EQ(a.violations[v].detail, b.violations[v].detail);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ResetReuseCell,
    ::testing::ValuesIn(lcdc::testing::fingerprintMatrix()),
    [](const ::testing::TestParamInfo<MatrixCell>& pinfo) {
      return lcdc::testing::resetReuseLabel(pinfo.param);
    });

}  // namespace
}  // namespace lcdc
