// The streaming observer pipeline itself: TeeSink fan-out, lifecycle
// hooks, StatsObserver counters, the online CoverageObserver (including
// conversion rebucketing) and the StreamCheckerSet's bounded state.  The
// streaming-equals-batch property has its own suite (stream_equiv_test).
#include <gtest/gtest.h>

#include <vector>

#include "backend/backend.hpp"
#include "campaign/coverage.hpp"
#include "proto/observer.hpp"
#include "testutil.hpp"
#include "verify/stream.hpp"

namespace lcdc {
namespace {

/// A contended run that exercises conversions, evictions and NACK paths.
struct LiveRun {
  SystemConfig cfg;
  std::vector<workload::Program> programs;
};

LiveRun contendedRun(std::uint64_t seed, std::uint64_t ops = 800) {
  LiveRun r;
  r.cfg.numProcessors = 6;
  r.cfg.numDirectories = 2;
  r.cfg.numBlocks = 6;
  r.cfg.cacheCapacity = 2;
  r.cfg.seed = seed;
  auto w = test::workloadFor(r.cfg, ops, seed * 31 + 7);
  w.storePercent = 50;
  w.evictPercent = 12;
  r.programs = workload::hotBlock(w, 85, 3);
  return r;
}

sim::RunResult runThrough(const LiveRun& r, proto::EventSink& sink) {
  sim::System sys(r.cfg, sink);
  for (NodeId p = 0; p < r.cfg.numProcessors; ++p) {
    sys.setProgram(p, r.programs[p]);
  }
  return sys.run();
}

TEST(Stream, TeeSinkFansOutToEveryObserver) {
  const LiveRun r = contendedRun(3);
  trace::Trace trace;
  verify::StatsObserver a;
  verify::StatsObserver b;
  proto::TeeSink tee;
  tee.attach(trace);
  tee.attach(a);
  tee.attach(b);
  ASSERT_EQ(tee.attached(), 3u);
  ASSERT_TRUE(runThrough(r, tee).ok());

  EXPECT_GT(a.stats().events, 0u);
  EXPECT_EQ(a.stats().events, b.stats().events);
  EXPECT_EQ(a.stats().operations, trace.operations().size());
  EXPECT_EQ(a.stats().serializations, trace.serializations().size());
  EXPECT_EQ(a.stats().valueTransfers, trace.values().size());
}

TEST(Stream, LifecycleHooksDeliverConfigAndResult) {
  const LiveRun r = contendedRun(5);
  verify::StatsObserver stats;
  ASSERT_TRUE(runThrough(r, stats).ok());

  ASSERT_TRUE(stats.stats().haveConfig);
  EXPECT_EQ(stats.stats().config.numProcessors, r.cfg.numProcessors);
  EXPECT_EQ(stats.stats().config.seed, r.cfg.seed);
  ASSERT_TRUE(stats.stats().haveResult);
  EXPECT_TRUE(stats.stats().result.ok());
  EXPECT_GE(stats.stats().seconds, 0.0);
}

TEST(Stream, StatsCountersMatchTheRecordedTrace) {
  const LiveRun r = contendedRun(7);
  trace::Trace trace;
  verify::StatsObserver stats;
  proto::TeeSink tee{&trace, &stats};
  ASSERT_TRUE(runThrough(r, tee).ok());

  const auto& s = stats.stats();
  EXPECT_EQ(s.serializations, trace.serializations().size());
  EXPECT_EQ(s.operations, trace.operations().size());
  EXPECT_EQ(s.nacks, trace.nacks().size());
  EXPECT_EQ(s.putShareds, trace.putShareds().size());
  EXPECT_EQ(s.stamps, trace.stamps().size());
  std::uint64_t stores = 0;
  for (const auto& op : trace.operations()) {
    if (op.kind == OpKind::Store) ++stores;
  }
  EXPECT_EQ(s.stores, stores);
  EXPECT_EQ(s.loads + s.stores, s.operations);
  EXPECT_FALSE(stats.report().empty());
}

TEST(Stream, CoverageObserverMatchesBatchCoverageIncludingConversions) {
  // Seeds chosen to reach writeback races (transactions 13/14).  Live, the
  // observer sees each one as onTxnConverted and must rebucket; the batch
  // tally replays the recorded trace through an observer of its own, where
  // the serialization records already carry the converted kinds and no
  // conversion fires.
  for (const std::uint64_t seed : {1ULL, 4ULL, 9ULL, 15ULL}) {
    const LiveRun r = contendedRun(seed);
    trace::Trace trace;
    campaign::CoverageObserver online;
    proto::TeeSink tee{&trace, &online};
    ASSERT_TRUE(runThrough(r, tee).ok());

    campaign::Coverage batch;
    batch.record(trace);
    for (std::size_t i = 0; i < campaign::kNumPoints; ++i) {
      EXPECT_EQ(online.coverage().counts[i], batch.counts[i])
          << "seed " << seed << ": point "
          << toString(static_cast<campaign::Point>(i));
    }
    EXPECT_EQ(online.txnsSerialized(), trace.serializations().size());
  }
}

TEST(Stream, CheckerSetVerifiesOnlineWithBoundedState) {
  const LiveRun small = contendedRun(11, 300);
  const LiveRun large = contendedRun(11, 3000);

  std::size_t footSmall = 0;
  std::size_t footLarge = 0;
  std::uint64_t eventsSmall = 0;
  std::uint64_t eventsLarge = 0;
  for (const LiveRun* r : {&small, &large}) {
    verify::StreamCheckerSet checkers(
        proto::verifyConfigFor(r->cfg));
    verify::StatsObserver stats(&checkers);
    proto::TeeSink tee{&checkers, &stats};
    ASSERT_TRUE(runThrough(*r, tee).ok());
    checkers.finish();
    const verify::CheckReport report = checkers.report();
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.opsChecked, 0u);
    (r == &small ? footSmall : footLarge) = checkers.memoryFootprint();
    (r == &small ? eventsSmall : eventsLarge) = stats.stats().events;
    EXPECT_GE(stats.stats().peakCheckerBytes, checkers.memoryFootprint() / 2);
  }
  // 10x the workload must not cost 10x the checker state: the footprint is
  // bounded by the configuration (blocks, processors, settle windows), not
  // by the event count.
  ASSERT_GT(eventsLarge, eventsSmall * 5);
  EXPECT_LT(footLarge, footSmall * 3)
      << "streaming state grew with the event count: " << footSmall << " -> "
      << footLarge << " bytes over " << eventsSmall << " -> " << eventsLarge
      << " events";
}

TEST(Stream, FinishIsIdempotent) {
  const LiveRun r = contendedRun(2, 200);
  verify::StreamCheckerSet checkers(proto::verifyConfigFor(r.cfg));
  ASSERT_TRUE(runThrough(r, checkers).ok());
  checkers.finish();
  const std::string once = checkers.report().summary();
  checkers.finish();
  EXPECT_EQ(once, checkers.report().summary());
}

}  // namespace
}  // namespace lcdc
