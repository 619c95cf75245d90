// Tardis (Yu & Devadas) under the unchanged Lamport-clock checkers — the
// generalization evidence for the backend API: a protocol with *no*
// invalidation fan-out, whose control decisions read logical timestamps,
// certified by checkers written for the paper's directory protocol.
//
// Also pins the four unordered-network races the port surfaced (all fixed
// by naming ownership epochs with the strictly-increasing grant timestamp):
//   1. FlushReq overtakes its own DataExclusive  -> deferred flush,
//   2. stale FlushReq arrives after the owner re-acquired X,
//   3. stale FlushData/Writeback closes a newer Busy epoch of the same
//      owner -> second exclusive copy,
//   4. a stale FlushReq parked after the real one displaces it -> the
//      grant lands unanswered and the Busy home waits forever.
// Races 2-4 were found by the Tardis model checker, not by random
// simulation (race 4 once the checker explored the production
// controllers); the bounded-exhaustive MC runs here keep them found, and
// race 4's schedule is replayed step by step below.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "common/expect.hpp"
#include "mc/model_checker.hpp"
#include "mc/replay.hpp"
#include "proto/observer.hpp"
#include "run_fingerprint.hpp"
#include "tardis/tardis_system.hpp"
#include "testutil.hpp"
#include "verify/stream.hpp"

namespace lcdc {
namespace {

SystemConfig tardisConfig(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 4;
  cfg.numDirectories = 2;
  cfg.numBlocks = 8;
  cfg.cacheCapacity = 0;
  cfg.seed = seed;
  return cfg;
}

/// One Tardis run with trace + live checkers attached; returns the
/// TardisStats alongside both verdicts so tests can assert on lease
/// machinery without re-running.
struct TardisRun {
  RunResult result;
  verify::CheckReport streaming;
  verify::CheckReport batch;
  tardis::TardisStats stats;
};

TardisRun runTardis(const SystemConfig& cfg,
                    const std::vector<workload::Program>& programs) {
  const verify::VerifyConfig vc = proto::verifyConfigFor(cfg);
  trace::Trace trace;
  verify::StreamCheckerSet checkers(vc);
  proto::TeeSink tee{&trace, &checkers};
  tardis::TardisSystem sys(cfg, tee);
  for (NodeId p = 0; p < cfg.numProcessors && p < programs.size(); ++p) {
    sys.setProgram(p, programs[p]);
  }
  TardisRun out;
  out.result = sys.run(20'000'000);
  checkers.finish();
  out.streaming = checkers.report();
  out.batch = verify::checkAll(trace, vc);
  out.stats = sys.stats();
  return out;
}

TEST(Tardis, CleanVerdictAcrossWorkloadsAndSeeds) {
  const workload::Kind kinds[] = {
      workload::Kind::Uniform,     workload::Kind::Hot,
      workload::Kind::Migratory,   workload::Kind::ReadMostly,
      workload::Kind::LeaseChurn,
  };
  for (const workload::Kind kind : kinds) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SystemConfig cfg = tardisConfig(seed);
      auto w = test::workloadFor(cfg, 400, seed * 17 + 3);
      w.storePercent = 45;
      w.evictPercent = 10;
      const std::string what =
          std::string(workload::toString(kind)) + " seed " +
          std::to_string(seed);
      const TardisRun run = runTardis(cfg, workload::make(kind, w));
      ASSERT_TRUE(run.result.ok()) << what << ": " << run.result.detail;
      EXPECT_TRUE(run.streaming.ok()) << what << ": "
                                      << run.streaming.summary();
      EXPECT_TRUE(run.batch.ok()) << what << ": " << run.batch.summary();
      EXPECT_EQ(run.streaming.summary(), run.batch.summary()) << what;
    }
  }
}

TEST(Tardis, ShortLeasesRenewAndExpire) {
  SystemConfig cfg = tardisConfig(7);
  cfg.proto.leaseLength = 2;  // expire nearly every read under contention
  auto w = test::workloadFor(cfg, 500, 41);
  w.storePercent = 40;
  const TardisRun run = runTardis(cfg, workload::leaseChurn(w));
  ASSERT_TRUE(run.result.ok()) << run.result.detail;
  EXPECT_TRUE(run.streaming.ok()) << run.streaming.summary();
  EXPECT_GT(run.stats.leaseExpiries, 0u)
      << "leaseLength 2 under write contention must expire leases";
  EXPECT_GT(run.stats.leaseRenewals, 0u);
  EXPECT_GT(run.stats.exclusiveGrants, 0u);
}

TEST(Tardis, LeaseFrontierTracksLeaseLength) {
  // leaseLength steers the home's read frontier: every shared grant
  // extends rts past u + L, so a huge L leaves a huge frontier behind.
  // (Expiry-on-read counts are *not* monotone in L — the hc bump over the
  // frontier makes reader clocks scale with L too; see the header note on
  // the lease-liveness caveat.)
  auto frontier = [](std::uint32_t leaseLength) {
    SystemConfig cfg = tardisConfig(7);
    cfg.numBlocks = 1;  // all traffic on block 0 so its frontier moves
    cfg.proto.leaseLength = leaseLength;
    auto w = test::workloadFor(cfg, 200, 41);
    w.storePercent = 10;
    const auto programs = workload::uniformRandom(w);
    trace::Trace trace;
    tardis::TardisSystem sys(cfg, trace);
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      sys.setProgram(p, programs[p]);
    }
    EXPECT_TRUE(sys.run(20'000'000).ok());
    EXPECT_TRUE(
        verify::checkAll(trace, proto::verifyConfigFor(cfg)).ok());
    return sys.leaseFrontier(0);
  };
  const GlobalTime shortLease = frontier(2);
  const GlobalTime longLease = frontier(1'000'000);
  EXPECT_GE(longLease, 1'000'000u);
  EXPECT_LT(shortLease, longLease);
}

// Race 1 regression: on the unordered network a home's FlushReq routinely
// overtakes the DataExclusive it chases.  The sweep must (a) actually
// exercise the deferred-flush path and (b) always quiesce — before the fix
// this config livelocked (home Busy forever, nacking every retry).
TEST(Tardis, DeferredFlushRaceIsExercisedAndSurvived) {
  std::uint64_t deferred = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SystemConfig cfg = tardisConfig(seed);
    auto w = test::workloadFor(cfg, 400, seed * 31 + 7);
    w.storePercent = 60;
    const TardisRun run = runTardis(cfg, workload::hotBlock(w, 85, 2));
    ASSERT_TRUE(run.result.ok())
        << "seed " << seed << ": " << run.result.detail;
    EXPECT_TRUE(run.streaming.ok())
        << "seed " << seed << ": " << run.streaming.summary();
    deferred += run.stats.deferredFlushes;
  }
  EXPECT_GT(deferred, 0u)
      << "sweep never raced a FlushReq past its DataExclusive — the "
         "regression this test pins is not being exercised";
}

TEST(Tardis, CapacityEvictionsVerifyClean) {
  SystemConfig cfg = tardisConfig(11);
  cfg.cacheCapacity = 2;
  auto w = test::workloadFor(cfg, 400, 19);
  w.storePercent = 50;
  w.evictPercent = 15;
  const TardisRun run = runTardis(cfg, workload::hotBlock(w, 70, 3));
  ASSERT_TRUE(run.result.ok()) << run.result.detail;
  EXPECT_TRUE(run.streaming.ok()) << run.streaming.summary();
  EXPECT_GT(run.stats.capacityEvictions, 0u);
  EXPECT_GT(run.stats.writebacks, 0u);
}

TEST(Tardis, ResetReproducesIdenticalRuns) {
  SystemConfig cfg = tardisConfig(5);
  auto w = test::workloadFor(cfg, 300, 23);
  w.storePercent = 50;
  const auto programs = workload::hotBlock(w, 80, 2);

  verify::VerifyConfig vc = proto::verifyConfigFor(cfg);
  verify::StreamCheckerSet checkers(vc);
  tardis::TardisSystem sys(cfg, checkers);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    sys.setProgram(p, programs[p]);
  }

  auto statsLine = [](const tardis::TardisStats& s) {
    std::ostringstream os;
    os << s.txnsSerialized << ' ' << s.sharedGrants << ' '
       << s.exclusiveGrants << ' ' << s.leaseRenewals << ' '
       << s.leaseExpiries << ' ' << s.flushes << ' ' << s.deferredFlushes
       << ' ' << s.writebacks << ' ' << s.nacksSent << ' '
       << s.retriesIssued;
    return os.str();
  };

  const RunResult first = sys.run(20'000'000);
  ASSERT_TRUE(first.ok()) << first.detail;
  const std::string firstStats = statsLine(sys.stats());

  sys.reset(cfg.seed);
  const RunResult second = sys.run(20'000'000);
  ASSERT_TRUE(second.ok()) << second.detail;

  EXPECT_EQ(first.eventsProcessed, second.eventsProcessed);
  EXPECT_EQ(first.endTime, second.endTime);
  EXPECT_EQ(first.opsBound, second.opsBound);
  EXPECT_EQ(firstStats, statsLine(sys.stats()));

  // A different seed must take a different path (same programs, new
  // network latencies) — reset is a real rewind, not a replay.
  sys.reset(cfg.seed + 1);
  const RunResult third = sys.run(20'000'000);
  ASSERT_TRUE(third.ok()) << third.detail;
  EXPECT_NE(first.endTime, third.endTime);
}

// -- backend contract ---------------------------------------------------------

TEST(TardisBackend, RegistryExposesAllThreeBackends) {
  const auto& dir = proto::backendFor(ProtocolKind::Directory);
  const auto& bus = proto::backendFor(ProtocolKind::Bus);
  const auto& tardis = proto::backendFor(ProtocolKind::Tardis);
  EXPECT_STREQ(dir.name(), "dir");
  EXPECT_STREQ(bus.name(), "bus");
  EXPECT_STREQ(tardis.name(), "tardis");
  EXPECT_EQ(tardis.kind(), ProtocolKind::Tardis);
  EXPECT_TRUE(tardis.supportsModelChecking());
  EXPECT_FALSE(bus.supportsModelChecking());

  EXPECT_EQ(proto::protocolFromName("tardis"), ProtocolKind::Tardis);
  // Deprecated alias from the pre-backend CLI still parses.
  EXPECT_EQ(proto::protocolFromName("directory"), ProtocolKind::Directory);
  EXPECT_THROW((void)proto::protocolFromName("mesi"), SimError);
}

TEST(TardisBackend, VerifyConfigCarriesProtocolAndRejectsTso) {
  SystemConfig cfg = tardisConfig(1);
  EXPECT_EQ(proto::verifyConfigFor(cfg).protocol, ProtocolKind::Tardis);

  cfg.storeBufferDepth = 2;
  EXPECT_THROW((void)proto::verifyConfigFor(cfg), SimError);
  EXPECT_THROW(
      {
        trace::Trace trace;
        proto::backendFor(ProtocolKind::Tardis)
            .makeSystem(cfg, trace, net::Network::Mode::RandomLatency);
      },
      SimError);
}

// Satellite guard: a VerifyConfig built for one backend attached to
// another backend's run must fail loudly at onRunBegin, in both
// directions — silently mis-checking foreign traffic is the failure mode
// the backend-provided factory exists to prevent.
TEST(TardisBackend, MismatchedCheckerConfigIsRejectedBothWays) {
  SystemConfig tardisCfg = tardisConfig(1);
  SystemConfig dirCfg = tardisCfg;
  dirCfg.protocol = ProtocolKind::Directory;
  auto w = test::workloadFor(tardisCfg, 50, 9);

  {
    // Directory-built checkers on a Tardis run.
    verify::StreamCheckerSet checkers(proto::verifyConfigFor(dirCfg));
    auto sys = proto::backendFor(ProtocolKind::Tardis)
                   .makeSystem(tardisCfg, checkers,
                               net::Network::Mode::RandomLatency);
    const auto programs = workload::uniformRandom(w);
    for (NodeId p = 0; p < tardisCfg.numProcessors; ++p) {
      sys->setProgram(p, programs[p]);
    }
    EXPECT_THROW(sys->run(1'000'000), SimError);
  }
  {
    // Tardis-built checkers on a directory run.
    verify::StreamCheckerSet checkers(proto::verifyConfigFor(tardisCfg));
    auto sys = proto::backendFor(ProtocolKind::Directory)
                   .makeSystem(dirCfg, checkers,
                               net::Network::Mode::RandomLatency);
    const auto programs = workload::uniformRandom(w);
    for (NodeId p = 0; p < dirCfg.numProcessors; ++p) {
      sys->setProgram(p, programs[p]);
    }
    EXPECT_THROW(sys->run(1'000'000), SimError);
  }
}

// -- model checker ------------------------------------------------------------

// -- seed-equivalence pins ----------------------------------------------------
//
// Byte-for-byte pins of whole Tardis runs, captured from the monolithic
// `TardisSystem` before its home and cache sides became controllers.  Each
// cell folds kTardisSeeds sub-runs; a sub-run's fingerprint covers the
// trace text, the RunResult, the network counters, the streaming verdict
// and every TardisStats counter.  The seed varies the shape, the lease
// length (16 or 2) and capacity evictions.  Re-pin only for an intentional
// behaviour change, from the value the failing cell prints.

struct TardisPinCell {
  workload::Kind kind;
  net::Network::Mode mode;
  std::uint64_t hash;
};

constexpr std::uint64_t kTardisSeeds = 8;

SystemConfig tardisPinConfig(std::uint64_t seed) {
  SystemConfig sys = lcdc::testing::matrixConfig(seed);
  sys.protocol = ProtocolKind::Tardis;
  sys.storeBufferDepth = 0;  // Tardis has no TSO extension
  sys.proto.leaseLength = (seed >> 1) % 2 == 0 ? 16 : 2;
  return sys;
}

std::uint64_t tardisRunFingerprint(workload::Kind kind,
                                   net::Network::Mode mode,
                                   std::uint64_t seed) {
  const SystemConfig sys = tardisPinConfig(seed);
  const workload::WorkloadConfig w =
      lcdc::testing::matrixWorkload(sys, seed);
  const std::vector<workload::Program> programs = workload::make(kind, w);
  trace::Trace trace;
  verify::StreamCheckerSet checkers(proto::verifyConfigFor(sys));
  proto::TeeSink tee{&trace, &checkers};
  tardis::TardisSystem system(sys, tee, mode);
  for (NodeId p = 0; p < sys.numProcessors; ++p) {
    system.setProgram(p, programs[p]);
  }
  const RunResult result = system.run();
  checkers.finish();
  std::uint64_t h = lcdc::testing::artifactFingerprint(
      trace, result, system.network().stats(), checkers.report());
  const tardis::TardisStats s = system.stats();
  for (const std::uint64_t v :
       {s.txnsSerialized, s.sharedGrants, s.exclusiveGrants, s.leaseRenewals,
        s.leaseExpiries, s.flushes, s.deferredFlushes, s.writebacks,
        s.nacksSent, s.staleWbAcks, s.staleFlushDrops, s.retriesIssued,
        s.capacityEvictions}) {
    lcdc::testing::fnvU64(h, v);
  }
  return h;
}

std::string tardisPinLabel(const TardisPinCell& c) {
  const char* mode = c.mode == net::Network::Mode::Fifo ? "Fifo"
                     : c.mode == net::Network::Mode::Pct ? "Pct"
                                                         : "Random";
  return std::string(workload::toString(c.kind)) + mode;
}

void PrintTo(const TardisPinCell& c, std::ostream* os) {
  *os << tardisPinLabel(c);
}

constexpr net::Network::Mode kRand = net::Network::Mode::RandomLatency;
constexpr net::Network::Mode kFifo = net::Network::Mode::Fifo;
constexpr net::Network::Mode kPct = net::Network::Mode::Pct;

const TardisPinCell kTardisPins[] = {
    {workload::Kind::Uniform, kRand, 0xcfd44f453fe09ad5ULL},
    {workload::Kind::Uniform, kFifo, 0x42f883b78afe5f76ULL},
    {workload::Kind::Uniform, kPct, 0x2ab74d90783c1ebbULL},
    {workload::Kind::Hot, kRand, 0x40a88201aa0736eaULL},
    {workload::Kind::Hot, kFifo, 0x678b2cddd084c5deULL},
    {workload::Kind::Hot, kPct, 0xbd767fef4d51666cULL},
    {workload::Kind::ProdCons, kRand, 0x6e2194ab020f9aceULL},
    {workload::Kind::ProdCons, kFifo, 0xecb356b0bb8f584eULL},
    {workload::Kind::ProdCons, kPct, 0x62d01d09f61d31faULL},
    {workload::Kind::Migratory, kRand, 0x30571824edcccd7eULL},
    {workload::Kind::Migratory, kFifo, 0x3534e44d6e7f67acULL},
    {workload::Kind::Migratory, kPct, 0x124052120224258fULL},
    {workload::Kind::FalseShare, kRand, 0x9c2794e9f8c108a3ULL},
    {workload::Kind::FalseShare, kFifo, 0xf9e218b239be2db0ULL},
    {workload::Kind::FalseShare, kPct, 0x0ac7b14f237bd04bULL},
    {workload::Kind::ReadMostly, kRand, 0xc6fcbdb696240e34ULL},
    {workload::Kind::ReadMostly, kFifo, 0x2bd87c264d742063ULL},
    {workload::Kind::ReadMostly, kPct, 0x863922efab4e3e02ULL},
    {workload::Kind::LeaseChurn, kRand, 0x26fe83d61f54db69ULL},
    {workload::Kind::LeaseChurn, kFifo, 0x0b7121d44fa5cd9cULL},
    {workload::Kind::LeaseChurn, kPct, 0xe2d31e3707ab9cc7ULL},
};

class TardisSeedEquivCell : public ::testing::TestWithParam<TardisPinCell> {};

TEST_P(TardisSeedEquivCell, ByteIdenticalToMonolithicSystem) {
  const TardisPinCell& c = GetParam();
  std::uint64_t actual = lcdc::testing::kFnvOffset;
  for (std::uint64_t seed = 0; seed < kTardisSeeds; ++seed) {
    lcdc::testing::fnvU64(actual, tardisRunFingerprint(c.kind, c.mode, seed));
  }
  EXPECT_EQ(actual, c.hash)
      << "Tardis run diverged for " << tardisPinLabel(c)
      << "; if the behaviour change is intentional, pin that value: 0x"
      << std::hex << actual;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, TardisSeedEquivCell, ::testing::ValuesIn(kTardisPins),
    [](const ::testing::TestParamInfo<TardisPinCell>& pinfo) {
      return tardisPinLabel(pinfo.param);
    });

mc::McResult tardisMc(Mutant m, std::uint64_t maxStates) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = m;
  cfg.maxStates = maxStates;
  return mc::explore(cfg);
}

// The Tardis state space at (2,1) does not close even with timestamps
// rebased, so the pristine run is bounded-exhaustive: every state within
// the cap must satisfy the invariants.  Races 2-4 were all found well
// inside this bound (race 4 at depth 16, within 7,200 states).
TEST(TardisMc, PristineBoundedExploreIsClean) {
  const mc::McResult r = tardisMc(Mutant::None, 150'000);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "deadlock"
                                               : r.violations.front());
  EXPECT_GT(r.statesExplored, 10'000u);
}

TEST(TardisMc, DropLeaseBumpIsCaughtByName) {
  const mc::McResult r = tardisMc(Mutant::DropLeaseBump, 150'000);
  ASSERT_FALSE(r.violations.empty())
      << "dropping the lease bump must grant exclusivity inside a live "
         "lease";
  EXPECT_NE(r.violations.front().find("lease frontier"), std::string::npos)
      << r.violations.front();
  EXPECT_FALSE(r.hitStateLimit) << "mutant should be refuted in few states";
  ASSERT_TRUE(r.counterexample.has_value());
  ASSERT_FALSE(r.counterexample->schedule.empty());
  // The same path through TardisSystem trips the paper's claim 3(a).
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 2;
  cfg.proto.mutant = Mutant::DropLeaseBump;
  const mc::ReplayResult rep =
      mc::replayCounterexample(cfg, r.counterexample->schedule);
  EXPECT_TRUE(rep.scheduleCompleted) << rep.divergence;
  bool claim3a = false;
  for (const auto& v : rep.report.violations) {
    claim3a = claim3a || v.check == "claim3a";
  }
  EXPECT_TRUE(claim3a) << rep.report.summary();
}

TEST(TardisMc, CappedCountsIgnoreJobsAndSpilling) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 2;
  cfg.numBlocks = 2;
  cfg.maxStates = 20'000;
  const mc::McResult base = mc::explore(cfg);
  EXPECT_TRUE(base.ok());
  EXPECT_TRUE(base.hitStateLimit);
  cfg.jobs = 3;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_EQ(r.statesExplored, base.statesExplored);
  EXPECT_EQ(r.transitions, base.transitions);
  EXPECT_EQ(r.frontierPeak, base.frontierPeak);
  EXPECT_EQ(r.wavesCompleted, base.wavesCompleted);
}

TEST(TardisMc, DirectoryReductionsAreRefused) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.maxStates = 100;
  for (int which = 0; which < 3; ++which) {
    mc::McConfig c = cfg;
    c.symmetry = which == 0;
    c.por = which == 1;
    c.modelData = which == 2;
    EXPECT_THROW((void)mc::explore(c), SimError) << which;
  }
}

// Race 4, as the model checker first reported it on the production
// controllers: node 1's stale FlushReq (naming its first, written-back
// grant) arrives after the FlushReq aimed at its second grant was parked.
// Replayed through TardisSystem under `mutant`.
mc::ReplayResult replayRace4(Mutant mutant) {
  using K = mc::Action::Kind;
  const auto issue = [](NodeId p, ReqType req) {
    mc::Action a;
    a.kind = K::Issue;
    a.proc = p;
    a.req = req;
    return a;
  };
  const auto deliver = [](std::uint32_t i, proto::MsgType t, NodeId dst) {
    mc::Action a;
    a.kind = K::Deliver;
    a.flightIndex = i;
    a.msgType = t;
    a.dst = dst;
    return a;
  };
  mc::Action evict;
  evict.kind = K::Evict;
  evict.proc = 1;
  using T = proto::MsgType;
  const mc::Schedule schedule = {
      issue(0, ReqType::GetShared),   issue(1, ReqType::GetExclusive),
      deliver(1, T::GetX, 2),         deliver(0, T::GetS, 2),
      deliver(0, T::DataExclusive, 1), evict,
      deliver(1, T::Writeback, 2),    deliver(1, T::DataShared, 0),
      deliver(1, T::WbAck, 1),        issue(0, ReqType::GetExclusive),
      issue(1, ReqType::GetExclusive), deliver(2, T::GetX, 2),
      deliver(1, T::GetX, 2),         deliver(2, T::FlushReq, 1),
      deliver(0, T::FlushReq, 1),     deliver(0, T::DataExclusive, 1),
  };
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 2;
  cfg.proto.mutant = mutant;
  return mc::replayCounterexample(cfg, schedule);
}

// The run must end with node 1's FlushData on its way home instead of a
// Busy home with nothing in flight.
TEST(Tardis, StaleFlushReqCannotDisplaceTheParkedOne) {
  const mc::ReplayResult rep = replayRace4(Mutant::None);
  EXPECT_TRUE(rep.scheduleCompleted) << rep.divergence;
  EXPECT_FALSE(rep.deadlocked) << "the Busy home lost its flush";
  EXPECT_TRUE(rep.report.ok()) << rep.report.summary();
}

// The twin: with the fix reverted (the stale FlushReq overwrites the parked
// one), the same 16 steps leave the Busy home waiting forever.
TEST(Tardis, DisplaceParkedFlushDeadlocksOnTheSameSteps) {
  const mc::ReplayResult rep = replayRace4(Mutant::DisplaceParkedFlush);
  EXPECT_TRUE(rep.scheduleCompleted) << rep.divergence;
  EXPECT_TRUE(rep.deadlocked) << "the stale FlushReq did not displace";
}

TEST(TardisMc, BusBackendIsRejected) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Bus;
  EXPECT_THROW(mc::explore(cfg), SimError);
}

}  // namespace
}  // namespace lcdc
