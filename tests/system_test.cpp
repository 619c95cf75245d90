// System-level tests: topology mapping, determinism, retry pacing, run
// outcomes, and the final-state cross-check (the simulator's ground-truth
// memory must agree with the Lamport-order replay).
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "testutil.hpp"

namespace lcdc {
namespace {

TEST(System, HomeMappingInterleavesBlocksAfterProcessors) {
  SystemConfig cfg;
  cfg.numProcessors = 4;
  cfg.numDirectories = 3;
  EXPECT_EQ(sim::homeOf(0, cfg), 4u);
  EXPECT_EQ(sim::homeOf(1, cfg), 5u);
  EXPECT_EQ(sim::homeOf(2, cfg), 6u);
  EXPECT_EQ(sim::homeOf(3, cfg), 4u);
}

std::string traceFingerprint(const trace::Trace& t) {
  std::ostringstream os;
  for (const auto& op : t.operations()) {
    os << op.proc << ',' << op.progIdx << ',' << op.value << ','
       << toString(op.ts) << ';';
  }
  for (const auto& s : t.stamps()) {
    os << s.node << ',' << s.txn << ',' << s.ts << ';';
  }
  return os.str();
}

TEST(System, RunsAreDeterministicFromTheSeed) {
  const auto runOnce = [](std::uint64_t seed) {
    SystemConfig cfg;
    cfg.numProcessors = 4;
    cfg.numDirectories = 2;
    cfg.numBlocks = 8;
    cfg.cacheCapacity = 3;
    cfg.seed = seed;
    auto w = test::workloadFor(cfg, 300, 9);
    const auto programs = workload::uniformRandom(w);
    trace::Trace trace;
    sim::System system(cfg, trace);
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      system.setProgram(p, programs[p]);
    }
    EXPECT_TRUE(system.run().ok());
    return traceFingerprint(trace);
  };
  EXPECT_EQ(runOnce(5), runOnce(5));
  EXPECT_NE(runOnce(5), runOnce(6));
}

TEST(System, NacksAreRetriedAfterTheConfiguredDelay) {
  // Hot single block, many writers: NACKs are guaranteed; all programs must
  // nevertheless complete through the retry machinery.
  SystemConfig cfg;
  cfg.numProcessors = 6;
  cfg.numDirectories = 1;
  cfg.numBlocks = 1;
  cfg.retryDelay = 16;
  cfg.seed = 3;
  trace::Trace trace;
  sim::System system(cfg, trace);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    workload::Program prog;
    for (std::uint64_t i = 0; i < 40; ++i) {
      prog.steps.push_back(workload::store(0, 0, workload::makeStoreValue(p, i)));
      prog.steps.push_back(workload::evict(0));
    }
    system.setProgram(p, std::move(prog));
  }
  const sim::RunResult r = system.run();
  ASSERT_TRUE(r.ok()) << toString(r.outcome);
  EXPECT_GT(system.aggregateCacheStats().nacksReceived, 0u);
  const auto report = verify::checkAll(trace, verify::VerifyConfig{6});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(System, EmptyProgramsAreImmediatelyQuiescent) {
  SystemConfig cfg;
  cfg.numProcessors = 2;
  cfg.numDirectories = 1;
  cfg.numBlocks = 2;
  trace::Trace trace;
  sim::System system(cfg, trace);
  const sim::RunResult r = system.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.eventsProcessed, 0u);
  EXPECT_EQ(r.opsBound, 0u);
}

TEST(System, BudgetExhaustionIsReported) {
  SystemConfig cfg;
  cfg.numProcessors = 4;
  cfg.numDirectories = 2;
  cfg.numBlocks = 8;
  cfg.seed = 2;
  auto w = test::workloadFor(cfg, 2000, 4);
  const auto programs = workload::uniformRandom(w);
  trace::Trace trace;
  sim::System system(cfg, trace);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    system.setProgram(p, programs[p]);
  }
  const sim::RunResult r = system.run(/*maxEvents=*/100);
  EXPECT_EQ(r.outcome, sim::RunResult::Outcome::BudgetExhausted);
  EXPECT_EQ(r.eventsProcessed, 100u);
}

// The simulator's ground-truth final memory state must agree with the last
// store per word in the Lamport total order — Lemma 3 evaluated at the end
// of time, connecting the conceptual order back to the physical machine.
TEST(System, FinalMemoryMatchesLamportReplay) {
  SystemConfig cfg;
  cfg.numProcessors = 6;
  cfg.numDirectories = 2;
  cfg.numBlocks = 8;
  cfg.cacheCapacity = 3;
  cfg.seed = 21;
  auto w = test::workloadFor(cfg, 800, 22);
  w.storePercent = 50;
  w.evictPercent = 10;
  const auto programs = workload::hotBlock(w, 70, 4);
  trace::Trace trace;
  sim::System system(cfg, trace);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    system.setProgram(p, programs[p]);
  }
  ASSERT_TRUE(system.run().ok());
  ASSERT_TRUE(
      verify::checkAll(trace, verify::VerifyConfig{cfg.numProcessors}).ok());

  // Replay: last store per (block, word) in Lamport order.
  std::vector<const proto::OpRecord*> ops;
  for (const auto& op : trace.operations()) ops.push_back(&op);
  std::sort(ops.begin(), ops.end(),
            [](const proto::OpRecord* a, const proto::OpRecord* b) {
              return a->ts < b->ts;
            });
  std::map<std::pair<BlockId, WordIdx>, Word> last;
  for (const auto* op : ops) {
    if (op->kind == OpKind::Store) last[{op->block, op->word}] = op->value;
  }

  // Ground truth: the block's current value lives at the owner's cache when
  // the directory is Exclusive, at the home otherwise.
  for (BlockId b = 0; b < cfg.numBlocks; ++b) {
    const std::size_t dirIdx = b % cfg.numDirectories;
    const proto::DirEntry& entry = system.directory(dirIdx).entry(b);
    const BlockValue* truth = nullptr;
    if (entry.core.state == DirState::Exclusive) {
      const NodeId owner = entry.core.cached.front();
      truth = &system.processor(owner).cache().findLine(b)->data;
    } else {
      truth = &entry.mem;
    }
    ASSERT_NE(truth, nullptr);
    for (WordIdx word = 0; word < cfg.proto.wordsPerBlock; ++word) {
      const auto it = last.find({b, word});
      const Word expected = it == last.end() ? 0 : it->second;
      EXPECT_EQ((*truth)[word], expected)
          << "block " << b << " word " << word;
    }
  }
}

// Per-type traffic conservation: Section 2.1's reliable-delivery guarantee,
// auditable per message type.  At quiescence the per-type sent and
// delivered histograms must agree exactly (and sum to the aggregate
// counters) — a dropped or duplicated Inv/Ack would unbalance its row
// even if the totals happened to cancel.
TEST(System, SentEqualsDeliveredPerTypeAtQuiesce) {
  SystemConfig cfg;
  cfg.numProcessors = 5;
  cfg.numDirectories = 2;
  cfg.numBlocks = 8;
  cfg.cacheCapacity = 2;
  cfg.seed = 11;
  auto w = test::workloadFor(cfg, 500, 12);
  w.storePercent = 40;
  w.evictPercent = 8;
  const auto programs = workload::hotBlock(w, 60, 3);
  trace::Trace trace;
  sim::System system(cfg, trace);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    system.setProgram(p, programs[p]);
  }
  ASSERT_TRUE(system.run().ok());

  const net::NetStats& ns = system.network().stats();
  ASSERT_EQ(ns.sentByType.size(), ns.deliveredByType.size());
  std::uint64_t sentSum = 0;
  std::uint64_t deliveredSum = 0;
  for (std::size_t i = 0; i < ns.sentByType.size(); ++i) {
    EXPECT_EQ(ns.sentByType[i], ns.deliveredByType[i])
        << "type " << i << " sent/delivered imbalance at quiescence";
    sentSum += ns.sentByType[i];
    deliveredSum += ns.deliveredByType[i];
  }
  EXPECT_EQ(sentSum, ns.sent);
  EXPECT_EQ(deliveredSum, ns.delivered);
  EXPECT_GT(ns.sent, 0u);
}

TEST(System, ManualModeAdvancesTimeForRetries) {
  // In Manual mode a NACKed processor waits out its retry delay via
  // advanceTime.
  SystemConfig cfg;
  cfg.numProcessors = 2;
  cfg.numDirectories = 1;
  cfg.numBlocks = 1;
  cfg.retryDelay = 4;
  trace::Trace trace;
  sim::System sys(cfg, trace, net::Network::Mode::Manual);
  using workload::load;
  using workload::store;
  sys.setProgram(0, {{store(0, 0, 1)}});
  sys.setProgram(1, {{load(0, 0)}});

  sys.kick(0);
  // Home serializes p0's GetX...
  ASSERT_TRUE(sys.deliverManualFirst([](const net::Envelope& e) {
    return e.msg.type == proto::MsgType::GetX;
  }));
  // ...p1's GetS arrives while a fresh Exclusive grant is pending: the
  // directory forwards (Busy-Shared).  Make p1 collide with the busy state:
  sys.kick(1);
  ASSERT_TRUE(sys.deliverManualFirst([](const net::Envelope& e) {
    return e.msg.type == proto::MsgType::GetS;
  }));
  // p0 completes; p1's request was forwarded to p0 before p0 owned it —
  // that forward is buffered and serviced on completion.  Just drain and
  // let retries (if any) play out under advanceTime.
  for (int i = 0; i < 200 && !sys.allProgramsDone(); ++i) {
    if (!sys.network().empty()) {
      sys.deliverManual(0);
    } else {
      sys.advanceTime(8);
    }
  }
  EXPECT_TRUE(sys.allProgramsDone());
  const auto report = verify::checkAll(trace, verify::VerifyConfig{2});
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace lcdc
