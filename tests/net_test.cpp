// Unit tests for the interconnect: Section 2.1's two guarantees (reliable,
// eventual delivery; no ordering) and the three delivery modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "common/expect.hpp"
#include "net/network.hpp"

namespace lcdc::net {
namespace {

proto::Message msg(proto::MsgType type, BlockId block) {
  proto::Message m;
  m.type = type;
  m.block = block;
  return m;
}

TEST(Network, DeliversEverythingExactlyOnce) {
  Network net(Network::Mode::RandomLatency, Rng(1), 1, 20);
  for (BlockId b = 0; b < 100; ++b) {
    net.send(0, 1, 0, msg(proto::MsgType::GetS, b));
  }
  EXPECT_EQ(net.inFlight(), 100u);
  std::set<BlockId> seen;
  while (!net.empty()) {
    const Envelope env = net.popNext();
    EXPECT_TRUE(seen.insert(env.msg.block).second) << "duplicate delivery";
    EXPECT_EQ(env.dst, 1u);
    EXPECT_EQ(env.msg.src, 0u);
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(net.stats().sent, 100u);
  EXPECT_EQ(net.stats().delivered, 100u);
}

TEST(Network, RandomLatencyReordersMessages) {
  Network net(Network::Mode::RandomLatency, Rng(2), 1, 50);
  for (BlockId b = 0; b < 50; ++b) {
    net.send(0, 1, 0, msg(proto::MsgType::GetS, b));
  }
  bool reordered = false;
  BlockId prev = 0;
  bool first = true;
  while (!net.empty()) {
    const Envelope env = net.popNext();
    if (!first && env.msg.block < prev) reordered = true;
    prev = env.msg.block;
    first = false;
  }
  EXPECT_TRUE(reordered) << "random-latency network never reordered";
}

TEST(Network, DeliveryNeverPrecedesSendPlusMinLatency) {
  Network net(Network::Mode::RandomLatency, Rng(3), 5, 9);
  net.send(0, 1, 100, msg(proto::MsgType::GetS, 0));
  const Envelope env = net.popNext();
  EXPECT_GE(env.deliverAt, 105u);
  EXPECT_LE(env.deliverAt, 109u);
}

TEST(Network, FifoPreservesOrder) {
  Network net(Network::Mode::Fifo, Rng(4), 3, 3);
  for (BlockId b = 0; b < 20; ++b) {
    net.send(0, 1, b, msg(proto::MsgType::GetS, b));
  }
  for (BlockId b = 0; b < 20; ++b) {
    EXPECT_EQ(net.popNext().msg.block, b);
  }
}

TEST(Network, NextDeliveryTimeTracksEarliest) {
  Network net(Network::Mode::Fifo, Rng(5), 2, 2);
  EXPECT_EQ(net.nextDeliveryTime(), kNever);
  net.send(0, 1, 10, msg(proto::MsgType::GetS, 0));
  net.send(0, 1, 4, msg(proto::MsgType::GetS, 1));
  EXPECT_EQ(net.nextDeliveryTime(), 6u);
}

// The timed modes' pop order, pinned against the seed engine's own queue:
// a std::priority_queue of envelopes with the earliest (deliverAt, seq) on
// top.  Sends interleave with pops; about 3% of sends follow an idle jump
// far past maxLatency (the retry-timer pattern), and ties are common.
// RandomLatency draws each send's latency from the network's stream,
// uniform in [min, max], so a twin Rng on the same seed gives the oracle
// every deliverAt.  After reset(), the same script pops the same order.
TEST(Network, TimedPopOrderMatchesPriorityQueueOracle) {
  struct Later {
    bool operator()(const Envelope& a, const Envelope& b) const {
      if (a.deliverAt != b.deliverAt) return a.deliverAt > b.deliverAt;
      return a.seq > b.seq;
    }
  };
  constexpr Tick kMin = 1;
  constexpr Tick kMax = 40;
  constexpr std::uint64_t kNetSeed = 0xCA1E;
  for (const Network::Mode mode :
       {Network::Mode::RandomLatency, Network::Mode::Fifo}) {
    SCOPED_TRACE(mode == Network::Mode::Fifo ? "Fifo" : "RandomLatency");
    Network net(mode, Rng(kNetSeed), kMin, kMax);
    const auto play = [&](std::vector<Envelope>& popped) {
      std::priority_queue<Envelope, std::vector<Envelope>, Later> oracle;
      Rng latency(kNetSeed);
      Rng script(0xFEED);
      std::uint64_t pushes = 0;
      std::uint64_t maxDepth = 0;
      Tick now = 0;
      const auto pop = [&] {
        ASSERT_EQ(net.nextDeliveryTime(), oracle.top().deliverAt);
        const Envelope got = net.popNext();
        ASSERT_EQ(got.deliverAt, oracle.top().deliverAt);
        ASSERT_EQ(got.seq, oracle.top().seq);
        oracle.pop();
        now = got.deliverAt;
        popped.push_back(got);
      };
      for (int step = 0; step < 30'000; ++step) {
        if (oracle.empty() || script.chance(11, 20)) {
          if (script.chance(3, 100)) now += 700 + script.uniform(0, 3000);
          Envelope want;
          want.seq = net.send(0, 1, now,
                              msg(proto::MsgType::GetS,
                                  static_cast<BlockId>(step % 1024)));
          want.deliverAt = now + (mode == Network::Mode::Fifo
                                      ? kMin
                                      : latency.uniform(kMin, kMax));
          oracle.push(want);
          pushes += 1;
          maxDepth = std::max<std::uint64_t>(maxDepth, oracle.size());
        } else {
          pop();
          if (testing::Test::HasFatalFailure()) return;
        }
        ASSERT_EQ(net.inFlight(), oracle.size());
      }
      while (!oracle.empty()) {
        pop();
        if (testing::Test::HasFatalFailure()) return;
      }
      EXPECT_EQ(net.nextDeliveryTime(), kNever);
      EXPECT_EQ(net.queueStats().pushes, pushes);
      EXPECT_EQ(net.queueStats().pops, popped.size());
      EXPECT_EQ(net.queueStats().maxDepth, maxDepth);
    };
    std::vector<Envelope> first;
    play(first);
    ASSERT_FALSE(testing::Test::HasFailure());
    net.reset(Rng(kNetSeed));
    std::vector<Envelope> again;
    play(again);
    ASSERT_FALSE(testing::Test::HasFailure());
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(again[i].seq, first[i].seq);
      ASSERT_EQ(again[i].deliverAt, first[i].deliverAt);
    }
  }
}

TEST(Network, ManualModePicksArbitraryOrder) {
  Network net(Network::Mode::Manual, Rng(6), 1, 1);
  net.send(0, 1, 0, msg(proto::MsgType::GetS, 10));
  net.send(0, 2, 0, msg(proto::MsgType::GetX, 20));
  net.send(1, 2, 0, msg(proto::MsgType::Inv, 30));
  ASSERT_EQ(net.pending().size(), 3u);

  const Envelope second = net.deliverIndex(1);
  EXPECT_EQ(second.msg.block, 20u);
  const auto inv = net.deliverFirst(
      [](const Envelope& e) { return e.msg.type == proto::MsgType::Inv; });
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->msg.block, 30u);
  EXPECT_EQ(net.pending().size(), 1u);
  const Envelope last = net.deliverSeq(net.pending().front().seq);
  EXPECT_EQ(last.msg.block, 10u);
  EXPECT_TRUE(net.empty());
}

// deliverSeq locates the envelope by binary search over the seq-sorted
// pending deque.  Pin it against the obvious oracle — a linear scan plus
// deliverIndex on a twin network — through a long randomized mix of sends
// and deliveries: every delivered envelope and the entire remaining
// pending sequence must match at each step (the identical-trace
// guarantee MC replay relies on).
TEST(Network, DeliverSeqMatchesLinearScanOracle) {
  Network fast(Network::Mode::Manual, Rng(9), 1, 1);
  Network oracle(Network::Mode::Manual, Rng(9), 1, 1);
  Rng rng(0xD5);
  std::uint32_t sent = 0;
  for (int step = 0; step < 2000; ++step) {
    if (fast.pending().empty() || rng.chance(1, 2)) {
      const BlockId b = sent++;
      const proto::Message m = msg(proto::MsgType::GetS, b);
      (void)fast.send(0, 1, 0, m);
      (void)oracle.send(0, 1, 0, m);
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform(0, fast.pending().size() - 1));
      const MsgSeq seq = fast.pending()[pick].seq;
      const Envelope got = fast.deliverSeq(seq);
      std::size_t idx = oracle.pending().size();
      for (std::size_t i = 0; i < oracle.pending().size(); ++i) {
        if (oracle.pending()[i].seq == seq) {
          idx = i;
          break;
        }
      }
      ASSERT_LT(idx, oracle.pending().size()) << "oracle lost seq " << seq;
      const Envelope want = oracle.deliverIndex(idx);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.msg.block, want.msg.block);
      ASSERT_EQ(fast.pending().size(), oracle.pending().size());
      for (std::size_t i = 0; i < fast.pending().size(); ++i) {
        ASSERT_EQ(fast.pending()[i].seq, oracle.pending()[i].seq);
      }
    }
  }
  EXPECT_THROW((void)fast.deliverSeq(~MsgSeq{0}), ProtocolError);
}

TEST(Network, ModeMisuseIsRejected) {
  Network manual(Network::Mode::Manual, Rng(7), 1, 1);
  EXPECT_THROW((void)manual.nextDeliveryTime(), ProtocolError);
  Network timed(Network::Mode::RandomLatency, Rng(8), 1, 1);
  EXPECT_THROW((void)timed.pending(), ProtocolError);
  EXPECT_THROW((void)timed.popNext(), ProtocolError);
}

TEST(Network, LatencyBoundsValidated) {
  EXPECT_THROW(Network(Network::Mode::Fifo, Rng(1), 5, 2), ProtocolError);
  EXPECT_THROW(Network(Network::Mode::Fifo, Rng(1), 0, 2), ProtocolError);
}

}  // namespace
}  // namespace lcdc::net
