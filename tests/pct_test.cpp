// Property suite for the PCT (randomized-priority) network schedule.
//
// Pct mode delivers the highest-priority pending message next, with
// periodic change points that redraw every pending priority — the
// probabilistic concurrency-testing discipline, transplanted from thread
// schedulers to message delivery.  The properties pinned here:
//
//   * delivery is a legal permutation of what was sent — per-message-type
//     conservation, no drops, no duplicates (Section 2.1's reliability
//     guarantee holds in every mode);
//   * delivery times never go backwards (the priority heap ignores
//     deliverAt order, so the mode clamps to a monotone floor);
//   * a fixed seed gives a byte-identical run (the campaign's determinism
//     guarantee extends to fuzzed Pct cases);
//   * the mode genuinely reorders — deeper than FIFO by construction;
//   * full-system seed-equivalence pins, the same discipline the 240-cell
//     matrix applies to RandomLatency/Fifo, as a separate golden table
//     (kGolden predates this mode and must not grow).
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/schedule_probe.hpp"
#include "run_fingerprint.hpp"

namespace lcdc {
namespace {

proto::Message msg(proto::MsgType type, BlockId block) {
  proto::Message m;
  m.type = type;
  m.block = block;
  return m;
}

TEST(Pct, DeliversEverythingExactlyOnceConservingTypes) {
  net::Network net(net::Network::Mode::Pct, Rng(7), 1, 20);
  // A spread of message types, interleaved sends across several ticks.
  const proto::MsgType types[] = {proto::MsgType::GetS, proto::MsgType::GetX,
                                  proto::MsgType::Inv, proto::MsgType::Nack,
                                  proto::MsgType::DataShared};
  for (BlockId b = 0; b < 200; ++b) {
    net.send(0, 1 + b % 3, b / 10, msg(types[b % 5], b));
  }
  EXPECT_EQ(net.inFlight(), 200u);
  std::set<BlockId> seen;
  while (!net.empty()) {
    const net::Envelope env = net.popNext();
    EXPECT_TRUE(seen.insert(env.msg.block).second) << "duplicate delivery";
  }
  EXPECT_EQ(seen.size(), 200u);
  const net::NetStats& s = net.stats();
  EXPECT_EQ(s.sent, 200u);
  EXPECT_EQ(s.delivered, 200u);
  for (std::size_t t = 0; t < s.sentByType.size(); ++t) {
    EXPECT_EQ(s.sentByType[t], s.deliveredByType[t])
        << "type " << t << " not conserved";
  }
}

TEST(Pct, DeliveryTimesAreMonotone) {
  // Priorities ignore send order entirely, so the mode must clamp delivery
  // stamps to a monotone floor — otherwise simulated time would run
  // backwards when a long-starved message finally wins.
  net::Network net(net::Network::Mode::Pct, Rng(11), 1, 30);
  for (BlockId b = 0; b < 300; ++b) {
    net.send(0, 1, b, msg(proto::MsgType::GetS, b));
  }
  net::Tick prev = 0;
  while (!net.empty()) {
    const net::Envelope env = net.popNext();
    EXPECT_GE(env.deliverAt, prev) << "delivery time went backwards";
    prev = env.deliverAt;
  }
}

TEST(Pct, DeterministicForAFixedSeed) {
  const auto order = [](std::uint64_t seed) {
    net::Network net(net::Network::Mode::Pct, Rng(seed), 1, 20);
    for (BlockId b = 0; b < 150; ++b) {
      net.send(0, 1, 0, msg(proto::MsgType::GetS, b));
    }
    std::vector<BlockId> blocks;
    while (!net.empty()) blocks.push_back(net.popNext().msg.block);
    return blocks;
  };
  EXPECT_EQ(order(42), order(42));
  EXPECT_NE(order(42), order(43)) << "priority draws ignore the seed";
}

TEST(Pct, ReordersDeeperThanFifo) {
  const auto maxDepth = [](net::Network::Mode mode) {
    net::Network net(mode, Rng(5), 1, 20);
    net::ScheduleProbe probe;
    net.setProbe(&probe);
    for (BlockId b = 0; b < 200; ++b) {
      net.send(0, 1, 0, msg(proto::MsgType::GetS, b));
    }
    while (!net.empty()) (void)net.popNext();
    return probe.maxReorderDepth;
  };
  EXPECT_EQ(maxDepth(net::Network::Mode::Fifo), 0u);
  EXPECT_GT(maxDepth(net::Network::Mode::Pct), 4u)
      << "randomized priorities should overtake aggressively";
}

TEST(Pct, ChangePointsReshuffleWithinOneRun) {
  // With one fixed seed, the relative order of two messages sent back to
  // back should flip somewhere in a long run — change points redraw all
  // pending priorities, so no static priority assignment survives.
  net::Network net(net::Network::Mode::Pct, Rng(19), 1, 20);
  bool evenFirst = false;
  bool oddFirst = false;
  for (int round = 0; round < 50; ++round) {
    const BlockId base = static_cast<BlockId>(2 * round);
    net.send(0, 1, 0, msg(proto::MsgType::GetS, base));
    net.send(0, 1, 0, msg(proto::MsgType::GetS, base + 1));
    const net::Envelope first = net.popNext();
    (void)net.popNext();
    (first.msg.block % 2 == 0 ? evenFirst : oddFirst) = true;
  }
  EXPECT_TRUE(evenFirst && oddFirst)
      << "priority order never flipped across change points";
}

// -- full-system seed-equivalence pins ---------------------------------------
//
// Captured from this mode's first implementation.  Same discipline as
// kGolden in seed_equiv_test.cpp: 20 seeded sub-runs per cell, full trace
// text + outcome + NetStats + verdicts folded into one hash.  Any change to
// the Pct scheduling (priority draws, change-point cadence, floor clamping)
// flips these; re-pin only for intentional behavior changes, from the
// actual fingerprint the failing cell prints.

struct PctGoldenCell {
  workload::Kind kind;
  std::uint64_t hash;
};

const PctGoldenCell kPctGolden[] = {
    {workload::Kind::Uniform, 0xb2839f57aa3752f8ULL},
    {workload::Kind::Hot, 0xec922b872d45bcddULL},
    {workload::Kind::ProdCons, 0xe0306c618ac3ce62ULL},
    {workload::Kind::Migratory, 0xa8e3aad0fb626b86ULL},
    {workload::Kind::FalseShare, 0x3c5f087b67b4b6d7ULL},
    {workload::Kind::ReadMostly, 0x06a2b53f7542c965ULL},
};

constexpr std::uint64_t kSeedsPerCell = 20;

TEST(PctSeedEquiv, MatrixCoversEverySeedEraKind) {
  const auto cells = lcdc::testing::pctFingerprintMatrix();
  ASSERT_EQ(cells.size(), std::size(kPctGolden));
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.mode, net::Network::Mode::Pct);
    bool found = false;
    for (const auto& g : kPctGolden) found = found || g.kind == cell.kind;
    EXPECT_TRUE(found) << "cell missing from pct golden table: "
                       << workload::toString(cell.kind);
  }
}

class PctSeedEquivCell : public ::testing::TestWithParam<PctGoldenCell> {};

TEST_P(PctSeedEquivCell, ByteIdenticalToFirstImplementation) {
  const PctGoldenCell& g = GetParam();
  const lcdc::testing::MatrixCell cell{g.kind, net::Network::Mode::Pct};
  const std::uint64_t actual =
      lcdc::testing::cellFingerprint(cell, kSeedsPerCell);
  EXPECT_EQ(actual, g.hash)
      << "pct schedule diverged for kind=" << workload::toString(g.kind)
      << "; if the behavior change is intentional, pin that value: 0x"
      << std::hex << actual;
}

std::string pctCellName(const ::testing::TestParamInfo<PctGoldenCell>& i) {
  return workload::toString(i.param.kind);
}

// Prints the label instead of the raw bytes, which include the struct's
// padding and so would leak into the discovered test names.
void PrintTo(const PctGoldenCell& g, std::ostream* os) {
  *os << workload::toString(g.kind);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PctSeedEquivCell,
                         ::testing::ValuesIn(kPctGolden), pctCellName);

}  // namespace
}  // namespace lcdc
