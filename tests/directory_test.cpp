// Unit tests for the directory controller: every Section 2.3 case driven
// message-by-message, including the Appendix-B impossibilities.
#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "proto/directory.hpp"
#include "trace/trace.hpp"

namespace lcdc::proto {
namespace {

constexpr NodeId kHome = 10;
constexpr BlockId kBlk = 0;

class DirectoryTest : public testing::Test {
 protected:
  DirectoryTest() : dir(kHome, ProtoConfig{}, trace, txns) {
    dir.addBlock(kBlk, BlockValue{1, 2, 3, 4});
  }

  Message req(MsgType type, NodeId src, BlockValue data = {}) {
    Message m;
    m.type = type;
    m.block = kBlk;
    m.src = src;
    m.requester = src;
    m.data = std::move(data);
    if (type == MsgType::Writeback) {
      m.stamps = {TsStamp{src, 100}};  // the owner's pre-assigned stamp
    }
    return m;
  }

  const Message& only(const Outbox& box, std::size_t expected = 1) {
    EXPECT_EQ(box.msgs.size(), expected);
    return box.msgs.front().msg;
  }

  trace::Trace trace;
  TxnCounter txns;
  DirectoryController dir;
  Outbox out;
};

TEST_F(DirectoryTest, GetSFromIdleGoesShared) {
  dir.handle(req(MsgType::GetS, 1), out);
  const DirEntry& e = dir.entry(kBlk);
  EXPECT_EQ(e.core.state, DirState::Shared);
  EXPECT_EQ(e.core.cached, (std::vector<NodeId>{1}));
  const Message& reply = only(out);
  EXPECT_EQ(reply.type, MsgType::DataShared);
  EXPECT_EQ(out.msgs.front().dst, 1u);
  EXPECT_EQ(reply.data, (BlockValue{1, 2, 3, 4}));
  ASSERT_EQ(reply.stamps.size(), 1u);
  EXPECT_EQ(reply.stamps[0].node, kHome);
  EXPECT_EQ(reply.stamps[0].ts, 1u);  // first tick of the entry clock
}

TEST_F(DirectoryTest, GetSFromSharedAccumulatesSharers) {
  dir.handle(req(MsgType::GetS, 1), out);
  out.clear();
  dir.handle(req(MsgType::GetS, 3), out);
  dir.handle(req(MsgType::GetS, 2), out);
  EXPECT_EQ(dir.entry(kBlk).core.cached, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(dir.entry(kBlk).core.state, DirState::Shared);
}

TEST_F(DirectoryTest, GetSIsIdempotentPerSharer) {
  dir.handle(req(MsgType::GetS, 1), out);
  dir.handle(req(MsgType::GetS, 1), out);  // Put-Shared then re-request
  EXPECT_EQ(dir.entry(kBlk).core.cached, (std::vector<NodeId>{1}));
}

TEST_F(DirectoryTest, GetXFromIdleGoesExclusiveNoInvalidations) {
  dir.handle(req(MsgType::GetX, 2), out);
  const DirEntry& e = dir.entry(kBlk);
  EXPECT_EQ(e.core.state, DirState::Exclusive);
  EXPECT_EQ(e.core.cached, (std::vector<NodeId>{2}));
  const Message& reply = only(out);
  EXPECT_EQ(reply.type, MsgType::DataExclusive);
  EXPECT_TRUE(reply.invTargets.empty());
}

TEST_F(DirectoryTest, GetXFromSharedInvalidatesEverySharerButRequester) {
  dir.handle(req(MsgType::GetS, 1), out);
  dir.handle(req(MsgType::GetS, 2), out);
  dir.handle(req(MsgType::GetS, 3), out);
  out.clear();
  dir.handle(req(MsgType::GetX, 2), out);
  // Two invalidations + one data reply.
  ASSERT_EQ(out.msgs.size(), 3u);
  std::vector<NodeId> invDsts;
  const Message* reply = nullptr;
  for (const auto& e : out.msgs) {
    if (e.msg.type == MsgType::Inv) {
      invDsts.push_back(e.dst);
      EXPECT_EQ(e.msg.requester, 2u);
    } else {
      EXPECT_EQ(e.msg.type, MsgType::DataExclusive);
      reply = &e.msg;
    }
  }
  std::sort(invDsts.begin(), invDsts.end());
  EXPECT_EQ(invDsts, (std::vector<NodeId>{1, 3}));
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->invTargets.size(), 2u);
  EXPECT_EQ(dir.entry(kBlk).core.state, DirState::Exclusive);
  EXPECT_EQ(dir.entry(kBlk).core.cached, (std::vector<NodeId>{2}));
}

TEST_F(DirectoryTest, GetSFromExclusiveForwardsAndGoesBusy) {
  dir.handle(req(MsgType::GetX, 1), out);
  out.clear();
  dir.handle(req(MsgType::GetS, 2), out);
  const DirEntry& e = dir.entry(kBlk);
  EXPECT_EQ(e.core.state, DirState::BusyShared);
  EXPECT_EQ(e.core.busyRequester, 2u);
  EXPECT_EQ(e.core.cached, (std::vector<NodeId>{2}));  // owner removed
  const Message& fwd = only(out);
  EXPECT_EQ(fwd.type, MsgType::FwdGetS);
  EXPECT_EQ(out.msgs.front().dst, 1u);  // to the owner
  EXPECT_EQ(fwd.requester, 2u);
}

TEST_F(DirectoryTest, BusyStatesNackEverything) {
  dir.handle(req(MsgType::GetX, 1), out);
  dir.handle(req(MsgType::GetS, 2), out);  // -> Busy-Shared
  out.clear();

  dir.handle(req(MsgType::GetS, 3), out);  // transaction 4
  EXPECT_EQ(only(out).type, MsgType::Nack);
  EXPECT_EQ(out.msgs.front().msg.nackKind, NackKind::GetS_Busy);
  out.clear();
  dir.handle(req(MsgType::GetX, 3), out);  // transaction 8
  EXPECT_EQ(only(out).nackKind, NackKind::GetX_Busy);
  out.clear();
  dir.handle(req(MsgType::Upgrade, 3), out);  // transaction 11
  EXPECT_EQ(only(out).nackKind, NackKind::Upg_Busy);
}

TEST_F(DirectoryTest, UpdateSCompletesTransaction3) {
  dir.handle(req(MsgType::GetX, 1), out);
  dir.handle(req(MsgType::GetS, 2), out);
  out.clear();
  Message upd = req(MsgType::UpdateS, 1, BlockValue{9, 9, 9, 9});
  upd.stamps = {TsStamp{1, 42}};
  dir.handle(upd, out);
  const DirEntry& e = dir.entry(kBlk);
  EXPECT_EQ(e.core.state, DirState::Shared);
  EXPECT_EQ(e.core.cached, (std::vector<NodeId>{1, 2}));  // owner re-added
  EXPECT_EQ(e.mem, (BlockValue{9, 9, 9, 9}));
  EXPECT_TRUE(out.msgs.empty());
  // The entry clock absorbed the owner's stamp (Claim 3(b) chain).
  EXPECT_GE(e.clock, 42u);
}

TEST_F(DirectoryTest, UpgradeFromSharedSkipsData) {
  dir.handle(req(MsgType::GetS, 1), out);
  dir.handle(req(MsgType::GetS, 2), out);
  out.clear();
  dir.handle(req(MsgType::Upgrade, 1), out);
  ASSERT_EQ(out.msgs.size(), 2u);  // one Inv + the UpgradeAck
  const Message* ack = nullptr;
  for (const auto& e : out.msgs) {
    if (e.msg.type == MsgType::UpgradeAck) ack = &e.msg;
  }
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->data.empty());  // "does not need to send the block"
  EXPECT_EQ(ack->invTargets, (std::vector<NodeId>{2}));
  EXPECT_EQ(dir.entry(kBlk).core.state, DirState::Exclusive);
}

TEST_F(DirectoryTest, UpgradeAtExclusiveIsNackedToForceGetX) {
  dir.handle(req(MsgType::GetS, 1), out);
  dir.handle(req(MsgType::GetS, 2), out);
  dir.handle(req(MsgType::Upgrade, 2), out);  // 2 wins
  out.clear();
  dir.handle(req(MsgType::Upgrade, 1), out);  // 1 lost the race: case 10
  EXPECT_EQ(only(out).nackKind, NackKind::Upg_Exclusive);
  EXPECT_EQ(dir.entry(kBlk).core.state, DirState::Exclusive);
}

TEST_F(DirectoryTest, WritebackFromExclusiveGoesIdle) {
  dir.handle(req(MsgType::GetX, 1), out);
  out.clear();
  dir.handle(req(MsgType::Writeback, 1, BlockValue{7, 7, 7, 7}), out);
  const DirEntry& e = dir.entry(kBlk);
  EXPECT_EQ(e.core.state, DirState::Idle);
  EXPECT_TRUE(e.core.cached.empty());
  EXPECT_EQ(e.mem, (BlockValue{7, 7, 7, 7}));
  EXPECT_EQ(only(out).type, MsgType::WbAck);
}

TEST_F(DirectoryTest, Transaction13CombinesWritebackWithPendingGetS) {
  dir.handle(req(MsgType::GetX, 1), out);
  dir.handle(req(MsgType::GetS, 2), out);  // Busy-Shared, fwd in flight
  out.clear();
  dir.handle(req(MsgType::Writeback, 1, BlockValue{5, 5, 5, 5}), out);
  const DirEntry& e = dir.entry(kBlk);
  EXPECT_EQ(e.core.state, DirState::Shared);
  EXPECT_EQ(e.core.cached, (std::vector<NodeId>{2}));  // owner NOT re-added
  EXPECT_EQ(e.mem, (BlockValue{5, 5, 5, 5}));
  ASSERT_EQ(out.msgs.size(), 2u);
  const Message* data = nullptr;
  const Message* busyAck = nullptr;
  for (const auto& entry : out.msgs) {
    if (entry.msg.type == MsgType::DataShared) {
      EXPECT_EQ(entry.dst, 2u);
      data = &entry.msg;
    } else if (entry.msg.type == MsgType::WbBusyAck) {
      EXPECT_EQ(entry.dst, 1u);
      busyAck = &entry.msg;
    }
  }
  ASSERT_NE(data, nullptr);
  ASSERT_NE(busyAck, nullptr);
  EXPECT_EQ(data->data, (BlockValue{5, 5, 5, 5}));
  // The converted transaction keeps one id for both halves.
  EXPECT_EQ(data->txn, busyAck->txn);
  const proto::TxnInfo* txn = trace.findTxn(data->txn);
  ASSERT_NE(txn, nullptr);
  EXPECT_EQ(txn->kind, TxnKind::Wb_BusyShared);
}

TEST_F(DirectoryTest, Transaction14bAcceptsWritebackFromBusyRequester) {
  dir.handle(req(MsgType::GetX, 1), out);
  dir.handle(req(MsgType::GetX, 2), out);  // Busy-Exclusive, fwd -> 1
  out.clear();
  // Node 2 (the busy requester) already got the block from node 1 and now
  // writes it back before node 1's update arrives.
  dir.handle(req(MsgType::Writeback, 2, BlockValue{6, 6, 6, 6}), out);
  EXPECT_EQ(dir.entry(kBlk).core.state, DirState::BusyIdle);
  EXPECT_EQ(only(out).type, MsgType::WbAck);
  out.clear();
  dir.handle(req(MsgType::UpdateX, 1), out);
  EXPECT_EQ(dir.entry(kBlk).core.state, DirState::Idle);
  EXPECT_TRUE(out.msgs.empty());
}

TEST_F(DirectoryTest, AppendixBImpossibilitiesThrow) {
  // Upgrade at Idle.
  EXPECT_THROW(dir.handle(req(MsgType::Upgrade, 1), out), ProtocolError);
  // Writeback at Idle.
  EXPECT_THROW(
      dir.handle(req(MsgType::Writeback, 1, BlockValue{0, 0, 0, 0}), out),
      ProtocolError);
  // Writeback at Shared.
  dir.handle(req(MsgType::GetS, 1), out);
  EXPECT_THROW(
      dir.handle(req(MsgType::Writeback, 1, BlockValue{0, 0, 0, 0}), out),
      ProtocolError);
}

TEST_F(DirectoryTest, ForeignBlockRejected) {
  Message m = req(MsgType::GetS, 1);
  m.block = 999;
  EXPECT_THROW(dir.handle(m, out), ProtocolError);
}

TEST_F(DirectoryTest, StatsCountTransactionsAndNacks) {
  dir.handle(req(MsgType::GetS, 1), out);
  dir.handle(req(MsgType::GetX, 2), out);  // Shared -> Exclusive (txn 6)
  dir.handle(req(MsgType::GetS, 3), out);  // Exclusive -> Busy (txn 3)
  dir.handle(req(MsgType::GetS, 4), out);  // NACK (txn 4)
  const DirStats& s = dir.stats();
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.txnByKind.at(static_cast<std::uint8_t>(TxnKind::GetS_Idle)), 1u);
  EXPECT_EQ(s.txnByKind.at(static_cast<std::uint8_t>(TxnKind::GetX_Shared)),
            1u);
  EXPECT_EQ(
      s.txnByKind.at(static_cast<std::uint8_t>(TxnKind::GetS_Exclusive)), 1u);
  EXPECT_EQ(s.nackByKind.at(static_cast<std::uint8_t>(NackKind::GetS_Busy)),
            1u);
}

TEST_F(DirectoryTest, QuiescentTracksBusyPeriods) {
  EXPECT_TRUE(dir.quiescent());
  dir.handle(req(MsgType::GetX, 1), out);
  EXPECT_TRUE(dir.quiescent());
  dir.handle(req(MsgType::GetS, 2), out);
  EXPECT_FALSE(dir.quiescent());  // Busy-Shared
  Message upd = req(MsgType::UpdateS, 1, BlockValue{0, 0, 0, 0});
  dir.handle(upd, out);
  EXPECT_TRUE(dir.quiescent());
}

}  // namespace
}  // namespace lcdc::proto
