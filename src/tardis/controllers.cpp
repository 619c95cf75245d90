#include "tardis/controllers.hpp"

#include <algorithm>
#include <string>

#include "common/expect.hpp"

namespace lcdc::tardis {

namespace {

bool sharersContain(const proto::NodeList& sharers, NodeId n) {
  return std::find(sharers.begin(), sharers.end(), n) != sharers.end();
}

void sharersInsert(proto::NodeList& sharers, NodeId n) {
  if (!sharersContain(sharers, n)) sharers.push_back(n);
}

/// A grant's reply: the block's data at the transaction's upgrade stamp.
proto::Message grantReply(proto::MsgType type, const proto::TxnInfo& txn,
                          GlobalTime u, const BlockValue& data) {
  proto::Message m;
  m.type = type;
  m.block = txn.block;
  m.requester = txn.requester;
  m.txn = txn.id;
  m.serial = txn.serial;
  m.grantTs = u;
  m.data = data;
  return m;
}

}  // namespace

void TardisStats::add(const TardisStats& o) {
  using S = TardisStats;
  for (std::uint64_t S::*f :
       {&S::txnsSerialized, &S::sharedGrants, &S::exclusiveGrants,
        &S::leaseRenewals, &S::leaseExpiries, &S::flushes,
        &S::deferredFlushes, &S::writebacks, &S::nacksSent, &S::staleWbAcks,
        &S::staleFlushDrops, &S::retriesIssued, &S::capacityEvictions}) {
    this->*f += o.*f;
  }
}

// -- home side ---------------------------------------------------------------

TardisHome::TardisHome(NodeId self, const ProtoConfig& config,
                       proto::EventSink& sink, proto::TxnCounter& txns)
    : self_(self), config_(config), sink_(&sink), txns_(&txns) {
  if (config_.leaseLength == 0) config_.leaseLength = 1;
  requireMutant(ProtocolKind::Tardis, config_.mutant);
}

void TardisHome::addBlock(BlockId block, BlockValue initial) {
  entries_[block].mem = std::move(initial);
}

void TardisHome::reset() {
  for (auto& [block, e] : entries_) {
    e = HomeEntry{};
    e.mem.assign(config_.wordsPerBlock, 0);
  }
  stats_ = TardisStats{};
}

bool TardisHome::quiescent() const {
  return std::none_of(entries_.begin(), entries_.end(), [](const auto& kv) {
    return kv.second.state == HomeState::Busy;
  });
}

void TardisHome::handle(const proto::Message& m, proto::Outbox& out) {
  const auto it = entries_.find(m.block);
  LCDC_EXPECT(it != entries_.end(), "message for unknown block");
  HomeEntry& e = it->second;
  switch (m.type) {
    case proto::MsgType::GetS:
    case proto::MsgType::Renew:
    case proto::MsgType::GetX:
      onRequest(e, m, out);
      return;
    case proto::MsgType::Writeback:
      onWriteback(e, m, out);
      return;
    case proto::MsgType::FlushData:
      onFlushData(e, m, out);
      return;
    default:
      LCDC_EXPECT(false, "unexpected message at a tardis home");
  }
}

void TardisHome::onRequest(HomeEntry& e, const proto::Message& m,
                           proto::Outbox& out) {
  const bool isGetX = m.type == proto::MsgType::GetX;
  switch (e.state) {
    case HomeState::Busy:
      sendNack(m.block, m.requester,
               isGetX ? NackKind::GetX_Busy : NackKind::GetS_Busy,
               isGetX ? ReqType::GetExclusive : ReqType::GetShared, out);
      return;
    case HomeState::Exclusive: {
      LCDC_EXPECT(e.owner != m.requester, "owner re-requesting the block");
      if (m.type == proto::MsgType::Renew) stats_.leaseRenewals += 1;
      e.state = HomeState::Busy;
      e.pendingRequester = m.requester;
      e.pendingIsGetX = isGetX;
      e.pendingReqTs = m.reqTs;
      proto::Message fr;
      fr.type = proto::MsgType::FlushReq;
      fr.block = m.block;
      fr.requester = m.requester;
      fr.grantTs = e.ownerGrantTs;
      out.send(e.owner, std::move(fr));
      return;
    }
    case HomeState::Idle:
    case HomeState::Shared:
      if (isGetX) {
        grantExclusive(e, m.block, m.requester, m.reqTs, out);
        return;
      }
      if (m.type == proto::MsgType::Renew) stats_.leaseRenewals += 1;
      grantShared(e, m.block, m.requester, m.reqTs,
                  e.state == HomeState::Idle ? TxnKind::GetS_Idle
                                             : TxnKind::GetS_Shared,
                  out);
      return;
  }
}

void TardisHome::onWriteback(HomeEntry& e, const proto::Message& m,
                             proto::Outbox& out) {
  // The epoch match (grantTs == ownerGrantTs) is load-bearing: a stale
  // flush from an earlier ownership of the SAME node can linger in flight
  // and must not close an epoch it does not name — completing a later Busy
  // period early would hand out a second exclusive copy.
  if (e.state == HomeState::Exclusive && e.owner == m.requester &&
      m.grantTs == e.ownerGrantTs) {
    const proto::TxnInfo txn =
        serializeTxn(e, m.block, TxnKind::Wb_Exclusive, m.requester);
    const GlobalTime tsD = 1 + std::max(e.hc, m.flushTs);
    emitStamp(e, m.requester, txn, proto::StampRole::Downgrade, tsD, AState::X,
              AState::I);
    // The home takes the block back at the same instant: its A_I -> A_X
    // change is the transaction's unique upgrade (Claim 3(a) holds with
    // equality, as in the bus companion).
    emitStamp(e, self_, txn, proto::StampRole::Upgrade, tsD, AState::I,
              AState::X);
    e.mem = m.data;
    e.state = HomeState::Idle;
    e.owner = kNoNode;
    e.ownerGrantTs = 0;
    sink_->onValueReceived(self_, txn.id, m.block, e.mem);
    stats_.writebacks += 1;
  } else if (e.state == HomeState::Busy && e.owner == m.requester &&
             (m.grantTs == e.ownerGrantTs ||
              config_.mutant == Mutant::CompleteStaleEpoch)) {
    // The owner's eviction raced our FlushReq; its written-back copy is the
    // flush data.  The pending transaction completes, and the later
    // FlushData resend (if any) arrives stale.
    completeBusy(e, m.block, m.flushTs, m.data, out);
  } else {
    stats_.staleWbAcks += 1;
  }
  proto::Message ack;
  ack.type = proto::MsgType::WbAck;
  ack.block = m.block;
  ack.requester = m.requester;
  out.send(m.requester, std::move(ack));
}

void TardisHome::onFlushData(HomeEntry& e, const proto::Message& m,
                             proto::Outbox& out) {
  if (e.state == HomeState::Busy && e.owner == m.requester &&
      (m.grantTs == e.ownerGrantTs ||
       config_.mutant == Mutant::CompleteStaleEpoch)) {
    completeBusy(e, m.block, m.flushTs, m.data, out);
  } else {
    // Stale: the racing Writeback got there first and completed the
    // transaction, or the flush names an earlier ownership epoch of the
    // same node (see onWriteback).
    stats_.staleFlushDrops += 1;
  }
}

void TardisHome::completeBusy(HomeEntry& e, BlockId block, GlobalTime flushTs,
                              const BlockValue& data, proto::Outbox& out) {
  const NodeId oldOwner = e.owner;
  const NodeId r = e.pendingRequester;
  const TxnKind kind =
      e.pendingIsGetX ? TxnKind::GetX_Exclusive : TxnKind::GetS_Exclusive;
  const proto::TxnInfo txn = serializeTxn(e, block, kind, r);
  const GlobalTime tsD = 1 + std::max(e.hc, flushTs);
  emitStamp(e, oldOwner, txn, proto::StampRole::Downgrade, tsD, AState::X,
            AState::I);
  // hc absorbed tsD, so the grant lands strictly above the flushed
  // owner's last write — Lemma 1's owner-to-owner handoff.
  const GlobalTime u = 1 + std::max(e.hc, e.pendingReqTs);
  e.mem = data;
  proto::Message reply =
      grantReply(e.pendingIsGetX ? proto::MsgType::DataExclusive
                                 : proto::MsgType::DataShared,
                 txn, u, e.mem);
  if (e.pendingIsGetX) {
    emitStamp(e, self_, txn, proto::StampRole::Downgrade, u, AState::I,
              AState::I);
    emitStamp(e, r, txn, proto::StampRole::Upgrade, u, AState::I, AState::X);
    e.state = HomeState::Exclusive;
    e.owner = r;
    e.ownerGrantTs = u;
    stats_.exclusiveGrants += 1;
  } else {
    emitStamp(e, self_, txn, proto::StampRole::Downgrade, u, AState::I,
              AState::S);
    emitStamp(e, r, txn, proto::StampRole::Upgrade, u, AState::I, AState::S);
    extendLease(e, u);
    e.sharers.clear();
    sharersInsert(e.sharers, r);
    e.state = HomeState::Shared;
    e.owner = kNoNode;
    e.ownerGrantTs = 0;
    reply.leaseEnd = e.rts;
    stats_.sharedGrants += 1;
  }
  e.pendingRequester = kNoNode;
  e.pendingReqTs = 0;
  out.send(r, std::move(reply));
  sink_->onValueReceived(r, txn.id, block, e.mem);
}

void TardisHome::grantShared(HomeEntry& e, BlockId block, NodeId requester,
                             GlobalTime reqTs, TxnKind kind,
                             proto::Outbox& out) {
  const proto::TxnInfo txn = serializeTxn(e, block, kind, requester);
  const GlobalTime u = 1 + std::max(e.hc, reqTs);
  emitStamp(e, self_, txn, proto::StampRole::Downgrade, u,
            e.state == HomeState::Idle ? AState::X : AState::S, AState::S);
  emitStamp(e, requester, txn, proto::StampRole::Upgrade, u,
            sharersContain(e.sharers, requester) ? AState::S : AState::I,
            AState::S);
  extendLease(e, u);
  sharersInsert(e.sharers, requester);
  e.state = HomeState::Shared;

  proto::Message reply =
      grantReply(proto::MsgType::DataShared, txn, u, e.mem);
  reply.leaseEnd = e.rts;
  out.send(requester, std::move(reply));
  sink_->onValueReceived(requester, txn.id, block, e.mem);
  stats_.sharedGrants += 1;
}

void TardisHome::grantExclusive(HomeEntry& e, BlockId block,
                                NodeId requester, GlobalTime reqTs,
                                proto::Outbox& out) {
  const bool wasSharer = sharersContain(e.sharers, requester);
  const TxnKind kind = e.state == HomeState::Idle
                           ? TxnKind::GetX_Idle
                           : (wasSharer ? TxnKind::Upg_Shared
                                        : TxnKind::GetX_Shared);
  const proto::TxnInfo txn = serializeTxn(e, block, kind, requester);
  const GlobalTime u = 1 + std::max(e.hc, reqTs);
  // Every outstanding lease ends at the frontier: the leased readers'
  // S -> I downgrades are stamped just past it.  No message is sent to
  // them — this is the invalidation-free trick, and u > rts (the bump
  // Mutant::DropLeaseBump omits) is what keeps Claim 3(a)/Lemma 1 intact.
  for (const NodeId s : e.sharers) {
    if (s == requester) continue;
    emitStamp(e, s, txn, proto::StampRole::Downgrade, e.rts + 1, AState::S,
              AState::I);
  }
  emitStamp(e, self_, txn, proto::StampRole::Downgrade, u,
            e.state == HomeState::Idle ? AState::X : AState::S, AState::I);
  emitStamp(e, requester, txn, proto::StampRole::Upgrade, u,
            wasSharer ? AState::S : AState::I, AState::X);
  e.sharers.clear();
  e.state = HomeState::Exclusive;
  e.owner = requester;
  e.ownerGrantTs = u;

  out.send(requester,
           grantReply(proto::MsgType::DataExclusive, txn, u, e.mem));
  sink_->onValueReceived(requester, txn.id, block, e.mem);
  stats_.exclusiveGrants += 1;
}

proto::TxnInfo TardisHome::serializeTxn(HomeEntry& e, BlockId block,
                                        TxnKind kind, NodeId requester) {
  proto::TxnInfo info;
  info.id = txns_->allocate();
  info.serial = ++e.serialCount;
  info.kind = kind;
  info.block = block;
  info.requester = requester;
  sink_->onSerialize(info);
  stats_.txnsSerialized += 1;
  return info;
}

void TardisHome::emitStamp(HomeEntry& e, NodeId node,
                           const proto::TxnInfo& txn, proto::StampRole role,
                           GlobalTime ts, AState oldA, AState newA) {
  sink_->onStamp(node, txn.id, txn.serial, txn.block, role, ts, oldA, newA);
  if (ts > e.hc) e.hc = ts;
}

void TardisHome::extendLease(HomeEntry& e, GlobalTime u) {
  const GlobalTime frontier = u + config_.leaseLength;
  if (frontier > e.rts) e.rts = frontier;
  // The bump: the entry clock must clear the frontier so the next
  // exclusive grant is stamped above every outstanding lease.
  if (config_.mutant != Mutant::DropLeaseBump && e.rts > e.hc) {
    e.hc = e.rts;
  }
}

void TardisHome::sendNack(BlockId block, NodeId requester, NackKind kind,
                          ReqType req, proto::Outbox& out) {
  proto::Message m;
  m.type = proto::MsgType::Nack;
  m.block = block;
  m.requester = requester;
  m.nackKind = kind;
  m.nackedReq = req;
  out.send(requester, std::move(m));
  sink_->onNack(requester, block, kind);
  stats_.nacksSent += 1;
}

// -- cache side --------------------------------------------------------------

TardisCache::TardisCache(NodeId self, const SystemConfig& config,
                         proto::EventSink& sink)
    : self_(self), config_(&config), sink_(&sink) {}

void TardisCache::reset() {
  s_ = State{};
  stats_ = TardisStats{};
}

const Line* TardisCache::line(BlockId block) const {
  const auto it = s_.lines.find(block);
  return it != s_.lines.end() ? &it->second : nullptr;
}

bool TardisCache::canBind(BlockId block, OpKind kind, GlobalTime pts) const {
  const Line* l = line(block);
  if (s_.waiting || l == nullptr) return false;
  return l->state == LineState::Exclusive ||
         (kind == OpKind::Load && l->state == LineState::SharedLease &&
          pts <= l->leaseEnd);
}

void TardisCache::bind(BlockId block, OpKind kind, WordIdx word,
                       Word storeValue, clk::OpStamper& clock,
                       std::uint64_t progIdx) {
  Line& l = s_.lines.at(block);
  const Timestamp ts = clock.stamp(l.grantTs);
  Word value = 0;
  if (kind == OpKind::Store) {
    l.data[word] = storeValue;
    value = storeValue;
  } else {
    value = l.data[word];
  }
  if (l.state == LineState::Exclusive && ts.global > l.flushTs) {
    l.flushTs = ts.global;
  }
  proto::OpRecord op;
  op.proc = self_;
  op.progIdx = progIdx;
  op.kind = kind;
  op.block = block;
  op.word = word;
  op.value = value;
  op.boundTxn = l.txn;
  op.boundSerial = l.serial;
  op.ts = ts;
  sink_->onOperation(op);
}

void TardisCache::request(BlockId block, ReqType req, GlobalTime reqTs,
                          proto::Outbox& out) {
  proto::Message m;
  m.type = req == ReqType::GetExclusive ? proto::MsgType::GetX
           : s_.lines.contains(block)   ? proto::MsgType::Renew
                                        : proto::MsgType::GetS;
  if (m.type == proto::MsgType::Renew) stats_.leaseExpiries += 1;
  m.block = block;
  m.requester = self_;
  m.reqTs = reqTs;
  out.send(home(block), std::move(m));
  s_.waiting = true;
  s_.waitBlock = block;
}

void TardisCache::evict(BlockId block, proto::Outbox& out) {
  const auto it = s_.lines.find(block);
  if (it == s_.lines.end()) return;
  const Line& l = it->second;
  if (l.state == LineState::SharedLease) {
    sink_->onPutShared(self_, block);
    s_.lines.erase(it);
    return;
  }
  proto::Message wb;
  wb.type = proto::MsgType::Writeback;
  wb.block = block;
  wb.requester = self_;
  wb.flushTs = l.flushTs;
  wb.grantTs = l.grantTs;  // names the ownership epoch this Wb closes
  wb.data = l.data;
  s_.wbPending.emplace(block, WbRecord{l.flushTs, l.grantTs, l.data});
  out.send(home(block), std::move(wb));
  s_.lines.erase(it);
}

void TardisCache::installLine(BlockId block, LineState s,
                              const proto::Message& m, proto::Outbox& out) {
  Line& l = s_.lines[block];
  l.state = s;
  l.grantTs = m.grantTs;
  l.leaseEnd = m.leaseEnd;
  l.flushTs = m.grantTs;
  l.txn = m.txn;
  l.serial = m.serial;
  l.data = m.data;
  maybeCapacityEvict(block, out);
}

void TardisCache::maybeCapacityEvict(BlockId incoming, proto::Outbox& out) {
  const std::uint32_t capacity = config_->cacheCapacity;
  if (capacity == 0 || s_.lines.size() <= capacity) return;
  // Deterministic victim: the lowest-numbered other block, leased lines
  // first (they cost nothing to drop).
  BlockId sharedVictim = kNoNode;
  BlockId anyVictim = kNoNode;
  for (const auto& [b, l] : s_.lines) {
    if (b == incoming) continue;
    if (l.state == LineState::SharedLease && b < sharedVictim) {
      sharedVictim = b;
    }
    if (b < anyVictim) anyVictim = b;
  }
  const BlockId victim = sharedVictim != kNoNode ? sharedVictim : anyVictim;
  if (victim == kNoNode) return;
  evict(victim, out);
  stats_.capacityEvictions += 1;
}

void TardisCache::sendFlushData(BlockId block, GlobalTime flushTs,
                                GlobalTime grantTs, const BlockValue& data,
                                proto::Outbox& out) {
  proto::Message fd;
  fd.type = proto::MsgType::FlushData;
  fd.block = block;
  fd.requester = self_;
  fd.flushTs = flushTs;
  fd.grantTs = grantTs;
  fd.data = data;
  out.send(home(block), std::move(fd));
  stats_.flushes += 1;
}

void TardisCache::handle(const proto::Message& m, proto::Outbox& out) {
  switch (m.type) {
    case proto::MsgType::DataShared:
      installLine(m.block, LineState::SharedLease, m, out);
      s_.waiting = false;
      // A parked FlushReq can only be stale here (it named an exclusive
      // grant; this reply is a lease): drop it.
      s_.deferredFlush.erase(m.block);
      return;
    case proto::MsgType::DataExclusive: {
      installLine(m.block, LineState::Exclusive, m, out);
      s_.waiting = false;
      const auto df = s_.deferredFlush.find(m.block);
      if (df != s_.deferredFlush.end()) {
        const bool ours = df->second == m.grantTs;
        s_.deferredFlush.erase(df);
        if (ours) {
          // The FlushReq that overtook this very grant: the home is Busy
          // waiting on us, so hand the block straight back.  No op was
          // bound, so the line's flushTs is still the grant ts.
          const auto it = s_.lines.find(m.block);
          sendFlushData(m.block, it->second.flushTs, it->second.grantTs,
                        it->second.data, out);
          s_.lines.erase(it);
          stats_.deferredFlushes += 1;
        }
      }
      return;
    }
    case proto::MsgType::Nack:
      s_.waiting = false;
      stats_.retriesIssued += 1;
      // A parked FlushReq named a grant this nacked request will never
      // receive: it was stale (a previous ownership's flush).
      s_.deferredFlush.erase(m.block);
      return;
    case proto::MsgType::FlushReq: {
      const auto it = s_.lines.find(m.block);
      // The grant-ts match is load-bearing: a stale FlushReq (its Busy
      // epoch already completed through our Writeback) can arrive after we
      // re-acquired the block, and answering it would flush the NEW line
      // while the home still records us as its owner.
      if (it != s_.lines.end() && it->second.state == LineState::Exclusive &&
          (it->second.grantTs == m.grantTs ||
           config_->proto.mutant == Mutant::FlushStaleEpoch)) {
        sendFlushData(m.block, it->second.flushTs, it->second.grantTs,
                      it->second.data, out);
        s_.lines.erase(it);
        return;
      }
      if (const auto wb = s_.wbPending.find(m.block); wb != s_.wbPending.end()) {
        // The eviction raced the flush: re-supply the written-back copy so
        // the home can complete whichever of the two reaches it first.
        sendFlushData(m.block, wb->second.flushTs, wb->second.grantTs,
                      wb->second.data, out);
        return;
      }
      if (s_.waiting && s_.waitBlock == m.block) {
        // The FlushReq raced past its own grant on the unordered network:
        // the home went Busy the instant it granted us exclusivity, and
        // its flush request beat the DataExclusive here.  Park it keyed by
        // the grant ts it names — the matching grant answers it the moment
        // it lands.  (A stale flush from a previous ownership carries an
        // older grant ts and can never match.)  Grant timestamps grow per
        // block, so of two parked FlushReqs the later-named grant is ours:
        // a stale one arriving second must not displace it, or the grant
        // lands unanswered and the Busy home waits forever (race 4).
        GlobalTime& parked = s_.deferredFlush[m.block];
        parked = config_->proto.mutant == Mutant::DisplaceParkedFlush
                     ? m.grantTs
                     : std::max(parked, m.grantTs);
        return;
      }
      // Nothing held and nothing pending: the home was already satisfied
      // through our Writeback; drop.
      return;
    }
    case proto::MsgType::WbAck:
      s_.wbPending.erase(m.block);
      return;
    default:
      LCDC_EXPECT(false, "unexpected message at a tardis processor");
  }
}

}  // namespace lcdc::tardis
