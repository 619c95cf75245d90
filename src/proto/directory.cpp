#include "proto/directory.hpp"

#include <algorithm>
#include <sstream>

#include "common/expect.hpp"

namespace lcdc::proto {

namespace {

std::string describe(const Message& m, NodeId self) {
  std::ostringstream os;
  os << "dir@" << self << " got " << toString(m.type) << " for block "
     << m.block << " from node " << m.src;
  return os.str();
}

GlobalTime maxStamp(const StampList& stamps) {
  GlobalTime best = 0;
  for (const auto& s : stamps) best = std::max(best, s.ts);
  return best;
}

}  // namespace

EventSink& nullSink() {
  static EventSink sink;
  return sink;
}

AState dirAState(DirState s) {
  switch (s) {
    case DirState::Idle: return AState::X;
    case DirState::Shared: return AState::S;
    case DirState::Exclusive: return AState::I;
    default: break;
  }
  // During busy periods the directory's A-state is in transition; callers
  // must not ask for it (Section 3.1: defined "when the busy bit is not
  // set").
  LCDC_EXPECT(false, "dirAState queried during a busy period");
}

void DirStats::merge(const DirStats& other) {
  for (const auto& [k, v] : other.txnByKind) txnByKind[k] += v;
  for (const auto& [k, v] : other.nackByKind) nackByKind[k] += v;
  requests += other.requests;
}

DirectoryController::DirectoryController(NodeId self, const ProtoConfig& config,
                                         EventSink& sink, TxnCounter& txns)
    : self_(self), config_(config), sink_(&sink), txns_(&txns) {
  if (isTardisMutant(config_.mutant)) {
    throw SimError(std::string("mutant '") + toString(config_.mutant) +
                   "' targets the tardis protocol; the directory does not "
                   "implement it");
  }
}

void DirectoryController::addBlock(BlockId block, BlockValue initial) {
  LCDC_EXPECT(!entries_.contains(block), "block added twice");
  LCDC_EXPECT(initial.size() == config_.wordsPerBlock,
              "initial value has wrong word count");
  DirEntry e;
  e.mem = std::move(initial);
  entries_.emplace(block, std::move(e));
}

const DirEntry& DirectoryController::entry(BlockId block) const {
  const auto it = entries_.find(block);
  LCDC_EXPECT(it != entries_.end(), "entry() for foreign block");
  return it->second;
}

DirEntry& DirectoryController::entryMut(BlockId block) {
  const auto it = entries_.find(block);
  LCDC_EXPECT(it != entries_.end(), "message for a block not homed here");
  return it->second;
}

bool DirectoryController::quiescent() const {
  return std::all_of(entries_.begin(), entries_.end(), [](const auto& kv) {
    const DirState s = kv.second.core.state;
    return s == DirState::Idle || s == DirState::Shared ||
           s == DirState::Exclusive;
  });
}

void DirectoryController::reset() {
  for (auto& [b, e] : entries_) {
    e.core.state = DirState::Idle;
    e.core.cached.clear();
    e.core.busyRequester = kNoNode;
    e.core.busyReq = ReqType{};
    e.mem.assign(config_.wordsPerBlock, 0);
    e.clock = 0;
    e.serialCount = 0;
    e.busyTxn = TxnInfo{};
    e.busyHomeTs = 0;
    e.busyStamps.clear();
  }
  // Zero the per-kind counters in place rather than clear(): these maps
  // are node-based, so clear+reinsert would cost one allocation per kind
  // per run.  A zero-valued entry is indistinguishable from an absent one
  // to every consumer (they look up kinds, never iterate raw).
  for (auto& [k, v] : stats_.txnByKind) v = 0;
  for (auto& [k, v] : stats_.nackByKind) v = 0;
  stats_.requests = 0;
}

void DirectoryController::handle(const Message& m, Outbox& out) {
  DirEntry& e = entryMut(m.block);
  switch (m.type) {
    case MsgType::GetS: stats_.requests++; onGetS(m, e, out); return;
    case MsgType::GetX: stats_.requests++; onGetX(m, e, out); return;
    case MsgType::Upgrade: stats_.requests++; onUpgrade(m, e, out); return;
    case MsgType::Writeback: stats_.requests++; onWriteback(m, e, out); return;
    case MsgType::UpdateS: onUpdateS(m, e, out); return;
    case MsgType::UpdateX: onUpdateX(m, e, out); return;
    default:
      LCDC_EXPECT(false, describe(m, self_) + ": not a directory message");
  }
}

TxnInfo DirectoryController::serialize(DirEntry& e, BlockId block, TxnKind kind,
                                       NodeId requester) {
  TxnInfo txn;
  txn.id = txns_->allocate();
  txn.serial = ++e.serialCount;
  txn.kind = kind;
  txn.block = block;
  txn.requester = requester;
  stats_.txnByKind[static_cast<std::uint8_t>(kind)] += 1;
  sink_->onSerialize(txn);
  return txn;
}

GlobalTime DirectoryController::stampDowngrade(DirEntry& e, const TxnInfo& txn,
                                               AState oldA, AState newA) {
  e.clock += 1;
  sink_->onStamp(self_, txn.id, txn.serial, txn.block, StampRole::Downgrade,
                 e.clock, oldA, newA);
  return e.clock;
}

GlobalTime DirectoryController::stampUpgrade(DirEntry& e, const TxnInfo& txn,
                                             const StampList& carried,
                                             AState oldA, AState newA) {
  e.clock = 1 + std::max(e.clock, maxStamp(carried));
  sink_->onStamp(self_, txn.id, txn.serial, txn.block, StampRole::Upgrade,
                 e.clock, oldA, newA);
  return e.clock;
}

void DirectoryController::nack(const Message& m, NackKind kind, Outbox& out) {
  stats_.nackByKind[static_cast<std::uint8_t>(kind)] += 1;
  sink_->onNack(m.src, m.block, kind);
  Message reply;
  reply.type = MsgType::Nack;
  reply.block = m.block;
  reply.requester = m.src;
  reply.nackKind = kind;
  reply.nackedReq = m.type == MsgType::GetS      ? ReqType::GetShared
                    : m.type == MsgType::GetX    ? ReqType::GetExclusive
                    : m.type == MsgType::Upgrade ? ReqType::Upgrade
                                                 : ReqType::Writeback;
  out.send(m.src, std::move(reply));
}

void DirectoryController::cachedInsert(NodeList& cached, NodeId n) {
  const auto it = std::lower_bound(cached.begin(), cached.end(), n);
  if (it == cached.end() || *it != n) cached.insert(it, n);
}

void DirectoryController::cachedErase(NodeList& cached, NodeId n) {
  const auto it = std::lower_bound(cached.begin(), cached.end(), n);
  if (it != cached.end() && *it == n) cached.erase(it);
}

bool DirectoryController::cachedContains(const NodeList& cached,
                                         NodeId n) {
  return std::binary_search(cached.begin(), cached.end(), n);
}

// ---------------------------------------------------------------------------
// Get-Shared (transactions 1-4)
// ---------------------------------------------------------------------------
void DirectoryController::onGetS(const Message& m, DirEntry& e, Outbox& out) {
  auto& core = e.core;
  switch (core.state) {
    case DirState::Idle: {
      // Transaction 1: clear CACHED, add requester, send block, go Shared.
      const TxnInfo txn = serialize(e, m.block, TxnKind::GetS_Idle, m.src);
      const GlobalTime ts = stampDowngrade(e, txn, AState::X, AState::S);
      core.cached.clear();
      cachedInsert(core.cached, m.src);
      core.state = DirState::Shared;
      Message reply;
      reply.type = MsgType::DataShared;
      reply.block = m.block;
      reply.requester = m.src;
      reply.txn = txn.id;
      reply.serial = txn.serial;
      reply.data = e.mem;
      reply.stamps = {TsStamp{self_, ts}};
      out.send(m.src, std::move(reply));
      return;
    }
    case DirState::Shared: {
      // Transaction 2: add requester to CACHED and send the block.
      const TxnInfo txn = serialize(e, m.block, TxnKind::GetS_Shared, m.src);
      const GlobalTime ts = stampDowngrade(e, txn, AState::S, AState::S);
      cachedInsert(core.cached, m.src);
      Message reply;
      reply.type = MsgType::DataShared;
      reply.block = m.block;
      reply.requester = m.src;
      reply.txn = txn.id;
      reply.serial = txn.serial;
      reply.data = e.mem;
      reply.stamps = {TsStamp{self_, ts}};
      out.send(m.src, std::move(reply));
      return;
    }
    case DirState::Exclusive: {
      if (config_.mutant == Mutant::StaleDataFromHome) {
        // BUG (fault injection): answer from (stale) local memory instead of
        // forwarding to the owner.  The requester is not recorded in CACHED,
        // so it will never be invalidated and keeps reading a dead value.
        const TxnInfo txn = serialize(e, m.block, TxnKind::GetS_Shared, m.src);
        const GlobalTime ts = stampDowngrade(e, txn, AState::I, AState::I);
        Message reply;
        reply.type = MsgType::DataShared;
        reply.block = m.block;
        reply.requester = m.src;
        reply.txn = txn.id;
        reply.serial = txn.serial;
        reply.data = e.mem;
        reply.stamps = {TsStamp{self_, ts}};
        out.send(m.src, std::move(reply));
        return;
      }
      // Transaction 3: go Busy-Shared and forward to the current owner, who
      // will send the block to the requester and an update to us.
      LCDC_EXPECT(core.cached.size() == 1,
                  "Exclusive entry must have exactly one owner");
      const NodeId owner = core.cached.front();
      LCDC_EXPECT(owner != m.src, "owner issued Get-Shared for its own block");
      const TxnInfo txn = serialize(e, m.block, TxnKind::GetS_Exclusive, m.src);
      // Home is affected by every Get-Shared transaction and downgrades by
      // definition (Section 3.1); its A-state here goes A_I -> A_S once the
      // update arrives.
      const GlobalTime ts = stampDowngrade(e, txn, AState::I, AState::S);
      core.state = DirState::BusyShared;
      core.busyRequester = m.src;
      core.busyReq = ReqType::GetShared;
      core.cached.clear();
      cachedInsert(core.cached, m.src);
      e.busyTxn = txn;
      e.busyHomeTs = ts;
      Message fwd;
      fwd.type = MsgType::FwdGetS;
      fwd.block = m.block;
      fwd.requester = m.src;
      fwd.txn = txn.id;
      fwd.serial = txn.serial;
      fwd.stamps = m.stamps;  // requester's pre-close stamp, if any
      fwd.stamps.push_back(TsStamp{self_, ts});
      out.send(owner, std::move(fwd));
      return;
    }
    case DirState::BusyShared:
    case DirState::BusyExclusive:
    case DirState::BusyIdle: {
      if (config_.mutant == Mutant::NoBusyNack) {
        // BUG (fault injection): serve the request from memory while a
        // transaction is in progress, without recording the requester.
        const TxnInfo txn = serialize(e, m.block, TxnKind::GetS_Shared, m.src);
        const GlobalTime ts = stampDowngrade(e, txn, AState::S, AState::S);
        Message reply;
        reply.type = MsgType::DataShared;
        reply.block = m.block;
        reply.requester = m.src;
        reply.txn = txn.id;
        reply.serial = txn.serial;
        reply.data = e.mem;
        reply.stamps = {TsStamp{self_, ts}};
        out.send(m.src, std::move(reply));
        return;
      }
      nack(m, NackKind::GetS_Busy, out);  // Transaction 4
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Get-Exclusive (transactions 5-8)
// ---------------------------------------------------------------------------
void DirectoryController::onGetX(const Message& m, DirEntry& e, Outbox& out) {
  auto& core = e.core;
  switch (core.state) {
    case DirState::Idle: {
      // Transaction 5.
      const TxnInfo txn = serialize(e, m.block, TxnKind::GetX_Idle, m.src);
      const GlobalTime ts = stampDowngrade(e, txn, AState::X, AState::I);
      core.cached.clear();
      cachedInsert(core.cached, m.src);
      core.state = DirState::Exclusive;
      Message reply;
      reply.type = MsgType::DataExclusive;
      reply.block = m.block;
      reply.requester = m.src;
      reply.txn = txn.id;
      reply.serial = txn.serial;
      reply.data = e.mem;
      reply.stamps = {TsStamp{self_, ts}};
      out.send(m.src, std::move(reply));
      return;
    }
    case DirState::Shared: {
      // Transaction 6: invalidate all sharers; requester collects the acks.
      // A requester whose own (stale, silently-evicted) id is still in
      // CACHED is excluded: self-invalidation is meaningless (DESIGN.md).
      const TxnInfo txn = serialize(e, m.block, TxnKind::GetX_Shared, m.src);
      const GlobalTime ts = stampDowngrade(e, txn, AState::S, AState::I);
      NodeList targets = core.cached;
      cachedErase(targets, m.src);
      for (const NodeId sharer : targets) {
        Message inv;
        inv.type = MsgType::Inv;
        inv.block = m.block;
        inv.requester = m.src;
        inv.txn = txn.id;
        inv.serial = txn.serial;
        out.send(sharer, std::move(inv));
      }
      core.cached.clear();
      cachedInsert(core.cached, m.src);
      core.state = DirState::Exclusive;
      Message reply;
      reply.type = MsgType::DataExclusive;
      reply.block = m.block;
      reply.requester = m.src;
      reply.txn = txn.id;
      reply.serial = txn.serial;
      reply.data = e.mem;
      reply.invTargets = std::move(targets);
      reply.stamps = {TsStamp{self_, ts}};
      out.send(m.src, std::move(reply));
      return;
    }
    case DirState::Exclusive: {
      // Transaction 7: forward to the owner; it will pass data + ownership
      // directly to the requester and send us an update.  The home's
      // A-state is A_I before and after, so the home assigns no stamp.
      LCDC_EXPECT(core.cached.size() == 1,
                  "Exclusive entry must have exactly one owner");
      const NodeId owner = core.cached.front();
      LCDC_EXPECT(owner != m.src,
                  "owner issued Get-Exclusive for a block it owns");
      const TxnInfo txn = serialize(e, m.block, TxnKind::GetX_Exclusive, m.src);
      core.state = DirState::BusyExclusive;
      core.busyRequester = m.src;
      core.busyReq = ReqType::GetExclusive;
      core.cached.clear();
      cachedInsert(core.cached, m.src);
      e.busyTxn = txn;
      Message fwd;
      fwd.type = MsgType::FwdGetX;
      fwd.block = m.block;
      fwd.requester = m.src;
      fwd.txn = txn.id;
      fwd.serial = txn.serial;
      fwd.stamps = m.stamps;  // requester's pre-close stamp, if any
      out.send(owner, std::move(fwd));
      return;
    }
    case DirState::BusyShared:
    case DirState::BusyExclusive:
    case DirState::BusyIdle:
      nack(m, NackKind::GetX_Busy, out);  // Transaction 8
      return;
  }
}

// ---------------------------------------------------------------------------
// Upgrade (transactions 9-11)
// ---------------------------------------------------------------------------
void DirectoryController::onUpgrade(const Message& m, DirEntry& e, Outbox& out) {
  auto& core = e.core;
  switch (core.state) {
    case DirState::Idle:
      // Appendix B: impossible.  An upgrader holds a read-only copy, so the
      // directory cannot believe nobody holds the block.
      LCDC_EXPECT(false, describe(m, self_) + ": Upgrade at Idle directory");
      return;
    case DirState::Shared: {
      // Transaction 9: like transaction 6 but without sending data.
      LCDC_EXPECT(cachedContains(core.cached, m.src),
                  "upgrader not recorded as a sharer");
      const TxnInfo txn = serialize(e, m.block, TxnKind::Upg_Shared, m.src);
      const GlobalTime ts = stampDowngrade(e, txn, AState::S, AState::I);
      NodeList targets = core.cached;
      cachedErase(targets, m.src);
      for (const NodeId sharer : targets) {
        Message inv;
        inv.type = MsgType::Inv;
        inv.block = m.block;
        inv.requester = m.src;
        inv.txn = txn.id;
        inv.serial = txn.serial;
        out.send(sharer, std::move(inv));
      }
      core.cached.clear();
      cachedInsert(core.cached, m.src);
      core.state = DirState::Exclusive;
      Message reply;
      reply.type = MsgType::UpgradeAck;
      reply.block = m.block;
      reply.requester = m.src;
      reply.txn = txn.id;
      reply.serial = txn.serial;
      reply.invTargets = std::move(targets);
      reply.stamps = {TsStamp{self_, ts}};
      out.send(m.src, std::move(reply));
      return;
    }
    case DirState::Exclusive:
      // Transaction 10: another writer won; an invalidation is already on
      // its way to the upgrader, which must retry with Get-Exclusive.
      LCDC_EXPECT(core.cached.size() == 1 && core.cached.front() != m.src,
                  "owner issued Upgrade for a block it owns exclusively");
      nack(m, NackKind::Upg_Exclusive, out);
      return;
    case DirState::BusyShared:
    case DirState::BusyExclusive:
    case DirState::BusyIdle:
      nack(m, NackKind::Upg_Busy, out);  // Transaction 11
      return;
  }
}

// ---------------------------------------------------------------------------
// Writeback (transactions 12-14)
// ---------------------------------------------------------------------------
void DirectoryController::onWriteback(const Message& m, DirEntry& e,
                                      Outbox& out) {
  auto& core = e.core;
  switch (core.state) {
    case DirState::Idle:
    case DirState::Shared:
      // Appendix B: impossible — a writeback implies a read-write copy
      // exists, contradicting Idle/Shared.
      LCDC_EXPECT(false,
                  describe(m, self_) + ": Writeback at " +
                      lcdc::toString(core.state) + " directory");
      return;
    case DirState::Exclusive: {
      // Transaction 12: the common case.
      LCDC_EXPECT(core.cached.size() == 1 && core.cached.front() == m.src,
                  "writeback from a node the directory does not consider "
                  "the owner");
      const TxnInfo txn = serialize(e, m.block, TxnKind::Wb_Exclusive, m.src);
      // The home upgrades (A_I -> A_X: memory becomes the valid copy).
      const GlobalTime ts =
          stampUpgrade(e, txn, m.stamps, AState::I, AState::X);
      (void)ts;
      e.mem = m.data;
      sink_->onValueReceived(self_, txn.id, m.block, e.mem);
      core.cached.clear();
      core.state = DirState::Idle;
      Message ack;
      ack.type = MsgType::WbAck;
      ack.block = m.block;
      ack.requester = m.src;
      ack.txn = txn.id;
      ack.serial = txn.serial;
      out.send(m.src, std::move(ack));
      return;
    }
    case DirState::BusyShared: {
      // Transaction 13: the writeback and our forwarded Get-Shared crossed
      // in the network.  Combine both requests: satisfy the reader from the
      // written-back data and tell the former owner to ignore the forward.
      LCDC_EXPECT(m.src != core.busyRequester,
                  "Appendix B: writeback requester cannot be in CACHED while "
                  "Busy-Shared");
      LCDC_EXPECT(core.busyReq == ReqType::GetShared,
                  "Busy-Shared entry not owned by a Get-Shared");
      const TxnInfo txn = e.busyTxn;
      TxnInfo combined = txn;
      combined.kind = TxnKind::Wb_BusyShared;
      stats_.txnByKind[static_cast<std::uint8_t>(TxnKind::GetS_Exclusive)] -= 1;
      stats_.txnByKind[static_cast<std::uint8_t>(TxnKind::Wb_BusyShared)] += 1;
      sink_->onTxnConverted(txn.id, TxnKind::Wb_BusyShared);
      // The home already assigned its downgrade stamp for this transaction
      // at serialization (a node stamps a transaction once); memory now
      // becomes the valid copy, so the entry clock absorbs the owner's
      // writeback stamp — this is what keeps Claim 3(b)'s chain intact for
      // the *next* reader served from memory (see DESIGN.md).
      if (config_.mutant != Mutant::SkipWbClockAbsorb) {
        e.clock = std::max(e.clock, maxStamp(m.stamps));
      }
      e.mem = m.data;
      sink_->onValueReceived(self_, combined.id, m.block, e.mem);
      core.state = DirState::Shared;
      // CACHED keeps only the new reader; the former owner wrote back.
      Message reply;
      reply.type = MsgType::DataShared;
      reply.block = m.block;
      reply.requester = core.busyRequester;
      reply.txn = combined.id;
      reply.serial = combined.serial;
      reply.data = e.mem;
      reply.stamps = m.stamps;  // former owner's writeback stamp
      reply.stamps.push_back(TsStamp{self_, e.busyHomeTs});
      out.send(core.busyRequester, std::move(reply));
      Message busyAck;
      busyAck.type = MsgType::WbBusyAck;
      busyAck.block = m.block;
      busyAck.requester = m.src;
      busyAck.txn = combined.id;
      busyAck.serial = combined.serial;
      out.send(m.src, std::move(busyAck));
      core.busyRequester = kNoNode;
      return;
    }
    case DirState::BusyExclusive: {
      LCDC_EXPECT(core.busyReq == ReqType::GetExclusive,
                  "Busy-Exclusive entry not owned by a Get-Exclusive");
      if (m.src != core.busyRequester) {
        // Transaction 14a: same race as 13 but the waiting requester wants
        // the block read-write.  The home answers on the owner's behalf;
        // memory does NOT become valid (entry goes Exclusive).
        const TxnInfo txn = e.busyTxn;
        TxnInfo combined = txn;
        combined.kind = TxnKind::Wb_BusyExclusive;
        stats_.txnByKind[static_cast<std::uint8_t>(TxnKind::GetX_Exclusive)] -= 1;
        stats_.txnByKind[static_cast<std::uint8_t>(TxnKind::Wb_BusyExclusive)] += 1;
        sink_->onTxnConverted(txn.id, TxnKind::Wb_BusyExclusive);
        core.state = DirState::Exclusive;
        Message reply;
        reply.type = MsgType::OwnerData;
        reply.block = m.block;
        reply.requester = core.busyRequester;
        reply.txn = combined.id;
        reply.serial = combined.serial;
        reply.data =
            config_.mutant == Mutant::StaleWbForward ? e.mem : m.data;
        reply.stamps = m.stamps;  // former owner's writeback stamp
        out.send(core.busyRequester, std::move(reply));
        Message busyAck;
        busyAck.type = MsgType::WbBusyAck;
        busyAck.block = m.block;
        busyAck.requester = m.src;
        busyAck.txn = combined.id;
        busyAck.serial = combined.serial;
        out.send(m.src, std::move(busyAck));
        core.busyRequester = kNoNode;
        return;
      }
      // Transaction 14b: the requester's writeback beat the former owner's
      // update message.  Accept the data, ack, and wait in Busy-Idle for
      // the straggling update.
      const TxnInfo txn =
          serialize(e, m.block, TxnKind::Wb_BusyExclusiveSelf, m.src);
      const GlobalTime ts =
          stampUpgrade(e, txn, m.stamps, AState::I, AState::X);
      (void)ts;
      e.mem = m.data;
      sink_->onValueReceived(self_, txn.id, m.block, e.mem);
      core.cached.clear();
      core.state = DirState::BusyIdle;
      core.busyRequester = kNoNode;
      Message ack;
      ack.type = MsgType::WbAck;
      ack.block = m.block;
      ack.requester = m.src;
      ack.txn = txn.id;
      ack.serial = txn.serial;
      out.send(m.src, std::move(ack));
      return;
    }
    case DirState::BusyIdle:
      LCDC_EXPECT(false,
                  describe(m, self_) + ": Writeback at Busy-Idle directory "
                  "(Appendix B: impossible)");
      return;
  }
}

void DirectoryController::onUpdateS(const Message& m, DirEntry& e, Outbox& out) {
  auto& core = e.core;
  LCDC_EXPECT(core.state == DirState::BusyShared,
              describe(m, self_) + ": UpdateS outside Busy-Shared");
  // Transaction 3 completes: store the block, re-include the former owner
  // in CACHED, go Shared.  Memory becomes the valid copy, so the entry
  // clock absorbs the former owner's downgrade stamp (Claim 3(b) chain).
  e.clock = std::max(e.clock, maxStamp(m.stamps));
  e.mem = m.data;
  sink_->onValueReceived(self_, e.busyTxn.id, m.block, e.mem);
  cachedInsert(core.cached, m.src);
  core.state = DirState::Shared;
  core.busyRequester = kNoNode;
}

void DirectoryController::onUpdateX(const Message& m, DirEntry& e, Outbox& out) {
  auto& core = e.core;
  if (core.state == DirState::BusyExclusive) {
    // Transaction 7 completes.
    core.state = DirState::Exclusive;
    core.busyRequester = kNoNode;
    return;
  }
  if (core.state == DirState::BusyIdle) {
    // Transaction 14b epilogue: the straggling update finally arrived.
    core.state = DirState::Idle;
    return;
  }
  LCDC_EXPECT(false, describe(m, self_) + ": UpdateX at " +
                         lcdc::toString(core.state) + " directory");
}

}  // namespace lcdc::proto
