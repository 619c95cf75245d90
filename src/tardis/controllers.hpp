// The Tardis protocol (`tardis_system.hpp`) as two controllers shaped like
// the directory protocol's: pure transition systems whose `handle` turns
// one message into sends on a `proto::Outbox`, report every stamp,
// serialization and bound operation to a `proto::EventSink`, and take
// transaction ids from a `proto::TxnCounter`.  Neither reads a clock,
// draws a random number or touches a network, so `TardisSystem` and the
// model checker (`mc/tardis_model.hpp`) drive the same code.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "clock/lamport.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "proto/directory.hpp"
#include "proto/events.hpp"
#include "proto/messages.hpp"

namespace lcdc::tardis {

/// Aggregate counters over the whole run (leases are the interesting part:
/// random traffic almost never expires a lease unless leaseLength is small).
/// Each controller counts into its own copy; `TardisSystem::stats` sums them.
struct TardisStats {
  std::uint64_t txnsSerialized = 0;
  std::uint64_t sharedGrants = 0;     ///< Get-Shared/Renew transactions
  std::uint64_t exclusiveGrants = 0;  ///< Get-Exclusive transactions
  std::uint64_t leaseRenewals = 0;    ///< of the shared grants: Renew-typed
  std::uint64_t leaseExpiries = 0;    ///< reader found its lease expired
  std::uint64_t flushes = 0;          ///< FlushReq answered with FlushData
  /// Of the flushes: the FlushReq overtook its own DataExclusive on the
  /// unordered network and was answered the moment the grant arrived.
  std::uint64_t deferredFlushes = 0;
  std::uint64_t writebacks = 0;       ///< Writeback transactions serialized
  std::uint64_t nacksSent = 0;
  std::uint64_t staleWbAcks = 0;      ///< stale writebacks acked, no txn
  std::uint64_t staleFlushDrops = 0;  ///< stale FlushData dropped
  std::uint64_t retriesIssued = 0;
  std::uint64_t capacityEvictions = 0;

  void add(const TardisStats& o);
};

enum class HomeState : std::uint8_t { Idle, Shared, Exclusive, Busy };

struct HomeEntry {
  HomeState state = HomeState::Idle;
  NodeId owner = kNoNode;  ///< Exclusive/Busy: current owner (the flusher)
  /// The owner's grant timestamp.  Carried in FlushReq so the owner can
  /// tell a flush aimed at its in-flight grant from a stale one: grant
  /// timestamps strictly increase per block, so they name the epoch.
  GlobalTime ownerGrantTs = 0;
  GlobalTime rts = 0;  ///< read-lease frontier
  GlobalTime hc = 0;   ///< entry clock; absorbs every emitted stamp
  SerialIdx serialCount = 0;
  BlockValue mem;
  /// Leased readers (bookkeeping for A-state attribution; Tardis never
  /// sends them anything — their leases simply end at rts).
  proto::NodeList sharers;
  // Busy: the single parked request the flush will satisfy.
  NodeId pendingRequester = kNoNode;
  bool pendingIsGetX = false;
  GlobalTime pendingReqTs = 0;
};

/// One home slice: serializes every transaction on the blocks it owns.
/// Throws SimError for a mutant Tardis does not implement.
class TardisHome {
 public:
  TardisHome(NodeId self, const ProtoConfig& config, proto::EventSink& sink,
             proto::TxnCounter& txns);

  void addBlock(BlockId block, BlockValue initial);
  void handle(const proto::Message& m, proto::Outbox& out);
  /// Every entry back to its addBlock() state, memory zeroed; stats
  /// cleared.
  void reset();

  [[nodiscard]] const HomeEntry& entry(BlockId block) const {
    return entries_.at(block);
  }
  /// No entry is Busy.
  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] const TardisStats& stats() const { return stats_; }
  /// For the model checker's world codec, not for protocol logic.
  [[nodiscard]] std::unordered_map<BlockId, HomeEntry>& entriesRaw() {
    return entries_;
  }

 private:
  /// GetS, Renew or GetX: grant it, NACK it while Busy, or park it and
  /// recall the block from its exclusive owner.
  void onRequest(HomeEntry& e, const proto::Message& m, proto::Outbox& out);
  void onWriteback(HomeEntry& e, const proto::Message& m, proto::Outbox& out);
  void onFlushData(HomeEntry& e, const proto::Message& m, proto::Outbox& out);
  /// Serialize the parked request once the owner's data (FlushData or a
  /// racing Writeback) reaches the home.
  void completeBusy(HomeEntry& e, BlockId block, GlobalTime flushTs,
                    const BlockValue& data, proto::Outbox& out);
  void grantShared(HomeEntry& e, BlockId block, NodeId requester,
                   GlobalTime reqTs, TxnKind kind, proto::Outbox& out);
  void grantExclusive(HomeEntry& e, BlockId block, NodeId requester,
                      GlobalTime reqTs, proto::Outbox& out);
  proto::TxnInfo serializeTxn(HomeEntry& e, BlockId block, TxnKind kind,
                              NodeId requester);
  /// Emit one stamp on the home's authority and absorb it into hc.
  void emitStamp(HomeEntry& e, NodeId node, const proto::TxnInfo& txn,
                 proto::StampRole role, GlobalTime ts, AState oldA,
                 AState newA);
  /// Extend the lease frontier past `u` and (unless Mutant::DropLeaseBump)
  /// bump hc over it so the next exclusive grant clears every lease.
  void extendLease(HomeEntry& e, GlobalTime u);
  void sendNack(BlockId block, NodeId requester, NackKind kind, ReqType req,
                proto::Outbox& out);

  NodeId self_;
  ProtoConfig config_;
  proto::EventSink* sink_;
  proto::TxnCounter* txns_;
  std::unordered_map<BlockId, HomeEntry> entries_;
  TardisStats stats_;
};

enum class LineState : std::uint8_t { Invalid, SharedLease, Exclusive };

struct Line {
  LineState state = LineState::Invalid;
  GlobalTime grantTs = 0;   ///< upgrade ts of the granting transaction
  GlobalTime leaseEnd = 0;  ///< SharedLease: rts at grant time
  GlobalTime flushTs = 0;   ///< Exclusive: running write frontier
  TransactionId txn = kNoTransaction;
  SerialIdx serial = 0;
  BlockValue data;
};

/// An evicted exclusive line whose Writeback is still un-acked; kept so a
/// racing FlushReq can be answered from it.
struct WbRecord {
  GlobalTime flushTs = 0;
  GlobalTime grantTs = 0;  ///< the evicted epoch's grant ts (what it closes)
  BlockValue data;
};

/// One processor's cache: leased and exclusive lines, pending writebacks,
/// deferred flushes, and the in-order processor's one outstanding request.
class TardisCache {
 public:
  /// Uses the config's shape (homes, cache capacity; 0 is unbounded).
  TardisCache(NodeId self, const SystemConfig& config, proto::EventSink& sink);

  /// May a `kind` op bind on `block` at processor clock `pts`?  Only with
  /// no request outstanding: an exclusive line binds anything, a leased
  /// line binds loads while pts is within its lease.
  [[nodiscard]] bool canBind(BlockId block, OpKind kind, GlobalTime pts) const;
  /// Bind one op `canBind` admits: stamp it on `clock` at the line's grant
  /// ts, apply it, raise an exclusive line's write frontier to it, and
  /// report it as the processor's operation `progIdx`.
  void bind(BlockId block, OpKind kind, WordIdx word, Word storeValue,
            clk::OpStamper& clock, std::uint64_t progIdx);
  /// Request `block` carrying the processor's clock: GetExclusive sends
  /// GetX; GetShared sends Renew when a lease is held (callers renew only
  /// an expired one) and GetS otherwise.
  void request(BlockId block, ReqType req, GlobalTime reqTs,
               proto::Outbox& out);
  /// Evict a held line: an exclusive one sends a Writeback and keeps its
  /// record until the WbAck arrives; a lease is dropped silently
  /// (Put-Shared).  Nothing happens when the line is not held.
  void evict(BlockId block, proto::Outbox& out);
  void handle(const proto::Message& m, proto::Outbox& out);
  void reset();

  /// Everything the cache holds.  Raw access is for the model checker's
  /// world codec, not for protocol logic.
  struct State {
    std::unordered_map<BlockId, Line> lines;
    std::unordered_map<BlockId, WbRecord> wbPending;
    /// FlushReqs that overtook their own DataExclusive (block -> the grant
    /// ts the FlushReq named).
    std::unordered_map<BlockId, GlobalTime> deferredFlush;
    bool waiting = false;  ///< the in-order processor's one request
    BlockId waitBlock = 0;
  };
  [[nodiscard]] const State& state() const { return s_; }
  [[nodiscard]] State& stateRaw() { return s_; }

  [[nodiscard]] const Line* line(BlockId block) const;
  [[nodiscard]] bool waiting() const { return s_.waiting; }
  [[nodiscard]] bool wbPending(BlockId block) const {
    return s_.wbPending.contains(block);
  }
  /// No request or writeback outstanding.
  [[nodiscard]] bool quiescent() const {
    return !s_.waiting && s_.wbPending.empty();
  }
  [[nodiscard]] const TardisStats& stats() const { return stats_; }

 private:
  [[nodiscard]] NodeId home(BlockId block) const {
    return config_->numProcessors +
           static_cast<NodeId>(block % config_->numDirectories);
  }
  void installLine(BlockId block, LineState s, const proto::Message& m,
                   proto::Outbox& out);
  void maybeCapacityEvict(BlockId incoming, proto::Outbox& out);
  void sendFlushData(BlockId block, GlobalTime flushTs, GlobalTime grantTs,
                     const BlockValue& data, proto::Outbox& out);

  NodeId self_;
  const SystemConfig* config_;  ///< the owner's; outlives the cache
  proto::EventSink* sink_;
  State s_;
  TardisStats stats_;
};

}  // namespace lcdc::tardis
