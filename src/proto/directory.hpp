// The directory controller (Section 2.2/2.3).
//
// Each block has a *home* directory entry recording the block's state (one
// of the six states of Section 2.2), the CACHED set of node IDs, and —
// because the directory distributes memory — the block's storage itself.
// Transactions on a block are serialized here (Section 3.1), which is what
// makes the whole Lamport construction possible.
//
// The controller is a pure transition system: `handle` consumes one message
// and produces outgoing messages through an Outbox plus observation events
// through an EventSink.  It performs no I/O, owns no threads and reads no
// clocks, so the event-driven simulator and the explicit-state model
// checker drive the *same* code.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/timestamp.hpp"
#include "common/types.hpp"
#include "proto/events.hpp"
#include "proto/messages.hpp"

namespace lcdc::proto {

/// Outgoing-message buffer filled by the transition functions.  The inline
/// capacity covers the widest single transition (a home reply plus one
/// invalidation per other sharer), so dispatching an event allocates
/// nothing.
struct Outbox {
  struct Entry {
    NodeId dst;
    Message msg;
  };
  common::SmallVector<Entry, 8> msgs;

  void send(NodeId dst, Message msg) {
    msgs.push_back(Entry{dst, std::move(msg)});
  }
  void clear() { msgs.clear(); }
};

/// Globally shared transaction-id allocator (ids are unique across all
/// directory slices so traces are unambiguous).
struct TxnCounter {
  /// Atomic so the model checker's workers can share one counter: every
  /// copied world aliases the same counter, and the ids it hands out are
  /// canonicalized away before hashing, so only allocation uniqueness
  /// matters — not order.
  std::atomic<TransactionId> next{1};
  TransactionId allocate() { return next.fetch_add(1, std::memory_order_relaxed); }
};

/// Protocol-relevant fields of a directory entry.  This is the projection
/// the model checker hashes; simulator-only bookkeeping (clock, txn ids,
/// statistics) lives outside it.
struct DirEntryCore {
  DirState state = DirState::Idle;
  /// CACHED: sorted set of node ids (Section 2.2 semantics per state).
  NodeList cached;
  /// While Busy-*: the requester whose transaction is in progress.
  NodeId busyRequester = kNoNode;
  /// While Busy-*: the request that opened the busy period.
  ReqType busyReq{};
};

/// Full directory entry: core + memory storage + verification bookkeeping.
struct DirEntry {
  DirEntryCore core;
  BlockValue mem;

  /// This entry's logical clock (Section 3.2: "each directory entry has a
  /// global clock").
  GlobalTime clock = 0;
  /// Number of transactions serialized on this block so far.
  SerialIdx serialCount = 0;
  /// While Busy-*: identity of the in-progress transaction.
  TxnInfo busyTxn{};
  /// While Busy-Shared: the home's serialization-time stamp of the busy
  /// transaction (re-sent if the transaction completes through the home,
  /// i.e. transaction 13).
  GlobalTime busyHomeTs = 0;
  /// While Busy-*: stamps to relay to the upgrader when the transaction
  /// completes through the home (presently unused beyond the fwd itself).
  StampList busyStamps;
};

/// The A-state of a directory entry: Idle=A_X, Shared=A_S, Exclusive=A_I
/// (Section 3.1).  Only defined when the busy bit is clear; during busy
/// periods we report the pre/post states of the owning transaction.
[[nodiscard]] AState dirAState(DirState s);

/// Per-directory statistics, keyed for the Table 1 reproduction.
struct DirStats {
  std::unordered_map<std::uint8_t, std::uint64_t> txnByKind;
  std::unordered_map<std::uint8_t, std::uint64_t> nackByKind;
  std::uint64_t requests = 0;

  void merge(const DirStats& other);
};

class DirectoryController {
 public:
  /// `self` is this directory slice's node id; it owns every block with
  /// homeOf(block) == self.
  DirectoryController(NodeId self, const ProtoConfig& config, EventSink& sink,
                      TxnCounter& txns);

  /// Install a block with its initial memory value.  Must be called before
  /// any message for the block arrives.
  void addBlock(BlockId block, BlockValue initial);

  /// Process one incoming protocol message addressed to this directory.
  void handle(const Message& m, Outbox& out);

  [[nodiscard]] const DirEntry& entry(BlockId block) const;
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const DirStats& stats() const { return stats_; }

  /// True when every owned entry is non-busy (quiescence check).
  [[nodiscard]] bool quiescent() const;

  /// Return every owned entry to its addBlock() state (Idle, memory all
  /// zeroes, clock 0), in place — entry nodes and buffers are kept.
  void reset();

  // -- checkpoint access ----------------------------------------------------
  // Raw entry table for full-fidelity serialization (model checker
  // frontier blobs).  Not for protocol logic.

  [[nodiscard]] std::unordered_map<BlockId, DirEntry>& entriesRaw() {
    return entries_;
  }
  [[nodiscard]] const std::unordered_map<BlockId, DirEntry>& entriesRaw()
      const {
    return entries_;
  }

 private:
  DirEntry& entryMut(BlockId block);

  void onGetS(const Message& m, DirEntry& e, Outbox& out);
  void onGetX(const Message& m, DirEntry& e, Outbox& out);
  void onUpgrade(const Message& m, DirEntry& e, Outbox& out);
  void onWriteback(const Message& m, DirEntry& e, Outbox& out);
  void onUpdateS(const Message& m, DirEntry& e, Outbox& out);
  void onUpdateX(const Message& m, DirEntry& e, Outbox& out);

  /// Serialize a new transaction on `e`'s block.
  TxnInfo serialize(DirEntry& e, BlockId block, TxnKind kind, NodeId requester);

  /// Home assigns a downgrade stamp (plain clock increment).
  GlobalTime stampDowngrade(DirEntry& e, const TxnInfo& txn, AState oldA,
                            AState newA);
  /// Home assigns an upgrade stamp (1 + max of own clock and carried stamps).
  GlobalTime stampUpgrade(DirEntry& e, const TxnInfo& txn,
                          const StampList& carried, AState oldA, AState newA);

  void nack(const Message& m, NackKind kind, Outbox& out);

  static void cachedInsert(NodeList& cached, NodeId n);
  static void cachedErase(NodeList& cached, NodeId n);
  static bool cachedContains(const NodeList& cached, NodeId n);

  NodeId self_;
  ProtoConfig config_;
  EventSink* sink_;
  TxnCounter* txns_;
  std::unordered_map<BlockId, DirEntry> entries_;
  DirStats stats_;
};

}  // namespace lcdc::proto
