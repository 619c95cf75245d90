// Streaming (online) verification of the Section 3 claims and lemmas.
//
// Each checker here is the incremental core of one batch checker from
// checkers.hpp: it consumes protocol events as the simulator emits them,
// keeps bounded per-block/per-processor state instead of the whole trace,
// and fires Violations online.  The batch functions are thin adapters that
// replay a recorded trace (trace/replay.hpp) through these same cores, so
// every property has exactly one implementation and "streaming equals
// batch" holds by construction.
//
// Why online checking is possible at all: the Tardis-style observation
// that Lamport-clock invariants are per-event-local.  Claim 2 needs one
// previous stamp per (node, block); the epoch lemmas need each line's
// current epoch plus a short closed-epoch history; the SC replay needs one
// last-store cell per (block, word) behind a per-processor merge window —
// each processor emits its ops with monotone timestamps, so a k-way merge
// over bounded queues re-creates the global Lamport order online without
// ever sorting the whole trace.  Claim 3 is the one property whose
// witnesses (late writeback downgrades) arrive arbitrarily late, so its
// core keeps a per-block frontier of not-yet-settled transactions and
// finalizes them in serialization order.
//
// State bounds (memoryFootprint() reports the live number):
//   ProgramOrder  O(processors)            (+ TSO store-drain window)
//   Claim2        O(lines touched)          = O(nodes * blocks)
//   Claim3        O(blocks * settle window)
//   Epochs        O(lines * history cap)
//   SC replay     O(blocks * words + processors + reorder window)
//   Value chain   O(blocks * words * prune cap + live-txn window)
// None of these grows with execution length — the point of the redesign.
//
// Hot-path memory (DESIGN.md §10): node and processor ids index flat
// arrays (identical iteration order to the std::map keying they replace,
// so violation order is unchanged), and the per-transaction node
// containers — pending windows, live-transaction maps, merge queues —
// draw from a per-checker common::PoolResource.  reset() clears every
// structure in place, so a reused checker set re-runs with zero heap
// allocations once its high-water footprint is reached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clock/lamport.hpp"
#include "common/pool_allocator.hpp"
#include "common/timestamp.hpp"
#include "common/types.hpp"
#include "proto/observer.hpp"
#include "verify/checkers.hpp"

namespace lcdc::verify {

template <class T>
using PoolDeque = std::deque<T, common::PoolAllocator<T>>;
template <class K, class V>
using PoolMap =
    std::map<K, V, std::less<K>,
             common::PoolAllocator<std::pair<const K, V>>>;
template <class K, class V>
using PoolUMap =
    std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                       common::PoolAllocator<std::pair<const K, V>>>;
template <class T>
using PoolMultiset =
    std::multiset<T, std::less<T>, common::PoolAllocator<T>>;

/// A FIFO of fixed-size chunks drawn from a PoolResource.  A pooled
/// deque differs only by its node map: a deep queue's map outgrows what
/// the pool serves, and clear() leaves the map's start wherever it
/// drifted, so a rerun may reallocate the map at peak depth.  Here every
/// allocation is a chunk the pool recycles, and queues sharing a pool
/// reuse each other's chunks, so a rerun of the same stream allocates
/// nothing and the memory is that of the deque.
template <class T>
class PoolFifo {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit PoolFifo(common::PoolResource* pool) : pool_(pool) {}
  PoolFifo(const PoolFifo&) = delete;
  PoolFifo& operator=(const PoolFifo&) = delete;
  ~PoolFifo() { clear(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const T& front() const { return head_->items[headIdx_]; }
  void push_back(const T& value) {
    if (tail_ == nullptr || tailIdx_ == kPerChunk) {
      Chunk* c = ::new (pool_->allocate(sizeof(Chunk))) Chunk;
      (tail_ == nullptr ? head_ : tail_->next) = c;
      tail_ = c;
      tailIdx_ = 0;
    }
    tail_->items[tailIdx_++] = value;
    ++size_;
  }
  void pop_front() {
    if (--size_ == 0) {
      headIdx_ = 0;  // the last element was in the tail chunk: reuse it
      tailIdx_ = 0;
    } else if (++headIdx_ == kPerChunk) {
      Chunk* next = head_->next;
      pool_->deallocate(head_, sizeof(Chunk));
      head_ = next;
      headIdx_ = 0;
    }
  }
  void clear() {
    while (head_ != nullptr) {
      Chunk* next = head_->next;
      pool_->deallocate(head_, sizeof(Chunk));
      head_ = next;
    }
    tail_ = nullptr;
    headIdx_ = 0;
    tailIdx_ = 0;
    size_ = 0;
  }

 private:
  /// About 512 B per chunk, the node size of a libstdc++ deque.
  static constexpr std::size_t kPerChunk = (512 - sizeof(void*)) / sizeof(T);
  static_assert(kPerChunk > 0);
  struct Chunk {
    Chunk* next = nullptr;
    T items[kPerChunk];
  };

  common::PoolResource* pool_;
  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  std::size_t headIdx_ = 0;  ///< front() within head_
  std::size_t tailIdx_ = 0;  ///< next free slot within tail_
  std::size_t size_ = 0;
};

/// Base of every streaming checker: an observer that accumulates a
/// CheckReport.  finish() flushes state that can only be judged at
/// end-of-stream (open epochs, unsettled transactions, pending forwarded
/// loads); it is idempotent and must be called before report() is read.
class StreamChecker : public proto::ObserverAdapter {
 public:
  explicit StreamChecker(const VerifyConfig& cfg) : cfg_(cfg) {}

  virtual void finish() { finished_ = true; }
  [[nodiscard]] const CheckReport& report() const { return report_; }

  /// Rearm for a fresh stream: clears the report and all checker state in
  /// place, retaining container capacity and pooled nodes so the next run
  /// allocates nothing once the high-water footprint is reached.
  virtual void reset(const VerifyConfig& cfg) {
    cfg_ = cfg;
    report_.violations.clear();
    report_.opsChecked = 0;
    report_.txnsChecked = 0;
    report_.epochsBuilt = 0;
    finished_ = false;
  }

  /// Approximate bytes of live checker state — the bench's evidence that
  /// streaming verification is O(blocks + processors), not O(events).
  [[nodiscard]] virtual std::size_t memoryFootprint() const = 0;

 protected:
  void addViolation(std::string check, std::string detail);

  VerifyConfig cfg_;
  CheckReport report_;
  bool finished_ = false;
  /// Node pool shared by this checker's containers; outlives them all
  /// (destroyed last, constructed first).
  common::PoolResource pool_;
};

/// "The Lamport ordering of LDs and STs within any processor is
/// consistent with program order" — SC: every next op must out-timestamp
/// the previous; TSO: loads out-timestamp earlier loads, stores
/// out-timestamp every program-earlier op (store->load exempt).
class StreamProgramOrder final : public StreamChecker {
 public:
  using StreamChecker::StreamChecker;
  void onOperation(const proto::OpRecord& op) override;
  void reset(const VerifyConfig& cfg) override;
  [[nodiscard]] std::size_t memoryFootprint() const override;

 private:
  struct ScState {
    bool has = false;
    proto::OpRecord last;
  };
  /// TSO state exploits the arrival-order facts of the simulator: loads
  /// bind (and are observed) in program order; stores retire FIFO, and
  /// every program-earlier op is observed before a store retires.
  struct TsoState {
    explicit TsoState(common::PoolResource* pool)
        : pendingLoads(common::PoolAllocator<proto::OpRecord>(pool)) {}
    std::optional<proto::OpRecord> maxLoad;       ///< max-ts arrived load
    std::optional<proto::OpRecord> maxStore;      ///< max-ts arrived store
    std::optional<proto::OpRecord> maxLoadBelow;  ///< max-ts store-consumed load
    PoolDeque<proto::OpRecord> pendingLoads;  ///< arrived, no later store yet
  };
  std::vector<ScState> sc_;   ///< indexed by processor id
  std::deque<TsoState> tso_;  ///< indexed by processor id
};

/// Claim 2: per (node, block), A-state changes occur in real time in
/// serialization order, with strictly increasing stamps.
class StreamClaim2 final : public StreamChecker {
 public:
  using StreamChecker::StreamChecker;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void reset(const VerifyConfig& cfg) override;
  [[nodiscard]] std::size_t memoryFootprint() const override;

 private:
  struct Last {
    bool has = false;
    TransactionId txn = kNoTransaction;
    SerialIdx serial = 0;
    GlobalTime ts = 0;
  };
  std::vector<std::vector<Last>> last_;  ///< [node][block]
};

/// Claim 3 (a)/(b) plus the Section 3.1 structural facts.  Downgrade
/// stamps may be observed arbitrarily late (a writeback's downgrade is
/// emitted when the ack returns), so transactions wait in a per-block
/// pending window and finalize in serialization order once their stamps
/// have settled — or at finish().
class StreamClaim3 final : public StreamChecker {
 public:
  explicit StreamClaim3(const VerifyConfig& cfg);
  void onSerialize(const proto::TxnInfo& txn) override;
  void onTxnConverted(TransactionId id, TxnKind newKind) override;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void finish() override;
  void reset(const VerifyConfig& cfg) override;
  [[nodiscard]] std::size_t memoryFootprint() const override;

 private:
  struct Agg {
    GlobalTime maxDowngrade = 0;
    std::size_t downgrades = 0;
    GlobalTime upgrade = 0;
    std::size_t upgrades = 0;
  };
  struct Pending {
    proto::TxnInfo txn;
    Agg agg;
  };
  struct BlockState {
    explicit BlockState(common::PoolResource* pool)
        : pending(std::less<SerialIdx>{},
                  common::PoolAllocator<std::pair<const SerialIdx, Pending>>(
                      pool)) {}
    SerialIdx maxSerial = 0;
    GlobalTime maxUpgrade = 0;      ///< over every finalized transaction
    GlobalTime maxExclUpgrade = 0;  ///< over finalized exclusive transactions
    PoolMap<SerialIdx, Pending> pending;
  };

  BlockState& blockAt(BlockId block);
  void tryFinalize(BlockState& bs);
  void finalize(BlockState& bs, const Pending& p);

  std::deque<BlockState> blocks_;  ///< indexed by block id
  PoolUMap<TransactionId, std::pair<BlockId, SerialIdx>> live_;
};

/// Lemmas 1 and 2 (+ Claim 4): per-line epochs are built incrementally
/// from stamp arrivals; overlap pairs are checked once, when the later
/// epoch closes, against a bounded per-block closed-epoch history;
/// operations check against their line's current epoch (or its short
/// history) and park on it only when the epoch's end cannot be bounded
/// yet — which on faithful traces never happens.
class StreamEpochs final : public StreamChecker {
 public:
  using StreamChecker::StreamChecker;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void onOperation(const proto::OpRecord& op) override;
  void finish() override;
  void reset(const VerifyConfig& cfg) override;
  [[nodiscard]] std::size_t memoryFootprint() const override;

 private:
  struct Line {
    explicit Line(common::PoolResource* pool)
        : history(common::PoolAllocator<clk::Epoch>(pool)) {}
    bool sawStamp = false;
    bool hasCurrent = false;
    clk::Epoch current;
    std::vector<proto::OpRecord> parked;  ///< deferred end-of-epoch checks
    PoolDeque<clk::Epoch> history;        ///< closed epochs, newest at back
  };

  Line& lineAt(NodeId node, BlockId block);
  PoolDeque<clk::Epoch>& closedAt(BlockId block);
  [[nodiscard]] bool lemma1Relevant(const clk::Epoch& e) const;
  void closeCurrent(Line& line, GlobalTime end);
  void checkAgainstEpoch(const proto::OpRecord& op, const clk::Epoch& e,
                         bool endKnown);

  std::deque<std::deque<Line>> lines_;            ///< [node][block]
  std::deque<PoolDeque<clk::Epoch>> closedByBlock_;  ///< lemma 1, by block
  /// Max `end` ever pushed to closedByBlock_[b] — a conservative bound
  /// (cap evictions never lower it), so a new epoch starting at or after
  /// it cannot overlap anything in the history and skips the scan.
  std::vector<GlobalTime> closedMaxEnd_;
  std::vector<GlobalTime> lastStampTs_;           ///< indexed by node id
};

/// Main Theorem replay + the total-order sanity check + TSO forwarding.
/// Each processor's operations arrive with strictly increasing timestamps
/// (its Lamport clock is monotone in real time), but *across* processors
/// arrival order may disagree with Lamport order — the snooping-bus
/// companion protocol really does let a reader bind stale-epoch loads after
/// the writer's store, because its invalidations are fire-and-forget.  So
/// the replay runs behind a k-way merge: per-processor queues release the
/// globally smallest timestamp only once every processor has provably
/// advanced past it, re-creating the batch checker's sorted order online.
/// The window is as deep as the slowest processor lags (forced past
/// kScReorderCap so a finished processor cannot pin it); one last-store
/// cell per (block, word) does the rest.  Forwarded loads are judged
/// against their own processor's program-order store stream instead.
class StreamSequentialConsistency final : public StreamChecker {
 public:
  using StreamChecker::StreamChecker;
  void onOperation(const proto::OpRecord& op) override;
  void finish() override;
  void reset(const VerifyConfig& cfg) override;
  [[nodiscard]] std::size_t memoryFootprint() const override;

 private:
  struct ProcStream {
    explicit ProcStream(common::PoolResource* pool) : pending(pool) {}
    bool heard = false;     ///< emitted at least one op this stream
    Timestamp lastArrival;  ///< newest ts seen; future ops are above it
    PoolFifo<proto::OpRecord> pending;  ///< arrived, not yet merge-released
  };
  struct StoreCell {
    bool has = false;
    proto::OpRecord op;
  };
  struct FwdState {
    explicit FwdState(common::PoolResource* pool)
        : pending(common::PoolAllocator<proto::OpRecord>(pool)) {}
    bool hasStore = false;
    proto::OpRecord lastStore;           ///< youngest retired store
    PoolDeque<proto::OpRecord> pending;  ///< forwarded loads awaiting retire
  };

  ProcStream& procAt(NodeId proc);
  StoreCell& storeCellAt(BlockId block, WordIdx word);
  [[nodiscard]] const StoreCell* findStoreCell(BlockId block,
                                               WordIdx word) const;
  void judgeForwarded(const proto::OpRecord& load,
                      const proto::OpRecord* source);
  void drain(bool atEnd);
  void retire(const proto::OpRecord& op);

  std::deque<ProcStream> procs_;  ///< indexed by processor id
  std::size_t buffered_ = 0;      ///< total ops across the merge queues
  /// Sticky: every processor in [0, numProcessors) has been heard from.
  /// Monotone within a stream, so once true the per-proc heard checks in
  /// drain() are settled forever.
  bool allHeard_ = false;
  bool hasRetired_ = false;
  proto::OpRecord lastRetired_;  ///< previous op in merged (Lamport) order
  std::vector<std::vector<StoreCell>> lastStore_;  ///< [block][word]
  std::map<std::tuple<NodeId, BlockId, WordIdx>, FwdState> fwd_;
};

/// Lemma 3 at every value transfer: each received word equals the most
/// recent store in Lamport order prior to the receiving epoch's start.
/// Receipts can be observed out of epoch-start order across nodes (the
/// snooping bus does this), and a transaction's upgrade stamp itself may
/// lag its serialization arbitrarily (a snoop-delayed sharer), so the
/// prune floor tracks transactions from serialization on: a serialized
/// transaction is "live" until its judgeable value receipt, contributing
/// a per-block floor — 0 at serialization, raised to its newest downgrade
/// stamp (Claim 3(a) keeps every downgrade at or below the upgrade still
/// to come), fixed at its upgrade stamp (= its epoch start t1).  Claim
/// 3(b) plus Lemma 1 push every *future* epoch start above the per-block
/// minimum of these floors, so store history per (block, word) can be
/// pruned to the youngest store below that minimum.
class StreamValueChain final : public StreamChecker {
 public:
  explicit StreamValueChain(const VerifyConfig& cfg);
  void onSerialize(const proto::TxnInfo& txn) override;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void onOperation(const proto::OpRecord& op) override;
  void onValueReceived(NodeId node, TransactionId txn, BlockId block,
                       const BlockValue& value) override;
  void reset(const VerifyConfig& cfg) override;
  [[nodiscard]] std::size_t memoryFootprint() const override;

 private:
  struct StoreAt {
    GlobalTime global = 0;
    LocalTime local = 0;
    NodeId pid = kNoNode;
    Word value = 0;
  };
  struct NodeUpgrades {
    explicit NodeUpgrades(common::PoolResource* pool)
        : ts(std::less<TransactionId>{},
             common::PoolAllocator<std::pair<const TransactionId, GlobalTime>>(
                 pool)),
          fifo(common::PoolAllocator<TransactionId>(pool)) {}
    PoolMap<TransactionId, GlobalTime> ts;
    PoolDeque<TransactionId> fifo;  ///< eviction order, bounded
  };
  struct LiveTxn {
    BlockId block = 0;
    GlobalTime floor = 0;
    bool upgraded = false;
  };

  std::vector<StoreAt>& storesAt(BlockId block, WordIdx word);
  [[nodiscard]] std::vector<StoreAt>* findStores(BlockId block, WordIdx word);
  PoolMultiset<GlobalTime>& floorsAt(BlockId block);
  void trackLive(TransactionId txn, BlockId block, GlobalTime floor,
                 bool upgraded);
  void dropLive(TransactionId txn);
  void moveFloor(LiveTxn& t, GlobalTime ts);

  std::vector<std::vector<std::vector<StoreAt>>> stores_;  ///< [block][word]
  std::deque<NodeUpgrades> upgrades_;                      ///< by node id
  PoolUMap<TransactionId, LiveTxn> live_;
  PoolDeque<TransactionId> liveFifo_;  ///< eviction order, bounded
  std::deque<PoolMultiset<GlobalTime>> floors_;  ///< by block id
};

/// The full Section 3 suite as one pipeline stage: fans events out to the
/// six cores and merges their reports in the canonical checker order
/// (program order, Claim 2, Claim 3, epochs, SC, value chain) — the same
/// order checkAll always used, so primaryCheck() is stable across the
/// batch and streaming paths.
class StreamCheckerSet final : public proto::Observer {
 public:
  explicit StreamCheckerSet(const VerifyConfig& cfg);

  /// Flush every core.  Idempotent; report() calls it implicitly never —
  /// callers decide when the stream has ended.
  void finish();
  /// Rearm every core for a fresh stream, retaining pooled capacity — the
  /// campaign's per-worker reuse path (System::reset's counterpart).
  void reset(const VerifyConfig& cfg);
  [[nodiscard]] CheckReport report() const;
  [[nodiscard]] std::size_t memoryFootprint() const;
  [[nodiscard]] const VerifyConfig& config() const { return cfg_; }

  void onRunBegin(const SystemConfig& config) override;
  void onRunEnd(const RunResult& result) override;
  void onSerialize(const proto::TxnInfo& txn) override;
  void onTxnConverted(TransactionId id, TxnKind newKind) override;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void onValueReceived(NodeId node, TransactionId txn, BlockId block,
                       const BlockValue& value) override;
  void onOperation(const proto::OpRecord& op) override;
  void onNack(NodeId requester, BlockId block, NackKind kind) override;
  void onPutShared(NodeId node, BlockId block) override;
  void onDeadlockResolved(NodeId node, BlockId block,
                          NodeId impliedAcker) override;

 private:
  VerifyConfig cfg_;
  StreamProgramOrder programOrder_;
  StreamClaim2 claim2_;
  StreamClaim3 claim3_;
  StreamEpochs epochs_;
  StreamSequentialConsistency sc_;
  StreamValueChain valueChain_;
  std::uint64_t opsSeen_ = 0;
  std::uint64_t txnsSeen_ = 0;
  bool finished_ = false;
};

/// Run statistics observer: per-event and per-transaction-kind counters,
/// event rate, and (when watching a checker set) its peak memory
/// footprint, sampled every 4096 events.
class StatsObserver final : public proto::Observer {
 public:
  StatsObserver() = default;
  explicit StatsObserver(const StreamCheckerSet* watch) : watch_(watch) {}

  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t serializations = 0;
    std::uint64_t conversions = 0;
    std::uint64_t stamps = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t downgrades = 0;
    std::uint64_t valueTransfers = 0;
    std::uint64_t operations = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t forwardedLoads = 0;
    std::uint64_t nacks = 0;
    std::uint64_t putShareds = 0;
    std::uint64_t deadlocksResolved = 0;
    /// Serialized transactions by kind, as serialized (conversions are
    /// tallied separately in `conversions`).
    std::map<TxnKind, std::uint64_t> txnsByKind;
    std::size_t peakCheckerBytes = 0;
    bool haveConfig = false;
    SystemConfig config{};
    bool haveResult = false;
    RunResult result{};
    double seconds = 0;  ///< wall clock between onRunBegin and onRunEnd
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Multi-line human-readable summary (counters only — no wall-clock
  /// numbers, so output stays deterministic for equal event streams).
  [[nodiscard]] std::string report() const;

  void onRunBegin(const SystemConfig& config) override;
  void onRunEnd(const RunResult& result) override;
  void onSerialize(const proto::TxnInfo& txn) override;
  void onTxnConverted(TransactionId id, TxnKind newKind) override;
  void onStamp(NodeId node, TransactionId txn, SerialIdx serial, BlockId block,
               proto::StampRole role, GlobalTime ts, AState oldA,
               AState newA) override;
  void onValueReceived(NodeId node, TransactionId txn, BlockId block,
                       const BlockValue& value) override;
  void onOperation(const proto::OpRecord& op) override;
  void onNack(NodeId requester, BlockId block, NackKind kind) override;
  void onPutShared(NodeId node, BlockId block) override;
  void onDeadlockResolved(NodeId node, BlockId block,
                          NodeId impliedAcker) override;

 private:
  void noteEvent();

  Stats stats_;
  const StreamCheckerSet* watch_ = nullptr;
  std::uint64_t beginNanos_ = 0;
};

}  // namespace lcdc::verify
