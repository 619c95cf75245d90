// A simulated in-order processor (Section 2.4 behaviour requirements).
//
// The processor walks its program in order.  For each step it either binds
// the operation immediately (permission in cache), or issues the coherence
// request that will grant permission and stalls until that transaction
// completes.  Binding happens synchronously inside the cache's completion
// callback — before buffered invalidations are applied — implementing the
// rule that "upon completion of T, OP is bound to T, even if an
// invalidation arrived in the meantime".  Because binding is strictly in
// program order in real time, the 4th-bullet requirement of Section 2.4
// holds by construction.
//
// NACKed requests are retried after a configurable (jittered) delay; the
// retried request "takes into account the current state of the block" — in
// particular an Upgrade NACKed because the line got invalidated retries as
// a Get-Exclusive (transaction 10's required behaviour).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "clock/lamport.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "proto/cache.hpp"
#include "workload/program.hpp"

namespace lcdc::sim {

/// Per-processor statistics.
struct ProcStats {
  std::uint64_t loadsBound = 0;
  std::uint64_t storesBound = 0;
  std::uint64_t retriesIssued = 0;
  std::uint64_t capacityEvictions = 0;
  std::uint64_t prefetchesIssued = 0;
  std::uint64_t loadsForwarded = 0;
  /// Longest run of consecutive NACKs for a single block before the
  /// request finally completed — a starvation indicator (Section 5 future
  /// work: reasoning about starvation in NACK-based protocols).
  std::uint64_t maxNackStreak = 0;
};

class Processor final : public proto::CacheClient {
 public:
  Processor(NodeId id, const SystemConfig& config, proto::EventSink& sink,
            Rng rng);

  /// Copy-assigns into the retained program buffer: a reused processor
  /// re-running programs of similar length allocates nothing here.
  void setProgram(const workload::Program& program);
  void setProgram(workload::Program&& program);

  /// Return to the freshly constructed state with a new RNG stream, in
  /// place: caches, pacing state, and the store buffer revert, but every
  /// container keeps its capacity so a reused processor runs alloc-free.
  void reset(Rng rng);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] bool done() const {
    return pc_ >= program_.steps.size() && storeBuffer_.empty();
  }
  [[nodiscard]] std::size_t pc() const { return pc_; }
  [[nodiscard]] proto::CacheController& cache() { return cache_; }
  [[nodiscard]] const proto::CacheController& cache() const { return cache_; }
  [[nodiscard]] const ProcStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t opsBound() const {
    return stats_.loadsBound + stats_.storesBound;
  }

  /// Deliver a protocol message to this node's cache.
  void deliver(const proto::Message& m, proto::Outbox& out);

  /// Bind one operation outside any program (MC counterexample replay).
  /// Op indices continue from the operations bound so far; false when the
  /// cache has no permission.
  bool bindDirect(BlockId block, OpKind kind, WordIdx word, Word value);

  /// Advance: bind every immediately bindable step and issue at most the
  /// request needed by the current step.  `now` is the simulated time (for
  /// retry pacing).  Returns the tick at which the processor wants to be
  /// woken if it is pacing a retry (kNever otherwise).
  net::Tick tryProgress(net::Tick now, proto::Outbox& out);

  // -- proto::CacheClient ----------------------------------------------------
  void onComplete(BlockId block, ReqType req) override;
  void onNacked(BlockId block, ReqType req, NackKind kind) override;
  void onLineUnblocked(BlockId block) override;

 private:
  /// A store parked in the TSO store buffer, waiting to retire.
  struct BufferedStore {
    BlockId block;
    WordIdx word;
    Word value;
    std::uint64_t progIdx;
  };

  /// Bind program steps while the cache allows it (no messages involved).
  /// In TSO mode this also enqueues stores into the store buffer and
  /// forwards loads from it.
  void bindEligible();
  /// Retire store-buffer entries (oldest first) whose lines are writable.
  /// No messages involved — callable from completion callbacks, which is
  /// what preserves the Section 2.4 bind-at-completion rule for buffered
  /// stores.
  void drainStoreBufferBinds();
  /// Issue the coherence request the store-buffer head needs, if any.
  /// Returns the wake tick when pacing a retry.
  net::Tick progressStoreBuffer(net::Tick now, proto::Outbox& out);
  /// The program-counter walk of tryProgress (evictions, prefetches, and
  /// the request needed by the current step).
  net::Tick progressProgram(net::Tick now, proto::Outbox& out);
  void emitOp(OpKind kind, BlockId block, WordIdx word, Word value,
              std::uint64_t progIdx, const proto::BindResult& bound,
              bool forwarded);
  void maybeCapacityEvict(BlockId incoming, proto::Outbox& out);

  NodeId id_;
  SystemConfig config_;
  proto::EventSink* sink_;
  proto::CacheController cache_;
  clk::OpStamper stamper_;
  Rng rng_;
  workload::Program program_;
  std::size_t pc_ = 0;
  ProcStats stats_;
  /// Per-block earliest next request time (retry pacing after a NACK).
  std::unordered_map<BlockId, net::Tick> notBefore_;
  /// Set when a NACK asked us to retry (so tryProgress re-issues).
  bool wantRetry_ = false;
  /// NACK bookkeeping captured in the callback, applied by tryProgress
  /// (which knows the simulated time).
  std::optional<BlockId> nackedBlock_;
  net::Tick pendingDelay_ = 0;
  /// TSO store buffer (empty/unused when config.storeBufferDepth == 0).
  std::deque<BufferedStore> storeBuffer_;
  /// Consecutive NACKs per block (starvation tracking).
  std::unordered_map<BlockId, std::uint64_t> nackStreak_;
};

/// Home-node map: blocks are interleaved across directory nodes, which are
/// numbered after the processors (processor ids 0..P-1, directory ids
/// P..P+D-1).  Keeping the id spaces disjoint keeps each directory entry's
/// logical clock distinct from any processor clock, as Section 3.2
/// prescribes.
[[nodiscard]] inline NodeId homeOf(BlockId block, const SystemConfig& cfg) {
  return cfg.numProcessors + static_cast<NodeId>(block % cfg.numDirectories);
}

}  // namespace lcdc::sim
