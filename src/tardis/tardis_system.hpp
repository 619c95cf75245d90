// Tardis timestamp-lease coherence (Yu & Devadas, arXiv 1501.04504),
// certified by the *unchanged* Lamport-clock checkers.
//
// Tardis is the strongest available generalization test for the paper's
// method: it is a directory protocol whose control decisions *read* logical
// timestamps (the paper's clocks are a pure verification device), and it
// has no invalidation fan-out at all — a writer never contacts the sharers.
// Instead:
//
//   * every block has a read-lease frontier rts at its home; a Get-Shared
//     grants a lease [u, rts] and the reader may bind loads only while its
//     own Lamport clock is within the lease (expired leases renew),
//   * an exclusive grant is timestamped *above* the lease frontier
//     (u_X >= rts + 1), so the writer's epoch starts after every
//     outstanding reader lease ends — in logical time, not physical time.
//
// That is exactly the paper's Lemma 1 disjointness, constructed rather
// than proven after the fact: sharers are "invalidated" by the passage of
// logical time.  The mapping onto the Section 3 vocabulary:
//
//   transaction     = one serialized request at the block's home
//   upgrade stamp   = the grant timestamp u = 1 + max(home clock, req ts)
//   downgrades      = home's by-definition A-state drop at u; for an
//                     exclusive grant, every leased sharer S->I at rts + 1;
//                     the flushed owner X->I at 1 + max(home clock, flushTs)
//   home clock hc   = per-entry clock absorbing every stamp it emits and
//                     (crucially) every lease frontier it hands out — the
//                     "bump" whose omission is Mutant::DropLeaseBump
//
// The home emits *all* stamps of a transaction at serialization time; the
// caches never stamp.  This is legal relativity — Section 3.2 lets any
// affected node's stamp be assigned by the serializing agent as long as
// the per-node clock discipline holds — and it keeps Claim 2's
// per-(node, block) monotonicity a one-line invariant: hc only grows.
//
// Known caveat (documented in DESIGN.md §12 and pinned by a test): lease
// renewal gives no *physical-time* progress bound.  A reader whose lease
// keeps expiring under continuous write contention re-fetches every time;
// programs of finite length always quiesce, but a hypothetical free-running
// reader could be starved of lease validity forever.  The checkers are
// indifferent — every bound load still lands inside a valid epoch.
#pragma once

#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "clock/lamport.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/run_result.hpp"
#include "net/event_loop.hpp"
#include "net/network.hpp"
#include "proto/events.hpp"
#include "proto/messages.hpp"
#include "tardis/controllers.hpp"
#include "workload/program.hpp"

namespace lcdc::tardis {

using lcdc::RunResult;

/// The full Tardis machine: processors + homes on the directory
/// simulator's event loop (`net/event_loop.hpp`: the unordered network,
/// retry timers, node numbering and observation stream are the same).
/// The protocol lives in the controllers (`controllers.hpp`); this class
/// owns what is not protocol: each processor's program walk, Lamport
/// operation stamper and NACK retry pacing (its only random draw).
class TardisSystem : public net::EventLoop<TardisSystem> {
 public:
  TardisSystem(const SystemConfig& config, proto::EventSink& sink,
               net::Network::Mode mode = net::Network::Mode::RandomLatency);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// Every controller's counters plus the processors' own, summed.
  [[nodiscard]] TardisStats stats() const;

  void setProgram(NodeId proc, const workload::Program& program);
  void setProgram(NodeId proc, workload::Program&& program);

  /// Rewind to the freshly constructed state under a new seed, in place
  /// (same RNG derivations as the constructor; container capacity kept).
  void reset(std::uint64_t seed);

  // -- manual-mode scripting (counterexample replay) -------------------------
  /// Issue a request for `block` now, bypassing the program.
  void injectRequest(NodeId proc, BlockId block, ReqType req);
  /// Evict `block` now (`TardisCache::evict`).
  void injectEvict(NodeId proc, BlockId block);
  /// Bind one op outside the program if the cache permits it now.
  bool injectBind(NodeId proc, BlockId block, OpKind kind, WordIdx word,
                  Word value);

  // -- state inspection ------------------------------------------------------
  [[nodiscard]] bool allProgramsDone() const;
  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] std::uint64_t totalOpsBound() const;
  /// The block's current read-lease frontier rts at its home.
  [[nodiscard]] GlobalTime leaseFrontier(BlockId block) const;

 private:
  friend class net::EventLoop<TardisSystem>;
  struct Proc {
    NodeId id = 0;
    clk::OpStamper stamper{0};
    Rng rng{0};
    workload::Program program;
    std::size_t pc = 0;
    std::unordered_map<BlockId, net::Tick> notBefore;
    std::uint64_t opsBound = 0;
  };

  /// Advance: bind every bindable step, issue at most one request.  Returns
  /// the wake tick when pacing a retry (net::kNever otherwise).
  net::Tick procProgress(Proc& p);
  void bindOp(Proc& p, OpKind kind, BlockId block, WordIdx word, Word value);

  void dispatch(const net::Envelope& env);
  void progress(NodeId proc);
  void describeStall(std::ostream& os) const;

  SystemConfig config_;
  Rng rng_;
  proto::TxnCounter txns_;
  std::vector<Proc> procs_;
  std::vector<TardisCache> caches_;
  std::vector<TardisHome> homes_;  ///< one per directory slice
};

}  // namespace lcdc::tardis
