// Tardis as a model for the wave engine (DESIGN.md §8, §12): the world is
// the production controllers of `tardis/controllers.hpp` — one cache per
// processor, one home at node id P owning every block — plus the shared
// in-flight bag and each processor's Lamport operation clock.  Actions
// mirror `TardisSystem`'s in-order processor; after every transition each
// processor binds a load on every line it may bind, the rule
// `mc::replayCounterexample` applies after each step, so a path and its
// replay carry the same timestamps.
//
// Tardis timestamps grow without bound, so the canonical key rebases every
// live timestamp against the state's smallest one (the protocol only adds
// constants, takes maxima and compares, so a uniform shift changes no
// transition).  Even so, blocks and processors drift apart in logical time
// and the space does not close: a run is bounded-exhaustive, exact up to
// `maxStates` / `maxDepth`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clock/lamport.hpp"
#include "mc/world.hpp"
#include "tardis/controllers.hpp"

namespace lcdc::mc {

struct TardisWorld {
  std::vector<tardis::TardisCache> caches;
  std::vector<tardis::TardisHome> homes;  ///< one, at node id numProcessors
  std::vector<Flight> flight;
  std::vector<clk::OpStamper> clocks;  ///< each processor's op stamper
};

class TardisModel {
 public:
  using World = TardisWorld;
  static constexpr bool kReductions = false;  ///< see DirectoryModel

  /// Per-worker scratch: one encoding per in-flight message.
  struct Ctx {
    Ctx(const McConfig&, proto::TxnCounter&) {}
    std::vector<std::vector<std::byte>> msgs;
  };

  /// Throws SimError for a mutant Tardis does not implement.
  TardisModel(const McConfig& cfg, proto::TxnCounter& txns);

  /// Empty caches, every home entry Idle.
  [[nodiscard]] World initial() const;

  /// Every successor action of `w`: deliver any in-flight message; a
  /// processor with no request outstanding issues GetShared on a block it
  /// does not hold or whose lease its clock has passed (a Renew), GetX on
  /// a block it does not own, or evicts a line it holds (a Writeback from
  /// Exclusive, a Put-Shared from a lease) — never on a block whose
  /// Writeback is still unacknowledged.
  template <typename Fn>
  void forEachAction(const World& w, Fn&& fn) const {
    forEachDelivery(w.flight, fn);
    for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
      const tardis::TardisCache& c = w.caches[p];
      if (c.waiting()) continue;
      for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
        if (c.wbPending(b)) continue;
        const tardis::Line* l = c.line(b);
        const bool leased =
            l != nullptr && l->state == tardis::LineState::SharedLease;
        Action a;
        a.proc = p;
        a.block = b;
        a.kind = Action::Kind::Issue;
        if (l == nullptr ||
            (leased && w.clocks[p].lastGlobal() > l->leaseEnd)) {
          a.req = ReqType::GetShared;
          fn(a);
        }
        if (l == nullptr || leased) {
          a.req = ReqType::GetExclusive;
          fn(a);
        }
        if (l != nullptr && cfg_.allowEvictions) {
          a.kind = Action::Kind::Evict;
          a.req = ReqType{};
          fn(a);
        }
      }
    }
  }

  /// Apply `a` to `s`, then let every processor bind its loads.  A
  /// controller invariant that fires throws ProtocolError.
  void apply(World& s, const Action& a) const;

  /// Single writer per block, no lease past its home's frontier, every
  /// exclusive grant above the frontier, and no definite deadlock; each
  /// finding reported as `note(isDeadlock, detail)`.
  bool check(const World& w,
             const std::function<void(bool, std::string)>& note) const;

  /// Canonical key: live timestamps rebased on the smallest, sentinels
  /// written as absent, the flight bag sorted; transaction ids, serials,
  /// data and statistics dropped.
  void encode(Ctx& c, const World& w, std::vector<std::byte>& out) const;
  /// Frontier blob: the key's layout, with absolute timestamps and the
  /// flight bag in world order (actions index it).
  void save(Ctx& c, const World& w, std::vector<std::byte>& out) const;
  /// Rebuild a world from a blob.  Malformed input throws SimError.
  [[nodiscard]] World load(Ctx& c, const std::byte* data,
                           std::size_t len) const;

 private:
  void write(Ctx& c, const World& w, std::vector<std::byte>& out,
             bool canonical) const;

  const McConfig& cfg_;
  SystemConfig sys_;  ///< the controllers' configuration
  proto::TxnCounter* txns_;
};

}  // namespace lcdc::mc
