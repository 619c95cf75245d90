// The directory protocol as a model for the wave engine (DESIGN.md §8):
// the world of `world.hpp`, its canonical key (`StateCodec`), its frontier
// blob (`WorldCodec`), the successor actions, and the per-state checks.
// Everything here is inline, so the engine's directory instance pays no
// indirect call per successor.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mc/state_codec.hpp"
#include "mc/world.hpp"
#include "mc/world_codec.hpp"

namespace lcdc::mc {

class DirectoryModel {
 public:
  using World = mc::World;
  /// Symmetry, POR and data modelling are directory features.
  static constexpr bool kReductions = true;

  /// Per-worker codecs.
  struct Ctx {
    Ctx(const McConfig& cfg, proto::TxnCounter& txns)
        : codec(cfg), wcodec(cfg, txns) {}
    StateCodec codec;
    WorldCodec wcodec;
  };

  DirectoryModel(const McConfig& cfg, proto::TxnCounter& txns)
      : cfg_(cfg), txns_(&txns) {}

  [[nodiscard]] World initial() const { return makeInitialWorld(cfg_, *txns_); }

  void encode(Ctx& c, const World& w, std::vector<std::byte>& out) const {
    c.codec.encode(w, out);
  }
  void save(Ctx& c, const World& w, std::vector<std::byte>& out) const {
    c.wcodec.save(w, out);
  }
  [[nodiscard]] World load(Ctx& c, const std::byte* data,
                           std::size_t len) const {
    return c.wcodec.load(data, len);
  }

  /// Call `fn` with every successor action of `w`, in expansion order:
  /// (a) deliver any in-flight message (the unordered network); (b) any
  /// processor issues any legal request or local eviction; (c) under
  /// modelData, a writer bumps the block's bounded version counter (word
  /// 0, mod 4) — the abstraction of "any store".  This one enumeration
  /// drives both the expansion and the stored successor bound.
  template <typename Fn>
  void forEachAction(const World& w, Fn&& fn) const {
    forEachDelivery(w.flight, fn);
    const auto local = [&](Action::Kind kind, NodeId p, BlockId b,
                           ReqType req) {
      Action a;
      a.kind = kind;
      a.proc = p;
      a.block = b;
      a.req = req;
      fn(a);
    };
    for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
      for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
        const proto::CacheController& cache = w.caches[p];
        if (cache.requestBlocked(b)) continue;
        const CacheState cs = cache.state(b);
        if (cs == CacheState::Invalid) {
          local(Action::Kind::Issue, p, b, ReqType::GetShared);
          local(Action::Kind::Issue, p, b, ReqType::GetExclusive);
        } else if (cs == CacheState::ReadOnly) {
          local(Action::Kind::Issue, p, b, ReqType::Upgrade);
          if (cfg_.allowEvictions && cfg_.proto.putSharedEnabled) {
            local(Action::Kind::Evict, p, b, ReqType{});
          }
        } else if (cfg_.allowEvictions) {
          local(Action::Kind::Evict, p, b, ReqType{});
        }
      }
    }
    if (cfg_.modelData) {
      for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
        for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
          const proto::Line* line = w.caches[p].findLine(b);
          if (line != nullptr && !line->data.empty() &&
              w.caches[p].canBind(b, OpKind::Store)) {
            local(Action::Kind::Store, p, b, ReqType{});
          }
        }
      }
    }
  }

  /// Apply one enumerated action to `s`, a copy of the expanded world.  A
  /// delivery that trips an Appendix-B invariant throws ProtocolError.
  void apply(World& s, const Action& a) const {
    proto::Outbox ob;
    switch (a.kind) {
      case Action::Kind::Deliver: {
        const Flight f = takeFlight(s.flight, a.flightIndex);
        if (f.dst >= cfg_.numProcessors) {
          s.dirs[0].handle(f.msg, ob);
        } else {
          s.caches[f.dst].handle(f.msg, ob);
        }
        absorb(s.flight, f.dst, ob);
        break;
      }
      case Action::Kind::Issue:
        s.caches[a.proc].issueRequest(a.block, a.req, cfg_.numProcessors,
                                      ob);
        absorb(s.flight, a.proc, ob);
        break;
      case Action::Kind::Evict:
        if (s.caches[a.proc].state(a.block) == CacheState::ReadOnly) {
          s.caches[a.proc].putShared(a.block);
        } else {
          s.caches[a.proc].writeback(a.block, cfg_.numProcessors, ob);
          absorb(s.flight, a.proc, ob);
        }
        break;
      case Action::Kind::Store: {
        proto::CacheController& cache = s.caches[a.proc];
        const Word v = (cache.findLine(a.block)->data[0] + 1) & 3;
        (void)cache.bind(a.block, OpKind::Store, 0, v);
        break;
      }
    }
  }

  /// Per-state safety checks: SWMR, value coherence (modelData), definite
  /// deadlock, each finding reported as `note(isDeadlock, detail)`.
  /// Returns true when this state itself violated an invariant (its
  /// successors are then not generated).
  template <typename Note>
  bool check(const World& w, Note&& note) const {
    bool violating = false;
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      NodeId writer = kNoNode;
      std::uint32_t readers = 0;
      for (const auto& cache : w.caches) {
        const proto::Line* line = cache.findLine(b);
        if (line == nullptr) continue;
        if (line->cstate == CacheState::ReadWrite) {
          if (writer != kNoNode) {
            std::ostringstream os;
            os << "SWMR violated on block " << b << ": nodes " << writer
               << " and " << cache.self() << " both read-write";
            note(false, os.str());
            violating = true;
          }
          writer = cache.self();
        } else if (line->cstate == CacheState::ReadOnly) {
          readers += 1;
        }
      }
      if (writer != kNoNode && readers > 0) {
        std::ostringstream os;
        os << "SWMR violated on block " << b << ": node " << writer
           << " is read-write while " << readers << " reader(s) persist";
        note(false, os.str());
        violating = true;
      }
    }
    if (cfg_.modelData && checkValues(w, note)) violating = true;
    // Definite deadlock: requests outstanding but nothing in flight and no
    // local action can produce the awaited reply.
    if (w.flight.empty()) {
      for (const auto& cache : w.caches) {
        if (cache.quiescent()) continue;
        for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
          const proto::Line* line = cache.findLine(b);
          if (line != nullptr && line->mshr.has_value()) {
            std::ostringstream os;
            os << "deadlock: node " << cache.self() << " waiting on block "
               << b << " with no messages in flight";
            note(true, os.str());
          }
        }
      }
    }
    return violating;
  }

 private:
  /// Value coherence of settled blocks (modelData): once a block has no
  /// in-flight message, no open MSHR and no pending drop bookkeeping, all
  /// live cached copies — plus home memory unless the directory is
  /// Exclusive — must hold the same word-0 value.
  template <typename Note>
  bool checkValues(const World& w, Note& note) const {
    bool violating = false;
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      const proto::DirEntry& e = w.dirs[0].entry(b);
      if (e.core.state != DirState::Idle && e.core.state != DirState::Shared &&
          e.core.state != DirState::Exclusive) {
        continue;  // mid-transaction
      }
      bool settled = true;
      for (const Flight& f : w.flight) {
        if (f.msg.block == b) settled = false;
      }
      for (const auto& cache : w.caches) {
        const proto::Line* line = cache.findLine(b);
        if (line != nullptr &&
            (line->mshr.has_value() ||
             line->ignoreFwdTxn != kNoTransaction ||
             line->dropInvTxn != kNoTransaction)) {
          settled = false;
        }
      }
      if (!settled) continue;
      std::optional<Word> ref;
      if (e.core.state != DirState::Exclusive && !e.mem.empty()) {
        ref = e.mem[0];
      }
      for (const auto& cache : w.caches) {
        const proto::Line* line = cache.findLine(b);
        if (line == nullptr || line->cstate == CacheState::Invalid ||
            line->data.empty()) {
          continue;
        }
        if (ref.has_value() && line->data[0] != *ref) {
          std::ostringstream os;
          os << "value coherence violated on block " << b << ": node "
             << cache.self() << " holds " << line->data[0]
             << " but the settled value is " << *ref;
          note(false, os.str());
          violating = true;
        }
        if (!ref.has_value()) ref = line->data[0];
      }
    }
    return violating;
  }

  const McConfig& cfg_;
  proto::TxnCounter* txns_;
};

}  // namespace lcdc::mc
