#include "mc/tardis_model.hpp"

#include <algorithm>
#include <string>

#include "common/expect.hpp"
#include "trace/codec.hpp"

namespace lcdc::mc {

namespace {

using tardis::HomeState;
using tardis::LineState;
using trace::codec::putU64;
using Reader = trace::codec::Reader;

/// One message's fields in layout order: `u` gets plain values, `ts` the
/// timestamps the receiving controller reads.
template <typename F, typename U, typename T>
void walkMsg(F& f, U&& u, T&& ts) {
  auto& m = f.msg;
  u(f.dst);
  u(static_cast<std::uint64_t>(m.type));
  u(m.block);
  u(m.requester);
  switch (m.type) {
    case proto::MsgType::GetS:
    case proto::MsgType::GetX:
    case proto::MsgType::Renew:
      ts(m.reqTs);
      break;
    case proto::MsgType::DataShared:
      ts(m.grantTs);
      ts(m.leaseEnd);
      break;
    case proto::MsgType::DataExclusive:
    case proto::MsgType::FlushReq:
      ts(m.grantTs);
      break;
    case proto::MsgType::Writeback:
    case proto::MsgType::FlushData:
      ts(m.flushTs);
      ts(m.grantTs);
      break;
    default:  // Nack, WbAck
      break;
  }
}

/// Every field but the flight bag, in layout order.  A timestamp is
/// walked only while live: an absent line, writeback record or deferred
/// flush writes a 0 flag, and an owner or parked request only exists in
/// the home states that have one.
template <typename U, typename T>
void walkState(const TardisWorld& w, BlockId blocks, U&& u, T&& ts) {
  for (std::size_t p = 0; p < w.caches.size(); ++p) {
    const tardis::TardisCache& c = w.caches[p];
    ts(w.clocks[p].lastGlobal());
    u(c.waiting() ? 1 + std::uint64_t{c.state().waitBlock} : 0);
    for (BlockId b = 0; b < blocks; ++b) {
      if (const tardis::Line* l = c.line(b); l == nullptr) {
        u(0);
      } else if (l->state == LineState::SharedLease) {
        u(1);
        ts(l->grantTs);
        ts(l->leaseEnd);
      } else {
        u(2);
        ts(l->grantTs);
        ts(l->flushTs);
      }
      const auto& st = c.state();
      const auto wb = st.wbPending.find(b);
      u(wb != st.wbPending.end() ? 1 : 0);
      if (wb != st.wbPending.end()) {
        ts(wb->second.flushTs);
        ts(wb->second.grantTs);
      }
      const auto df = st.deferredFlush.find(b);
      u(df != st.deferredFlush.end() ? 1 : 0);
      if (df != st.deferredFlush.end()) ts(df->second);
    }
  }
  for (BlockId b = 0; b < blocks; ++b) {
    const tardis::HomeEntry& e = w.homes[0].entry(b);
    u(static_cast<std::uint64_t>(e.state));
    ts(e.rts);
    ts(e.hc);
    std::uint64_t sharers = 0;
    for (const NodeId s : e.sharers) sharers |= std::uint64_t{1} << s;
    u(sharers);
    if (e.state == HomeState::Exclusive || e.state == HomeState::Busy) {
      u(e.owner);
      ts(e.ownerGrantTs);
    }
    if (e.state == HomeState::Busy) {
      u(e.pendingRequester);
      u(e.pendingIsGetX ? 1 : 0);
      ts(e.pendingReqTs);
    }
  }
}

[[noreturn]] void malformed(const char* what) {
  throw SimError(std::string("malformed tardis world blob: ") + what);
}

}  // namespace

TardisModel::TardisModel(const McConfig& cfg, proto::TxnCounter& txns)
    : cfg_(cfg),
      sys_{.proto = cfg.proto,
           .numProcessors = cfg.numProcessors,
           .numDirectories = 1,
           .numBlocks = cfg.numBlocks},
      txns_(&txns) {
  if (cfg.numProcessors > 64) {
    throw SimError("the tardis model checks at most 64 processors");
  }
  (void)initial();  // builds a home, which refuses a mutant Tardis lacks
}

TardisModel::World TardisModel::initial() const {
  World w;
  for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
    w.caches.emplace_back(p, sys_, proto::nullSink());
    w.clocks.emplace_back(p);
  }
  w.homes.emplace_back(cfg_.numProcessors, sys_.proto, proto::nullSink(),
                       *txns_);
  for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
    w.homes[0].addBlock(b, BlockValue(sys_.proto.wordsPerBlock, 0));
  }
  return w;
}

void TardisModel::apply(World& s, const Action& a) const {
  proto::Outbox ob;
  NodeId src = a.proc;
  switch (a.kind) {
    case Action::Kind::Deliver: {
      const Flight f = takeFlight(s.flight, a.flightIndex);
      src = f.dst;
      if (f.dst >= cfg_.numProcessors) {
        s.homes[0].handle(f.msg, ob);
      } else {
        s.caches[f.dst].handle(f.msg, ob);
      }
      break;
    }
    case Action::Kind::Issue:
      s.caches[a.proc].request(a.block, a.req,
                               s.clocks[a.proc].lastGlobal(), ob);
      break;
    case Action::Kind::Evict:
      s.caches[a.proc].evict(a.block, ob);
      break;
    case Action::Kind::Store:
      LCDC_EXPECT(false, "the tardis model has no store action");
  }
  absorb(s.flight, src, ob);
  for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      if (s.caches[p].canBind(b, OpKind::Load, s.clocks[p].lastGlobal())) {
        s.caches[p].bind(b, OpKind::Load, 0, 0, s.clocks[p], 0);
      }
    }
  }
}

bool TardisModel::check(
    const World& w,
    const std::function<void(bool, std::string)>& note) const {
  // Timestamps appear as distances, never absolute values: the absolute
  // times of a state depend on which of its shifted copies was stored.
  using std::to_string;
  bool violating = false;
  const auto violation = [&](const std::string& detail) {
    note(false, detail);
    violating = true;
  };
  for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
    const tardis::HomeEntry& e = w.homes[0].entry(b);
    NodeId writer = kNoNode;
    for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
      const tardis::Line* l = w.caches[p].line(b);
      if (l == nullptr) continue;
      if (l->state == LineState::Exclusive && writer != kNoNode) {
        violation("two exclusive owners on block " + to_string(b) +
                  ": nodes " + to_string(writer) + " and " + to_string(p));
      } else if (l->state == LineState::SharedLease && l->leaseEnd > e.rts) {
        violation("node " + to_string(p) + " holds a lease on block " +
                  to_string(b) + " beyond the home frontier (leaseEnd = rts + " +
                  to_string(l->leaseEnd - e.rts) + ")");
      }
      if (l->state == LineState::Exclusive) writer = p;
    }
    if ((e.state == HomeState::Exclusive || e.state == HomeState::Busy) &&
        e.ownerGrantTs <= e.rts) {
      violation("exclusive grant below the lease frontier on block " +
                to_string(b) + ": owner " + to_string(e.owner) +
                "'s grant ts = rts - " + to_string(e.rts - e.ownerGrantTs) +
                " — outstanding read leases overlap the new writer's epoch");
    }
  }
  if (w.flight.empty() &&
      (!w.homes[0].quiescent() ||
       std::any_of(w.caches.begin(), w.caches.end(),
                   [](const tardis::TardisCache& c) {
                     return !c.quiescent();
                   }))) {
    note(true,
         "deadlock: no message in flight, yet a request, writeback or busy "
         "home is outstanding");
  }
  return violating;
}

void TardisModel::write(Ctx& c, const World& w, std::vector<std::byte>& out,
                        bool canonical) const {
  GlobalTime base = 0;
  if (canonical) {
    base = ~GlobalTime{0};
    const auto skip = [](std::uint64_t) {};
    const auto low = [&base](GlobalTime t) { base = std::min(base, t); };
    walkState(w, cfg_.numBlocks, skip, low);
    for (const Flight& f : w.flight) walkMsg(f, skip, low);
  }
  const auto plain = [](std::vector<std::byte>& o) {
    return [&o](std::uint64_t v) { putU64(o, v); };
  };
  const auto shifted = [base](std::vector<std::byte>& o) {
    return [&o, base](GlobalTime t) { putU64(o, t - base); };
  };
  out.clear();
  walkState(w, cfg_.numBlocks, plain(out), shifted(out));
  putU64(out, w.flight.size());
  // Each message is self-delimiting; the key sorts them into a multiset.
  c.msgs.resize(w.flight.size());
  for (std::size_t i = 0; i < w.flight.size(); ++i) {
    c.msgs[i].clear();
    walkMsg(w.flight[i], plain(c.msgs[i]), shifted(c.msgs[i]));
  }
  if (canonical) std::sort(c.msgs.begin(), c.msgs.end());
  for (const std::vector<std::byte>& m : c.msgs) {
    out.insert(out.end(), m.begin(), m.end());
  }
}

void TardisModel::encode(Ctx& c, const World& w,
                         std::vector<std::byte>& out) const {
  write(c, w, out, true);
}

void TardisModel::save(Ctx& c, const World& w,
                       std::vector<std::byte>& out) const {
  write(c, w, out, false);
}

TardisModel::World TardisModel::load(Ctx&, const std::byte* data,
                                     std::size_t len) const {
  Reader r{data, len};
  const auto below = [&r](std::uint64_t limit, const char* what) {
    const std::uint64_t v = r.u64();
    if (v >= limit) malformed(what);
    return v;
  };
  const NodeId procs = cfg_.numProcessors;
  const BlockValue zeros(sys_.proto.wordsPerBlock, 0);
  World w = initial();
  for (NodeId p = 0; p < procs; ++p) {
    tardis::TardisCache::State& st = w.caches[p].stateRaw();
    // The key drops local times, so stamping once at pts restores all a
    // transition reads of the clock.
    if (const GlobalTime pts = r.u64(); pts != 0) (void)w.clocks[p].stamp(pts);
    const std::uint64_t wait = below(cfg_.numBlocks + 1ull, "wait block");
    st.waiting = wait != 0;
    st.waitBlock = static_cast<BlockId>(wait != 0 ? wait - 1 : 0);
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      if (const std::uint64_t state = below(3, "line state"); state != 0) {
        tardis::Line& l = st.lines[b];
        l.state = state == 1 ? LineState::SharedLease : LineState::Exclusive;
        l.grantTs = r.u64();
        (state == 1 ? l.leaseEnd : l.flushTs) = r.u64();
        if (state == 1) l.flushTs = l.grantTs;  // as a lease installs
        l.data = zeros;
      }
      if (r.b()) {
        const GlobalTime flushTs = r.u64();
        st.wbPending[b] = tardis::WbRecord{flushTs, r.u64(), zeros};
      }
      if (r.b()) st.deferredFlush[b] = r.u64();
    }
  }
  for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
    tardis::HomeEntry& e = w.homes[0].entriesRaw().at(b);
    e.state = static_cast<HomeState>(below(4, "home state"));
    e.rts = r.u64();
    e.hc = r.u64();
    const std::uint64_t sharers = r.u64();
    for (NodeId s = 0; s < 64; ++s) {
      if (((sharers >> s) & 1) == 0) continue;
      if (s >= procs) malformed("sharer set");
      e.sharers.push_back(s);
    }
    if (e.state == HomeState::Exclusive || e.state == HomeState::Busy) {
      e.owner = static_cast<NodeId>(below(procs, "owner"));
      e.ownerGrantTs = r.u64();
    }
    if (e.state == HomeState::Busy) {
      e.pendingRequester = static_cast<NodeId>(below(procs, "requester"));
      e.pendingIsGetX = r.b();
      e.pendingReqTs = r.u64();
    }
  }
  const std::uint64_t inFlight = below(len + 1, "flight count");
  for (std::uint64_t i = 0; i < inFlight; ++i) {
    Flight f;
    proto::Message& m = f.msg;
    f.dst = static_cast<NodeId>(below(procs + 1ull, "destination"));
    m.type = static_cast<proto::MsgType>(
        below(proto::kNumMsgTypes, "message type"));
    m.block = static_cast<BlockId>(below(cfg_.numBlocks, "block"));
    m.requester = static_cast<NodeId>(below(procs, "requester"));
    // Read back exactly the timestamps walkMsg writes for this type.  The
    // layout drops data, so every payload reads back as zeros.
    walkMsg(
        f, [](std::uint64_t) {}, [&r](GlobalTime& t) { t = r.u64(); });
    m.data = zeros;
    w.flight.push_back(std::move(f));
  }
  if (!r.done()) malformed("trailing bytes");
  return w;
}

}  // namespace lcdc::mc
