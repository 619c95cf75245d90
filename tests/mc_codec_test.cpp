// Differential tests for the binary canonical state codec (DESIGN.md §9).
//
// Key equivalence carries the binary engine's correctness argument: two
// reachable worlds get equal binary encodings iff they get equal *legacy
// string* keys (the old engine's visited key, preserved verbatim in this
// directory's `legacy_key.hpp` as the oracle).  This is the 1:1 class
// correspondence that makes the binary engine's state counts provably
// byte-identical to the string engine's; a field the encoding truncates
// or two classes it collides show up as a mismatch in one direction.
// It is checked over >=10k states sampled from random reachable prefixes
// (random walks from the initial world) at 2x1 and 3x2, with and without
// symmetry reduction, and under --model-data.
//
// The lossless frontier codec (`WorldCodec`) is pinned directly too:
// `save(load(save(w))) == save(w)` on every reachable world of 2x1 and
// 3x1 (the latter depth-bounded), a hand-built world round-trips field
// by field with every sentinel-bearing id at its sentinel, 0 and the top
// of its range, and every truncated blob throws SimError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/expect.hpp"
#include "legacy_key.hpp"
#include "mc/model_checker.hpp"
#include "mc/state_codec.hpp"
#include "mc/tardis_model.hpp"
#include "mc/world.hpp"
#include "mc/world_codec.hpp"

namespace lcdc {
namespace {

/// One enabled action of a world (the same action vocabulary the
/// explorer uses).
struct Cand {
  enum Kind { Deliver, Issue, PutShared, Writeback, Store } kind;
  std::size_t flight = 0;
  NodeId p = 0;
  BlockId b = 0;
  ReqType req{};
};

std::vector<Cand> enabledActions(const mc::McConfig& cfg, const mc::World& w) {
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < w.flight.size(); ++i) {
    cands.push_back(Cand{Cand::Deliver, i, 0, 0, {}});
  }
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    for (BlockId b = 0; b < cfg.numBlocks; ++b) {
      const proto::CacheController& cache = w.caches[p];
      if (cache.requestBlocked(b)) continue;
      const CacheState cs = cache.state(b);
      if (cs == CacheState::Invalid) {
        cands.push_back(Cand{Cand::Issue, 0, p, b, ReqType::GetShared});
        cands.push_back(Cand{Cand::Issue, 0, p, b, ReqType::GetExclusive});
      } else if (cs == CacheState::ReadOnly) {
        cands.push_back(Cand{Cand::Issue, 0, p, b, ReqType::Upgrade});
        if (cfg.allowEvictions && cfg.proto.putSharedEnabled) {
          cands.push_back(Cand{Cand::PutShared, 0, p, b, {}});
        }
      } else if (cfg.allowEvictions) {
        cands.push_back(Cand{Cand::Writeback, 0, p, b, {}});
      }
    }
  }
  // Stores do not wait on a blocked request, as in the explorer.
  if (cfg.modelData) {
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      for (BlockId b = 0; b < cfg.numBlocks; ++b) {
        const proto::Line* line = w.caches[p].findLine(b);
        if (line != nullptr && !line->data.empty() &&
            w.caches[p].canBind(b, OpKind::Store)) {
          cands.push_back(Cand{Cand::Store, 0, p, b, {}});
        }
      }
    }
  }
  return cands;
}

void absorb(mc::World& w, NodeId src, proto::Outbox& ob) {
  for (auto& entry : ob.msgs) {
    entry.msg.src = src;
    w.flight.push_back(mc::Flight{entry.dst, std::move(entry.msg)});
  }
}

void applyAction(const mc::McConfig& cfg, mc::World& w, const Cand& c) {
  proto::Outbox ob;
  switch (c.kind) {
    case Cand::Deliver: {
      const mc::Flight f = w.flight[c.flight];
      w.flight.erase(w.flight.begin() + static_cast<std::ptrdiff_t>(c.flight));
      if (f.dst >= cfg.numProcessors) {
        w.dirs[0].handle(f.msg, ob);
      } else {
        w.caches[f.dst].handle(f.msg, ob);
      }
      absorb(w, f.dst, ob);
      break;
    }
    case Cand::Issue:
      w.caches[c.p].issueRequest(c.b, c.req, cfg.numProcessors, ob);
      absorb(w, c.p, ob);
      break;
    case Cand::PutShared:
      w.caches[c.p].putShared(c.b);
      break;
    case Cand::Writeback:
      w.caches[c.p].writeback(c.b, cfg.numProcessors, ob);
      absorb(w, c.p, ob);
      break;
    case Cand::Store: {
      const proto::Line* line = w.caches[c.p].findLine(c.b);
      const Word v = (line->data[0] + 1) & 3;
      (void)w.caches[c.p].bind(c.b, OpKind::Store, 0, v);
      break;
    }
  }
}

/// Apply one uniformly random enabled action to `w`.  Returns false when
/// no action is enabled.
class RandomWalker {
 public:
  RandomWalker(const mc::McConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  bool step(mc::World& w) {
    const std::vector<Cand> cands = enabledActions(cfg_, w);
    if (cands.empty()) return false;
    const Cand c = cands[std::uniform_int_distribution<std::size_t>(
        0, cands.size() - 1)(rng_)];
    applyAction(cfg_, w, c);
    return true;
  }

 private:
  mc::McConfig cfg_;
  std::mt19937_64 rng_;
};

struct SampleStats {
  std::size_t samples = 0;
  std::size_t distinctClasses = 0;
};

/// Walk `walks` random prefixes of length `steps`, checking legacy/binary
/// key equivalence at every visited state.  (void so the
/// fatal ASSERT_* macros are usable; results land in `out`.)
void checkSampledStates(const mc::McConfig& cfg, std::size_t walks,
                        std::size_t steps, SampleStats* out) {
  SampleStats stats;
  mc::StateCodec codec(cfg);
  mc::LegacyCanonicalizer legacy(cfg);
  // The 1:1 maps proving equivalence in both directions.
  std::map<std::string, std::vector<std::byte>> legacyToBin;
  std::map<std::vector<std::byte>, std::string> binToLegacy;
  std::vector<std::byte> enc;
  for (std::size_t wIdx = 0; wIdx < walks; ++wIdx) {
    proto::TxnCounter txns;
    mc::World w = mc::makeInitialWorld(cfg, txns);
    RandomWalker walker(cfg, 0x5eed0000 + wIdx);
    for (std::size_t s = 0; s < steps; ++s) {
      if (s != 0 && !walker.step(w)) break;
      stats.samples += 1;

      codec.encode(w, enc);
      const std::string key = legacy.key(w);
      const auto itL = legacyToBin.find(key);
      if (itL != legacyToBin.end()) {
        ASSERT_EQ(itL->second, enc)
            << "equal legacy keys, different binary encodings (walk "
            << wIdx << " step " << s << ")";
      }
      const auto itB = binToLegacy.find(enc);
      if (itB != binToLegacy.end()) {
        ASSERT_EQ(itB->second, key)
            << "equal binary encodings, different legacy keys (walk "
            << wIdx << " step " << s << ")";
      }
      if (itL == legacyToBin.end()) {
        legacyToBin.emplace(key, enc);
        binToLegacy.emplace(enc, key);
      }
    }
  }
  stats.distinctClasses = legacyToBin.size();
  *out = stats;
}

TEST(StateCodec, KeyEquivalenceTwoProcsOneBlock) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  SampleStats s;
  checkSampledStates(cfg, 500, 24, &s);
  EXPECT_GE(s.samples, 10'000u);
  EXPECT_GT(s.distinctClasses, 100u);
}

TEST(StateCodec, KeyEquivalenceThreeProcsTwoBlocks) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 2;
  SampleStats s;
  checkSampledStates(cfg, 400, 30, &s);
  EXPECT_GE(s.samples, 10'000u);
  EXPECT_GT(s.distinctClasses, 500u);
}

TEST(StateCodec, KeyEquivalenceWithSymmetry) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 2;
  cfg.symmetry = true;
  SampleStats s;
  checkSampledStates(cfg, 200, 25, &s);
  EXPECT_GE(s.samples, 4'000u);
  EXPECT_GT(s.distinctClasses, 300u);
}

TEST(StateCodec, KeyEquivalenceWithModelData) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.modelData = true;
  SampleStats s;
  checkSampledStates(cfg, 250, 24, &s);
  EXPECT_GE(s.samples, 5'000u);
  EXPECT_GT(s.distinctClasses, 100u);
}

TEST(StateCodec, SymmetricWorldsGetOneEncoding) {
  // Issue the same request from node 0 vs node 1: distinct states without
  // symmetry, one canonical class with it.
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.symmetry = true;
  mc::StateCodec codec(cfg);
  proto::TxnCounter txns;
  mc::World a = mc::makeInitialWorld(cfg, txns);
  mc::World b = mc::makeInitialWorld(cfg, txns);
  proto::Outbox ob;
  a.caches[0].issueRequest(0, ReqType::GetShared, cfg.numProcessors, ob);
  for (auto& e : ob.msgs) {
    e.msg.src = 0;
    a.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
  }
  ob.clear();
  b.caches[1].issueRequest(0, ReqType::GetShared, cfg.numProcessors, ob);
  for (auto& e : ob.msgs) {
    e.msg.src = 1;
    b.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
  }
  std::vector<std::byte> encA;
  std::vector<std::byte> encB;
  codec.encode(a, encA);
  codec.encode(b, encB);
  EXPECT_EQ(encA, encB);

  mc::McConfig noSym = cfg;
  noSym.symmetry = false;
  mc::StateCodec plain(noSym);
  plain.encode(a, encA);
  plain.encode(b, encB);
  EXPECT_NE(encA, encB);
}

TEST(StateCodec, EncodingIsInsensitiveToRawTxnIds) {
  // Burn transaction ids before one of two otherwise-identical runs: the
  // canonical encoding renumbers ids in encounter order, so the raw
  // values must not leak into the key.
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  mc::StateCodec codec(cfg);
  const auto buildWorld = [&cfg](proto::TxnCounter& txns) {
    mc::World w = mc::makeInitialWorld(cfg, txns);
    proto::Outbox ob;
    w.caches[0].issueRequest(0, ReqType::GetExclusive, cfg.numProcessors,
                             ob);
    for (auto& e : ob.msgs) {
      e.msg.src = 0;
      w.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
    }
    // Deliver the GetX at the home so a transaction id is allocated.
    const mc::Flight f = w.flight.front();
    w.flight.erase(w.flight.begin());
    ob.clear();
    w.dirs[0].handle(f.msg, ob);
    for (auto& e : ob.msgs) {
      e.msg.src = f.dst;
      w.flight.push_back(mc::Flight{e.dst, std::move(e.msg)});
    }
    return w;
  };
  proto::TxnCounter fresh;
  proto::TxnCounter burned;
  for (int i = 0; i < 1000; ++i) (void)burned.allocate();
  const mc::World a = buildWorld(fresh);
  const mc::World b = buildWorld(burned);
  std::vector<std::byte> encA;
  std::vector<std::byte> encB;
  codec.encode(a, encA);
  codec.encode(b, encB);
  EXPECT_EQ(encA, encB);
}

/// Breadth-first over the reachable canonical classes up to `maxDepth`
/// actions from the initial world (0 = the whole space), calling `fn` on
/// the first world found in each class.  Returns the class count.
template <typename Fn>
std::size_t forEachReachableWorld(const mc::McConfig& cfg,
                                  proto::TxnCounter& txns,
                                  std::uint64_t maxDepth, Fn&& fn) {
  mc::StateCodec codec(cfg);
  std::unordered_set<std::string> seen;
  std::vector<std::byte> enc;
  const auto firstVisit = [&](const mc::World& w) {
    codec.encode(w, enc);
    return seen.emplace(reinterpret_cast<const char*>(enc.data()), enc.size())
        .second;
  };
  std::deque<std::pair<mc::World, std::uint64_t>> queue;
  mc::World root = mc::makeInitialWorld(cfg, txns);
  firstVisit(root);
  queue.emplace_back(std::move(root), 0);
  while (!queue.empty()) {
    const auto [w, depth] = std::move(queue.front());
    queue.pop_front();
    fn(w);
    if (maxDepth != 0 && depth == maxDepth) continue;
    for (const Cand& c : enabledActions(cfg, w)) {
      mc::World s = w;
      applyAction(cfg, s, c);
      if (firstVisit(s)) queue.emplace_back(std::move(s), depth + 1);
    }
  }
  return seen.size();
}

// -- orbit invariance ---------------------------------------------------------

/// `w` with every processor p renamed `sigma[p]`: each cache moves to its
/// new id, and every node reference is renamed — the directory's sharer
/// sets and busy requesters, MSHR ack lists, pending forwards and buffered
/// requesters, and each in-flight message's dst, src, requester and inv
/// targets.  The home and "no node" keep their ids.
mc::World permuteWorld(const mc::McConfig& cfg, const mc::World& w,
                       const std::vector<NodeId>& sigma) {
  const NodeId procs = cfg.numProcessors;
  const auto node = [&](NodeId n) { return n < procs ? sigma[n] : n; };
  const auto nodes = [&](proto::NodeList& list) {
    for (NodeId& n : list) n = node(n);
  };
  const auto message = [&](proto::Message& m) {
    m.src = node(m.src);
    m.requester = node(m.requester);
    nodes(m.invTargets);
  };
  mc::World out;
  out.dirs = w.dirs;
  for (auto& [b, e] : out.dirs[0].entriesRaw()) {
    nodes(e.core.cached);
    std::sort(e.core.cached.begin(), e.core.cached.end());
    e.core.busyRequester = node(e.core.busyRequester);
    e.busyTxn.requester = node(e.busyTxn.requester);
  }
  std::vector<const proto::CacheController*> from(procs);
  for (NodeId p = 0; p < procs; ++p) from[sigma[p]] = &w.caches[p];
  for (NodeId q = 0; q < procs; ++q) {
    out.caches.emplace_back(q, cfg.proto, proto::nullSink(),
                            mc::nullCacheClient());
    proto::CacheController& cache = out.caches.back();
    cache.clockRaw() = from[q]->clockRaw();
    cache.linesRaw() = from[q]->linesRaw();
    for (auto& [b, line] : cache.linesRaw()) {
      if (!line.mshr) continue;
      nodes(line.mshr->acksPending);
      nodes(line.mshr->earlyAcks);
      if (line.mshr->pendingFwd) message(*line.mshr->pendingFwd);
      for (proto::Message& bm : line.mshr->buffered) message(bm);
    }
    cache.recountLinesHeld();
  }
  out.flight = w.flight;
  for (mc::Flight& f : out.flight) {
    f.dst = node(f.dst);
    message(f.msg);
  }
  return out;
}

// The symmetric encoding is a function of the orbit: every relabeling of
// every reachable world within the depth bound encodes to the same bytes.
// The plain (identity) encoding must see some relabelings, or the
// relabeling itself would be inert.
TEST(StateCodec, EncodingIsInvariantUnderEveryProcessorRelabeling) {
  struct Case {
    NodeId procs;
    BlockId blocks;
    bool modelData;
    std::uint64_t maxDepth;
  };
  const Case cases[] = {{3, 1, false, 12}, {3, 2, false, 8}, {4, 1, true, 10}};
  for (const Case& c : cases) {
    mc::McConfig cfg;
    cfg.numProcessors = c.procs;
    cfg.numBlocks = c.blocks;
    cfg.modelData = c.modelData;
    cfg.symmetry = true;
    mc::McConfig plainCfg = cfg;
    plainCfg.symmetry = false;
    const std::string label = std::to_string(c.procs) + "x" +
                              std::to_string(c.blocks) +
                              (c.modelData ? " data" : "") + " depth " +
                              std::to_string(c.maxDepth);
    mc::StateCodec codec(cfg);
    mc::StateCodec plain(plainCfg);
    std::vector<NodeId> sigma(c.procs);
    std::vector<std::byte> enc, permEnc, plainEnc, plainPermEnc;
    std::size_t mismatches = 0;
    std::size_t relabeled = 0;
    proto::TxnCounter txns;
    const std::size_t worlds =
        forEachReachableWorld(cfg, txns, c.maxDepth, [&](const mc::World& w) {
          codec.encode(w, enc);
          plain.encode(w, plainEnc);
          std::iota(sigma.begin(), sigma.end(), NodeId{0});
          while (std::next_permutation(sigma.begin(), sigma.end())) {
            const mc::World pw = permuteWorld(cfg, w, sigma);
            codec.encode(pw, permEnc);
            if (permEnc != enc) mismatches += 1;
            plain.encode(pw, plainPermEnc);
            if (plainPermEnc != plainEnc) relabeled += 1;
          }
        });
    EXPECT_EQ(mismatches, 0u) << label;
    EXPECT_GT(relabeled, worlds) << label;
    EXPECT_GT(worlds, 500u) << label;
  }
}

// -- WorldCodec: the lossless frontier blob -----------------------------------

TEST(WorldCodec, SaveLoadSaveIsByteIdenticalOnEveryReachableWorld) {
  struct Case {
    NodeId procs;
    bool modelData;
    std::uint64_t maxDepth;
  };
  const Case cases[] = {
      {2, false, 0}, {2, true, 0}, {3, false, 12}, {3, true, 10}};
  for (const Case& c : cases) {
    mc::McConfig cfg;
    cfg.numProcessors = c.procs;
    cfg.numBlocks = 1;
    cfg.modelData = c.modelData;
    cfg.maxDepth = c.maxDepth;
    const std::string label = std::to_string(c.procs) + "x1" +
                              (c.modelData ? " data" : "") + " depth " +
                              std::to_string(c.maxDepth);
    proto::TxnCounter txns;
    const mc::WorldCodec codec(cfg, txns);
    std::vector<std::byte> blob;
    std::vector<std::byte> again;
    std::size_t mismatches = 0;
    const std::size_t worlds =
        forEachReachableWorld(cfg, txns, c.maxDepth, [&](const mc::World& w) {
          codec.save(w, blob);
          codec.save(codec.load(blob.data(), blob.size()), again);
          if (blob != again) mismatches += 1;
        });
    EXPECT_EQ(mismatches, 0u) << label;
    // The walk covers exactly the classes the explorer stores, so "every
    // reachable world" means the explorer's space, not a sample of it.
    EXPECT_EQ(worlds, mc::explore(cfg).perf.storedStates) << label;
  }
}

TEST(WorldCodec, SentinelBearingIdsRoundTripFieldByField) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 2;
  cfg.modelData = true;
  proto::TxnCounter txns;
  const mc::WorldCodec codec(cfg, txns);
  const auto message = [](TransactionId txn, NodeId requester) {
    proto::Message m;
    m.type = proto::MsgType::FwdGetX;
    m.block = 1;
    m.src = 3;
    m.requester = requester;
    m.txn = txn;
    m.serial = 4;
    m.closesTxn = txn;
    return m;
  };
  // The message fields go through the shared trace codec, which keeps
  // plain varints; `msgTxn`/`msgNode` let the size check hold them fixed.
  const auto build = [&](TransactionId txn, NodeId node,
                         TransactionId msgTxn, NodeId msgNode) {
    mc::World w = mc::makeInitialWorld(cfg, txns);
    proto::Line line;
    line.cstate = CacheState::ReadOnly;
    line.astate = AState::S;
    line.data = {2};
    line.ignoreFwdTxn = txn;
    line.dropInvTxn = txn;
    line.epochTxn = txn;
    line.epochSerial = 9;
    line.epochTs = 17;
    line.epochStartData = {1};
    proto::Mshr m;
    m.req = ReqType::Upgrade;
    m.replySeen = true;
    m.acksPending = {0, 2};
    m.txn = txn;
    m.serial = 5;
    m.earlyStamp = 11;
    m.pendingFwd = message(msgTxn, msgNode);
    m.buffered.push_back(message(msgTxn, msgNode));
    line.mshr = m;
    w.caches[1].linesRaw()[1] = line;
    w.caches[1].recountLinesHeld();
    proto::DirEntry& e = w.dirs[0].entriesRaw()[1];
    e.core.state = DirState::BusyExclusive;
    e.core.busyRequester = node;
    e.core.busyReq = ReqType::Upgrade;
    e.busyTxn.id = txn;
    e.busyTxn.serial = 6;
    e.busyTxn.block = 1;
    e.busyTxn.requester = node;
    e.busyHomeTs = 21;
    w.flight.push_back(mc::Flight{1, message(msgTxn, msgNode)});
    return w;
  };
  struct Ids {
    TransactionId txn;
    NodeId node;
  };
  const Ids values[] = {
      {kNoTransaction, kNoNode},
      {0, 0},
      {(TransactionId{1} << 63) + 12'345, (NodeId{1} << 31) + 7},
      {kNoTransaction - 1, kNoNode - 1},
  };
  std::vector<std::byte> blob;
  std::vector<std::byte> again;
  for (const Ids& v : values) {
    const mc::World w = build(v.txn, v.node, v.txn, v.node);
    codec.save(w, blob);
    const mc::World l = codec.load(blob.data(), blob.size());
    const proto::Line* line = l.caches[1].findLine(1);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->cstate, CacheState::ReadOnly);
    EXPECT_EQ(line->ignoreFwdTxn, v.txn);
    EXPECT_EQ(line->dropInvTxn, v.txn);
    EXPECT_EQ(line->epochTxn, v.txn);
    EXPECT_EQ(line->epochSerial, 9u);
    EXPECT_EQ(line->epochTs, 17u);
    ASSERT_TRUE(line->mshr.has_value());
    EXPECT_EQ(line->mshr->txn, v.txn);
    EXPECT_EQ(line->mshr->serial, 5u);
    EXPECT_EQ(line->mshr->earlyStamp, 11u);
    ASSERT_TRUE(line->mshr->pendingFwd.has_value());
    EXPECT_EQ(line->mshr->pendingFwd->txn, v.txn);
    EXPECT_EQ(line->mshr->pendingFwd->requester, v.node);
    ASSERT_EQ(line->mshr->buffered.size(), 1u);
    EXPECT_EQ(line->mshr->buffered[0].closesTxn, v.txn);
    const proto::DirEntry& e = l.dirs[0].entry(1);
    EXPECT_EQ(e.core.state, DirState::BusyExclusive);
    EXPECT_EQ(e.core.busyRequester, v.node);
    EXPECT_EQ(e.busyTxn.id, v.txn);
    EXPECT_EQ(e.busyTxn.serial, 6u);
    EXPECT_EQ(e.busyTxn.requester, v.node);
    EXPECT_EQ(e.busyHomeTs, 21u);
    ASSERT_EQ(l.flight.size(), 1u);
    EXPECT_EQ(l.flight[0].msg.txn, v.txn);
    EXPECT_EQ(l.flight[0].msg.requester, v.node);
    codec.save(l, again);
    EXPECT_EQ(blob, again);
  }
  // Each of the seven world-level ids costs the same single varint byte
  // at its sentinel as at 0.
  std::vector<std::byte> zeros;
  codec.save(build(kNoTransaction, kNoNode, 7, 0), blob);
  codec.save(build(0, 0, 7, 0), zeros);
  EXPECT_EQ(blob.size(), zeros.size());
}

TEST(WorldCodec, TruncatedBlobsThrowSimError) {
  mc::McConfig cfg;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.modelData = true;
  proto::TxnCounter txns;
  const mc::WorldCodec codec(cfg, txns);
  std::vector<std::byte> blob;
  std::size_t worlds = 0;
  forEachReachableWorld(cfg, txns, 8, [&](const mc::World& w) {
    if (worlds++ % 16 != 0) return;
    codec.save(w, blob);
    for (std::size_t len = 0; len < blob.size(); ++len) {
      EXPECT_THROW((void)codec.load(blob.data(), len), SimError)
          << "prefix " << len << " of " << blob.size();
    }
  });
  EXPECT_GT(worlds, 100u);
}

// The Tardis frontier blob on every world within depth 7 of 2x1: it loads
// back to a world with the same blob and the same canonical key, and a
// truncated or corrupted blob (spill segments are outside input) raises
// SimError instead of building a world that indexes out of range.
TEST(TardisModel, BlobsRoundTripAndMalformedOnesRaiseSimError) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::Tardis;
  cfg.numProcessors = 2;
  proto::TxnCounter txns;
  const mc::TardisModel model(cfg, txns);
  mc::TardisModel::Ctx ctx(cfg, txns);
  std::vector<mc::TardisWorld> wave{model.initial()};
  std::vector<std::byte> blob, again, key, key2;
  std::mt19937_64 rng(7);
  std::size_t worlds = 0;
  for (int depth = 0; depth < 7; ++depth) {
    std::vector<mc::TardisWorld> next;
    for (const mc::TardisWorld& w : wave) {
      worlds += 1;
      model.save(ctx, w, blob);
      const mc::TardisWorld back = model.load(ctx, blob.data(), blob.size());
      model.save(ctx, back, again);
      EXPECT_EQ(blob, again);
      model.encode(ctx, w, key);
      model.encode(ctx, back, key2);
      EXPECT_EQ(key, key2);
      for (std::size_t len = 0; len < blob.size(); ++len) {
        EXPECT_THROW((void)model.load(ctx, blob.data(), len), SimError);
      }
      std::vector<std::byte> bad = blob;
      bad[rng() % bad.size()] = std::byte{0x7F};
      try {
        (void)model.load(ctx, bad.data(), bad.size());
      } catch (const SimError&) {
      }
      model.forEachAction(w, [&](const mc::Action& a) {
        mc::TardisWorld s = w;
        model.apply(s, a);
        next.push_back(std::move(s));
      });
    }
    wave = std::move(next);
  }
  EXPECT_GT(worlds, 200u);
}

}  // namespace
}  // namespace lcdc
