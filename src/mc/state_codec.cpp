#include "mc/state_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/expect.hpp"

namespace lcdc::mc {

namespace {

/// Width needed to store values 0..maxValue.
unsigned bitsFor(std::uint64_t maxValue) {
  unsigned w = 1;
  while ((std::uint64_t{1} << w) <= maxValue) ++w;
  return w;
}

constexpr unsigned kDirStateW = 3;
constexpr unsigned kReqW = 2;
constexpr unsigned kCStateW = 2;
constexpr unsigned kAStateW = 2;
constexpr unsigned kMsgTypeW = 4;
constexpr unsigned kNackW = 4;
constexpr unsigned kTxnW = 8;
constexpr unsigned kValW = 8;
constexpr unsigned kBufCountW = 8;
constexpr unsigned kFlightCountW = 16;

/// modelData value code: 0 = absent, else word-0 value + 1.  Values are
/// bounded (stores bump a mod-4 counter), so 8 bits are ample.
std::uint16_t valCode(const BlockValue& v) {
  if (v.empty()) return 0;
  LCDC_EXPECT(v[0] <= 254, "modelData value out of 8-bit code range");
  return static_cast<std::uint16_t>(v[0] + 1);
}

template <typename T>
constexpr std::uint64_t u64(T v) {
  return static_cast<std::uint64_t>(v);
}

/// splitmix64's finalizer: folds packed fields into a signature term.
constexpr std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The places a processor's signature sums over, one term per mention.
enum Tag : std::uint64_t {
  kOwn,           ///< its own lines and MSHRs
  kSharer,        ///< in a directory sharer set
  kBusy,          ///< a busy directory entry's requester
  kAckPending,    ///< another MSHR awaits its invalidation ack
  kEarlyAck,      ///< another MSHR holds its early ack
  kFwdRequester,  ///< requester of another MSHR's pending forward
  kBufRequester,  ///< requester of a message buffered at another MSHR
  kFlight,        ///< dst, src, requester or inv target of a message
};

constexpr std::uint64_t term(Tag tag, std::uint64_t payload) {
  return mix(payload * 8 + tag);
}

}  // namespace

// -- bit-stream primitives ---------------------------------------------------

class StateCodec::BitWriter {
 public:
  explicit BitWriter(std::vector<std::byte>& out) : out_(out) {}

  void put(std::uint64_t v, unsigned w) {
    if (w > 32) {
      put(v & 0xFFFFFFFFu, 32);
      put(v >> 32, w - 32);
      return;
    }
    acc_ |= (v & ((std::uint64_t{1} << w) - 1)) << nbits_;
    nbits_ += w;
    while (nbits_ >= 8) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFF));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }

  /// Flush the partial byte (zero-padded) so the next write starts on a
  /// byte boundary — used to keep flight-view records memcmp-able.
  void alignByte() {
    if (nbits_ != 0) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFF));
      acc_ = 0;
      nbits_ = 0;
    }
  }

 private:
  std::vector<std::byte>& out_;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

// -- codec -------------------------------------------------------------------

StateCodec::StateCodec(const McConfig& cfg)
    : cfg_(cfg),
      symmetric_(cfg.symmetry && cfg.numProcessors <= kMaxSymmetryProcs),
      ident_(cfg.numProcessors),
      perm_(cfg.numProcessors),
      inv_(cfg.numProcessors),
      sig_(cfg.numProcessors) {
  std::iota(ident_.begin(), ident_.end(), NodeId{0});
  noneNode_ = cfg.numProcessors + 1;
  nodeW_ = bitsFor(noneNode_);
  blockW_ = bitsFor(cfg.numBlocks > 1 ? cfg.numBlocks - 1 : 1);
  maskW_ = cfg.numProcessors;
  LCDC_EXPECT(maskW_ <= 32, "processor mask exceeds 32 bits");
  msgBits_ = 3 * nodeW_ + kMsgTypeW + blockW_ + kNackW + kReqW + 1 + maskW_ +
             (cfg.modelData ? kValW : 0) + 2 * kTxnW;
}

std::uint32_t StateCodec::mapNode(NodeId n,
                                  const std::vector<NodeId>& perm) const {
  if (n == kNoNode) return noneNode_;
  return n < cfg_.numProcessors ? perm[n] : n;
}

std::uint16_t StateCodec::txnCodeAssign(TransactionId id) {
  if (id == kNoTransaction) return 0;
  for (std::size_t i = 0; i < txnSlots_.size(); ++i) {
    if (txnSlots_[i] == id) return static_cast<std::uint16_t>(i + 1);
  }
  txnSlots_.push_back(id);
  LCDC_EXPECT(txnSlots_.size() <= 253, "too many live txns for 8-bit codes");
  return static_cast<std::uint16_t>(txnSlots_.size());
}

std::uint16_t StateCodec::txnViewCode(TransactionId id) const {
  if (id == kNoTransaction) return 0;
  for (std::size_t i = 0; i < txnSlots_.size(); ++i) {
    if (txnSlots_[i] == id) return static_cast<std::uint16_t>(i + 2);
  }
  return 1;  // fresh ids collapse to one code so sorting is id-blind
}

void StateCodec::writeMsgFields(BitWriter& bw, const Flight& f,
                                const std::vector<NodeId>& perm,
                                std::uint16_t txnCode,
                                std::uint16_t closesCode) const {
  bw.put(mapNode(f.dst, perm), nodeW_);
  bw.put(static_cast<std::uint8_t>(f.msg.type), kMsgTypeW);
  bw.put(f.msg.block, blockW_);
  bw.put(mapNode(f.msg.src, perm), nodeW_);
  bw.put(mapNode(f.msg.requester, perm), nodeW_);
  bw.put(static_cast<std::uint8_t>(f.msg.nackKind), kNackW);
  bw.put(static_cast<std::uint8_t>(f.msg.nackedReq), kReqW);
  bw.put(f.msg.ignoreBufferedInv ? 1 : 0, 1);
  bw.put(maskOf(f.msg.invTargets, perm), maskW_);
  if (cfg_.modelData) bw.put(valCode(f.msg.data), kValW);
  bw.put(txnCode, kTxnW);
  bw.put(closesCode, kTxnW);
}

void StateCodec::encodeWithPerm(const World& w,
                                const std::vector<NodeId>& perm,
                                const std::vector<NodeId>& inv,
                                std::vector<std::byte>& out) {
  txnSlots_.clear();
  out.clear();
  BitWriter bw(out);

  // Directory section (no txn ids live here).
  for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
    const proto::DirEntry& e = w.dirs[0].entry(b);
    bw.put(static_cast<std::uint8_t>(e.core.state), kDirStateW);
    bw.put(mapNode(e.core.busyRequester, perm), nodeW_);
    bw.put(static_cast<std::uint8_t>(e.core.busyReq), kReqW);
    bw.put(maskOf(e.core.cached, perm), maskW_);
    if (cfg_.modelData) bw.put(valCode(e.mem), kValW);
  }

  // Caches in canonical (permuted) id order; txn markers are assigned in
  // this traversal order, exactly as the string key assigned them.
  for (NodeId i = 0; i < cfg_.numProcessors; ++i) {
    const proto::CacheController& cache = w.caches[inv[i]];
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      const proto::Line* line = cache.findLine(b);
      if (line == nullptr) {
        bw.put(0, 1);
        continue;
      }
      bw.put(1, 1);
      bw.put(static_cast<std::uint8_t>(line->cstate), kCStateW);
      bw.put(static_cast<std::uint8_t>(line->astate), kAStateW);
      bw.put(txnCodeAssign(line->ignoreFwdTxn), kTxnW);
      bw.put(txnCodeAssign(line->dropInvTxn), kTxnW);
      if (cfg_.modelData) {
        bw.put(valCode(line->data), kValW);
        // The ForwardStaleValue mutant sends epochStartData on forwards,
        // so the projection must distinguish it or the abstraction leaks.
        if (cfg_.proto.mutant == Mutant::ForwardStaleValue) {
          bw.put(valCode(line->epochStartData), kValW);
        }
      }
      if (!line->mshr) {
        bw.put(0, 1);
        continue;
      }
      bw.put(1, 1);
      const proto::Mshr& m = *line->mshr;
      bw.put(static_cast<std::uint8_t>(m.req), kReqW);
      bw.put(m.replySeen ? 1 : 0, 1);
      bw.put(m.invListKnown ? 1 : 0, 1);
      bw.put(maskOf(m.acksPending, perm), maskW_);
      bw.put(maskOf(m.earlyAcks, perm), maskW_);
      if (m.pendingFwd) {
        bw.put(1, 1);
        bw.put(static_cast<std::uint8_t>(m.pendingFwd->type), kMsgTypeW);
        bw.put(mapNode(m.pendingFwd->requester, perm), nodeW_);
      } else {
        bw.put(0, 1);
      }
      if (cfg_.modelData) bw.put(valCode(m.data), kValW);
      LCDC_EXPECT(m.buffered.size() <= 255, "buffered queue exceeds 8 bits");
      bw.put(m.buffered.size(), kBufCountW);
      for (const proto::Message& bm : m.buffered) {
        bw.put(static_cast<std::uint8_t>(bm.type), kMsgTypeW);
        bw.put(mapNode(bm.requester, perm), nodeW_);
        bw.put(txnCodeAssign(bm.txn), kTxnW);
      }
    }
  }

  // Flight bag: sort by an id-blind fixed-width view (already-assigned txn
  // ids show their marker, fresh ids collapse), then emit in that order
  // while assigning fresh markers — the binary twin of the string key's
  // sortView/remap pass.  Ties are content-identical up to fresh ids, so
  // either order yields the same final bytes.
  LCDC_EXPECT(w.flight.size() <= 65535, "flight bag exceeds 16-bit count");
  const std::size_t msgBytes = (msgBits_ + 7) / 8;
  viewScratch_.clear();
  {
    BitWriter vw(viewScratch_);
    for (const Flight& f : w.flight) {
      writeMsgFields(vw, f, perm, txnViewCode(f.msg.txn),
                     txnViewCode(f.msg.closesTxn));
      vw.alignByte();
    }
  }
  order_.resize(w.flight.size());
  for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  const std::byte* views = viewScratch_.data();
  std::sort(order_.begin(), order_.end(),
            [views, msgBytes](std::uint32_t a, std::uint32_t b) {
              return std::memcmp(views + a * msgBytes, views + b * msgBytes,
                                 msgBytes) < 0;
            });
  bw.put(w.flight.size(), kFlightCountW);
  for (const std::uint32_t i : order_) {
    const Flight& f = w.flight[i];
    writeMsgFields(bw, f, perm, txnCodeAssign(f.msg.txn),
                   txnCodeAssign(f.msg.closesTxn));
  }
  bw.alignByte();
}

std::uint32_t StateCodec::maskOf(const proto::NodeList& nodes,
                                  const std::vector<NodeId>& perm) const {
  std::uint32_t mask = 0;
  for (const NodeId n : nodes) {
    LCDC_EXPECT(n < cfg_.numProcessors, "processor set names a non-processor");
    mask |= std::uint32_t{1} << perm[n];
  }
  return mask;
}

void StateCodec::signProcessors(const World& w) {
  const NodeId procs = cfg_.numProcessors;
  const bool data = cfg_.modelData;
  const bool epoch = data && cfg_.proto.mutant == Mutant::ForwardStaleValue;
  // A node reference as seen from processor `self`.
  const auto role = [procs](NodeId n, NodeId self) -> std::uint64_t {
    if (n == self) return 0;
    if (n == kNoNode) return 1;
    return n < procs ? 2 : 3;
  };
  const auto has = [](TransactionId t) { return u64(t != kNoTransaction); };
  const auto addTo = [this](std::uint32_t procMask, std::uint64_t t) {
    for (; procMask != 0; procMask &= procMask - 1) {
      sig_[static_cast<std::size_t>(std::countr_zero(procMask))] += t;
    }
  };
  const auto procBit = [procs](NodeId n) {
    return n < procs ? std::uint32_t{1} << n : 0;
  };
  std::fill(sig_.begin(), sig_.end(), 0);

  for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
    const proto::DirEntry& e = w.dirs[0].entry(b);
    const std::uint64_t at = u64(b) << 8 | u64(e.core.state) << 2 |
                             u64(e.core.busyReq);
    addTo(maskOf(e.core.cached, ident_), term(kSharer, at));
    addTo(procBit(e.core.busyRequester), term(kBusy, at));
  }

  for (NodeId p = 0; p < procs; ++p) {
    const std::uint32_t self = std::uint32_t{1} << p;
    std::uint64_t own = 0;
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      const proto::Line* line = w.caches[p].findLine(b);
      if (line == nullptr) {
        own = mix(own);
        continue;
      }
      own = mix(own ^ (1 | u64(line->cstate) << 1 | u64(line->astate) << 3 |
                       has(line->ignoreFwdTxn) << 5 |
                       has(line->dropInvTxn) << 6 |
                       (data ? u64(valCode(line->data)) << 7 : 0) |
                       (epoch ? u64(valCode(line->epochStartData)) << 15 : 0) |
                       u64(line->mshr.has_value()) << 23));
      if (!line->mshr) continue;
      const proto::Mshr& m = *line->mshr;
      const std::uint32_t acks = maskOf(m.acksPending, ident_);
      const std::uint32_t early = maskOf(m.earlyAcks, ident_);
      std::uint64_t fwd = 0;
      if (m.pendingFwd) {
        const NodeId r = m.pendingFwd->requester;
        fwd = 1 | u64(m.pendingFwd->type) << 1 | role(r, p) << 6;
        addTo(procBit(r) & ~self,
              term(kFwdRequester, u64(b) << 5 | u64(m.pendingFwd->type)));
      }
      own = mix(own ^ (u64(m.req) | u64(m.replySeen) << 2 |
                       u64(m.invListKnown) << 3 |
                       u64(std::popcount(acks & ~self)) << 4 |
                       u64((acks & self) != 0) << 10 |
                       u64(std::popcount(early & ~self)) << 11 |
                       u64((early & self) != 0) << 17 | fwd << 18 |
                       (data ? u64(valCode(m.data)) << 26 : 0) |
                       u64(m.buffered.size()) << 34));
      addTo(acks & ~self, term(kAckPending, b));
      addTo(early & ~self, term(kEarlyAck, b));
      for (const proto::Message& bm : m.buffered) {
        own = mix(own ^ (u64(bm.type) | role(bm.requester, p) << 5 |
                         has(bm.txn) << 7));
        addTo(procBit(bm.requester) & ~self,
              term(kBufRequester, u64(b) << 5 | u64(bm.type)));
      }
    }
    sig_[p] += term(kOwn, own);
  }

  for (const Flight& f : w.flight) {
    const proto::Message& msg = f.msg;
    const std::uint32_t inv = maskOf(msg.invTargets, ident_);
    const std::uint64_t content = mix(
        u64(msg.type) | u64(msg.nackKind) << 5 | u64(msg.nackedReq) << 9 |
        u64(msg.ignoreBufferedInv) << 11 | has(msg.txn) << 12 |
        has(msg.closesTxn) << 13 | u64(std::popcount(inv)) << 14 |
        (data ? u64(valCode(msg.data)) << 20 : 0) | u64(msg.block) << 28);
    std::uint32_t named =
        procBit(f.dst) | procBit(msg.src) | procBit(msg.requester) | inv;
    for (; named != 0; named &= named - 1) {
      const auto p = static_cast<NodeId>(std::countr_zero(named));
      const std::uint64_t roles = role(f.dst, p) | role(msg.src, p) << 2 |
                                  role(msg.requester, p) << 4 |
                                  u64((inv >> p) & 1) << 6;
      sig_[p] += term(kFlight, content ^ roles);
    }
  }
}

bool StateCodec::nextTieOrder() {
  for (auto t = ties_.rbegin(); t != ties_.rend(); ++t) {
    if (std::next_permutation(inv_.begin() + t->first,
                              inv_.begin() + t->second)) {
      return true;
    }
  }
  return false;
}

void StateCodec::encode(const World& w, std::vector<std::byte>& out) {
  if (!symmetric_) {
    encodeWithPerm(w, ident_, ident_, out);
    return;
  }
  const NodeId procs = cfg_.numProcessors;
  signProcessors(w);
  inv_ = ident_;
  std::sort(inv_.begin(), inv_.end(), [this](NodeId a, NodeId b) {
    return sig_[a] != sig_[b] ? sig_[a] < sig_[b] : a < b;
  });
  ties_.clear();
  for (NodeId i = 0; i < procs;) {
    NodeId j = i + 1;
    while (j < procs && sig_[inv_[j]] == sig_[inv_[i]]) ++j;
    if (j - i > 1) ties_.emplace_back(i, j);
    i = j;
  }
  const auto place = [this, procs] {
    for (NodeId i = 0; i < procs; ++i) perm_[inv_[i]] = i;
  };
  place();
  encodeWithPerm(w, perm_, inv_, out);
  while (nextTieOrder()) {
    place();
    encodeWithPerm(w, perm_, inv_, cur_);
    LCDC_EXPECT(cur_.size() == out.size(),
                "permuted encodings must have equal length");
    if (std::memcmp(cur_.data(), out.data(), out.size()) < 0) {
      out.swap(cur_);
    }
  }
}

}  // namespace lcdc::mc
