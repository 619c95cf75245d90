// Bit-packed canonical state encoding — the binary replacement for the
// text canonical key (see `legacy_key.hpp` for the preserved original and
// DESIGN.md §9 for the layout and the equivalence argument).
//
// The codec encodes exactly the fields the string key encoded — the
// protocol-control projection of a `World` (clocks, raw txn ids, serials,
// stamps and, without `modelData`, data values are projected away) — into
// a fixed-layout bit stream:
//
//   * field widths are fixed per configuration (node ids in
//     ceil(log2(P+2)) bits, txn markers in 8, masks in P bits, ...), so
//     equal canonical states produce byte-identical buffers;
//   * live transaction ids are renumbered to small integers numerically,
//     in encounter order, with 0 meaning "no transaction" — no string
//     rewriting;
//   * the flight bag is sorted by an id-blind fixed-width binary view of
//     each message (already-assigned txns show their marker, fresh ids
//     collapse to one code), mirroring the string key's sort-view trick;
//   * with symmetry, each processor gets a signature that relabeling
//     cannot change (its own lines and MSHRs with node references reduced
//     to self/home/none/other, plus order-independent sums over every
//     place another structure names it); processors are laid out in
//     signature order, and the bytewise minimum is taken only over the
//     orders that permute processors inside a tie class (the scalarset
//     normal form of Ip & Dill).  The candidate orders of a relabeled
//     world are the same orders relabeled, so the minimum is an exact
//     orbit representative.
//
// Two different worlds get equal encodings iff they got equal legacy
// string keys (the codec tests check this against `LegacyCanonicalizer`
// over sampled reachable states, and check orbit invariance directly),
// which is what keeps the binary engine's state counts byte-identical to
// the old engine's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mc/world.hpp"

namespace lcdc::mc {

/// A decoded canonical state, used by the round-trip property test
/// (`encode(decode(e)) == e`).  Fields hold canonical (already renumbered
/// / permuted) values, not raw protocol state.
struct DecodedState {
  struct Dir {
    std::uint8_t state = 0;
    std::uint32_t busyRequester = 0;
    std::uint8_t busyReq = 0;
    std::uint32_t cachedMask = 0;
    std::uint16_t memVal = 0;  ///< modelData: 0 = absent, else value+1
  };
  struct Buffered {
    std::uint8_t type = 0;
    std::uint32_t requester = 0;
    std::uint16_t txn = 0;
  };
  struct Mshr {
    std::uint8_t req = 0;
    bool replySeen = false;
    bool invListKnown = false;
    std::uint32_t acksMask = 0;
    std::uint32_t earlyMask = 0;
    bool hasPendingFwd = false;
    std::uint8_t pendingFwdType = 0;
    std::uint32_t pendingFwdRequester = 0;
    std::uint16_t dataVal = 0;
    std::vector<Buffered> buffered;
  };
  struct Line {
    bool present = false;
    std::uint8_t cstate = 0;
    std::uint8_t astate = 0;
    std::uint16_t ignoreFwdTxn = 0;
    std::uint16_t dropInvTxn = 0;
    std::uint16_t dataVal = 0;
    std::uint16_t epochVal = 0;
    bool hasMshr = false;
    Mshr mshr;
  };
  struct Msg {
    std::uint32_t dst = 0;
    std::uint8_t type = 0;
    std::uint32_t block = 0;
    std::uint32_t src = 0;
    std::uint32_t requester = 0;
    std::uint8_t nackKind = 0;
    std::uint8_t nackedReq = 0;
    bool ignoreBufferedInv = false;
    std::uint32_t invMask = 0;
    std::uint16_t dataVal = 0;
    std::uint16_t txn = 0;
    std::uint16_t closesTxn = 0;
  };
  std::vector<Dir> dirs;     ///< one per block
  std::vector<Line> lines;   ///< canonical cache-major, block-minor order
  std::vector<Msg> flight;   ///< in canonical (sorted) order
};

/// Names the orbit representative `StateCodec::encode` picks under
/// symmetry (2: signature-sorted processors; a digest without the tag
/// means the bytewise minimum over all P! relabelings).  `configDigest` folds it in, so a checkpoint, spill segment or
/// bitstate dump holding another form's representatives is refused rather
/// than resumed into double-counted orbits.
inline constexpr std::uint64_t kSymmetryCanonicalForm = 2;

class StateCodec {
 public:
  explicit StateCodec(const McConfig& cfg);

  /// Canonical encoding of `w` into `out` (replaced, not appended).  With
  /// symmetry: the bytewise minimum over the processor orders sorted by
  /// signature (every order inside each tie class).  Reuses internal
  /// scratch; one StateCodec must not be shared across threads.
  void encode(const World& w, std::vector<std::byte>& out);

  /// Inverse of the layout, for the round-trip test.
  [[nodiscard]] DecodedState decode(const std::byte* data,
                                    std::size_t len) const;
  /// Re-encode a decoded state (no canonicalization: the fields are
  /// already canonical).  `encodeDecoded(decode(e)) == e` must hold.
  void encodeDecoded(const DecodedState& d, std::vector<std::byte>& out) const;

 private:
  class BitWriter;
  class BitReader;

  void encodeWithPerm(const World& w, const std::vector<NodeId>& perm,
                      const std::vector<NodeId>& inv,
                      std::vector<std::byte>& out);
  /// Fill `sig_` with each processor's relabeling-invariant signature.  It
  /// reads only what the encoding keeps (txn ids as present/absent, data
  /// only under modelData, node sets as masks), so the worlds of one
  /// canonical class carry the same signatures up to relabeling.
  void signProcessors(const World& w);
  /// Step `inv_` to the next order that permutes processors only inside
  /// their tie classes (an odometer, last class fastest); false once every
  /// order has been visited, leaving each class back in id order.
  bool nextTieOrder();
  /// `nodes` as a P-bit mask, each processor id relabeled by `perm`.
  [[nodiscard]] std::uint32_t maskOf(const proto::NodeList& nodes,
                                     const std::vector<NodeId>& perm) const;
  [[nodiscard]] std::uint32_t mapNode(NodeId n,
                                      const std::vector<NodeId>& perm) const;
  [[nodiscard]] std::uint16_t txnCodeAssign(TransactionId id);
  [[nodiscard]] std::uint16_t txnViewCode(TransactionId id) const;
  void writeMsgFields(BitWriter& bw, const Flight& f,
                      const std::vector<NodeId>& perm, std::uint16_t txnCode,
                      std::uint16_t closesCode) const;

  const McConfig& cfg_;
  const bool symmetric_;  ///< symmetry on and P within kMaxSymmetryProcs
  std::vector<NodeId> ident_;  ///< the identity relabeling
  unsigned nodeW_ = 0;   ///< covers 0..P+1 (P = home, P+1 = "no node")
  unsigned blockW_ = 0;
  unsigned maskW_ = 0;   ///< P bits
  unsigned msgBits_ = 0;
  std::uint32_t noneNode_ = 0;  ///< the canonical "no node" code (P+1)

  // Reused scratch (why this type is not thread-shareable).
  std::vector<NodeId> perm_;  ///< processor id -> canonical position
  std::vector<NodeId> inv_;   ///< canonical position -> processor id
  std::vector<std::uint64_t> sig_;  ///< per processor id
  std::vector<std::pair<NodeId, NodeId>> ties_;  ///< [begin, end) in inv_
  std::vector<TransactionId> txnSlots_;
  std::vector<std::byte> cur_;
  std::vector<std::byte> viewScratch_;
  std::vector<std::uint32_t> order_;
};

}  // namespace lcdc::mc
