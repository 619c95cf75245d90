// Bit-packed canonical state encoding: the one canonical form of the
// directory model (DESIGN.md §9 has the layout and the equivalence
// argument).  The explorer hashes and stores these bytes as the visited
// key, and POR ranks its ample candidates by them.  Nothing decodes them:
// frontier worlds travel as lossless `WorldCodec` blobs instead.
//
// The codec encodes exactly the fields the original text canonical key
// encoded — the protocol-control projection of a `World` (clocks, raw txn
// ids, serials, stamps and, without `modelData`, data values are
// projected away) — into a fixed-layout bit stream:
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
// Two different worlds get equal encodings iff they got equal text keys
// (the codec tests check this over sampled reachable states against the
// text key, kept in `tests/legacy_key.hpp` as their oracle, and check
// orbit invariance directly), which is what keeps the binary engine's
// state counts byte-identical to the old engine's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mc/world.hpp"

namespace lcdc::mc {

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

 private:
  class BitWriter;

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
