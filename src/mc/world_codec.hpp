// Lossless World <-> byte-blob serialization for the explorer's frontier.
//
// The canonical key (`StateCodec`) deliberately projects fields away —
// clocks, stamps, serials, raw txn ids, epoch bookkeeping — because the
// protocol's *reachable-state identity* does not depend on them.  Its
// *transitions* do, though: the cache branches on message stamps for the
// Section 2.5 deadlock detection, and the directory reuses `busyTxn.id`
// for transactions 13/14a.  So frontier states must be stored in full
// fidelity, and the canonical key must never be used to reconstruct one.
//
// Before this codec the frontier held live `World` values: per state,
// two controller vectors of hash maps, message vectors, stamp vectors —
// roughly 1.5-2 KB across ~15 heap allocations.  A varint blob is one
// arena allocation, which is where most of the resident-memory reduction
// comes from (EXPERIMENTS.md S12).  Measured on 3 procs x 2 blocks, the
// average blob grows with depth from 102 B (depth 1) to 295 B (depth
// 11); written as plain varints, the same worlds took 172 B and 465 B.
//
// The difference is the id fields that mostly hold a sentinel: a line's
// ignore-forward, drop-invalidation and epoch transactions, an MSHR's
// transaction, and a busy directory entry's requester and transaction.
// kNoTransaction and kNoNode are all-ones, which a varint spends 10 (or
// 5) bytes on, so these fields are written as v+1 and the sentinel costs
// one byte.  Message fields keep the shared trace codec's plain varints,
// so the dsm wire and binary traces are unaffected.
//
// Controller statistics are not serialized (nothing in the checker reads
// them); a loaded world restarts its stats at zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mc/world.hpp"

namespace lcdc::mc {

class WorldCodec {
 public:
  WorldCodec(const McConfig& cfg, proto::TxnCounter& txns)
      : cfg_(cfg), txns_(&txns) {}

  /// Serialize `w` into `out` (replaced, not appended).
  void save(const World& w, std::vector<std::byte>& out) const;

  /// Rebuild a full-fidelity World from a saved blob.  The world's
  /// controllers alias the codec's shared transaction counter.
  [[nodiscard]] World load(const std::byte* data, std::size_t len) const;

 private:
  const McConfig& cfg_;
  proto::TxnCounter* txns_;
};

}  // namespace lcdc::mc
