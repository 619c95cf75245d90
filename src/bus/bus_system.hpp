// A split-transaction snooping-bus MSI protocol, verified with the *same*
// Lamport-clock machinery as the directory protocol.
//
// The paper's companion result (reference [23], discussed in Sections 1
// and 5) proves a bus protocol with the identical lemma structure: "the
// proofs of the lemmas for the bus protocol are exactly as for the
// directory protocol ... only the proofs of the timestamping claims
// differ."  This module realizes that claim in code: bus executions are
// recorded through the very same proto::EventSink/trace::Trace interface,
// and verify::checkAll — Lemmas 1-3, Claims 2-3, the Main Theorem —
// consumes them unchanged.
//
// Protocol sketch (MSI, invalidation-based):
//   * A single arbiter serializes bus commands: BusRd (want read-only),
//     BusRdX (want read-write), BusUpgr (S -> M without data), BusWB
//     (write a Modified block back to memory).  The grant order *is* the
//     transaction serialization; the k-th grant has bus sequence number k.
//   * Every node (each cache, plus memory) snoops every command through a
//     private FIFO queue with random per-node delay — nodes see the same
//     order, at different times.  This is where all the interesting
//     relativity lives: a cache may keep binding loads to a line for which
//     an invalidation is already on the bus, exactly the Table 2 effect.
//   * The responder (the Modified owner if any, else memory) supplies data
//     when *it* processes the command, so the value carries every store
//     the owner bound before relinquishing — Fact 2, bus edition.
//   * An Upgrade granted after its requester lost its shared copy (an
//     intervening BusRdX invalidated it) is converted by the arbiter into
//     a full BusRdX — the bus analogue of the paper's transaction 10.
//   * Read-only lines may be evicted silently; on a bus this needs *no*
//     deadlock machinery because invalidations are never acknowledged —
//     a contrast this module makes measurable.
//
// Timestamping (the part that differs from the directory protocol): a
// node's logical clock is the bus sequence number of the last command it
// has processed.  Each affected node stamps a transaction with that
// transaction's own bus sequence number; downgrades therefore share the
// upgrade's stamp (Claim 3(a) holds with equality) and upgrades are
// strictly increasing along the serialization (Claim 3(b)).  Operations are
// stamped with the standard rule via clk::OpStamper.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "clock/lamport.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/events.hpp"
#include "workload/program.hpp"

namespace lcdc::bus {

using Tick = std::uint64_t;
using BusSeq = std::uint64_t;

enum class BusCmd : std::uint8_t { BusRd, BusRdX, BusUpgr, BusWB };
[[nodiscard]] std::string toString(BusCmd c);

enum class MsiState : std::uint8_t { Invalid, Shared, Modified };

struct BusConfig {
  NodeId numProcessors = 4;
  BlockId numBlocks = 16;
  WordIdx wordsPerBlock = 4;
  std::uint32_t cacheCapacity = 0;  ///< 0 = unbounded
  /// Max random snoop-processing delay per node per command.
  Tick snoopDelayMax = 16;
  std::uint64_t seed = 1;
  /// Seeded protocol bug (campaign target).  The bus implements
  /// only Mutant::IgnoreInvalidation: a shared copy survives a snooped
  /// BusRdX/BusUpgr, so later loads keep binding stale values.
  Mutant mutant = Mutant::None;
};

struct BusRunResult {
  enum class Outcome { Quiescent, Stuck, BudgetExhausted };
  Outcome outcome = Outcome::BudgetExhausted;
  std::uint64_t eventsProcessed = 0;
  std::uint64_t grants = 0;
  std::uint64_t upgradeConversions = 0;
  /// Stale write-backs dropped at the arbiter (ownership already taken).
  std::uint64_t writebackAborts = 0;
  /// Memory responses parked behind an in-flight write-back/flush.
  std::uint64_t parkedResponses = 0;
  /// Times a snoop queue head had to wait for its own transaction's
  /// completion (the Section 2.4-style blocking rule).
  std::uint64_t headOfLineBlocks = 0;
  std::uint64_t opsBound = 0;
  Tick endTime = 0;

  [[nodiscard]] bool ok() const { return outcome == Outcome::Quiescent; }
};

[[nodiscard]] std::string toString(BusRunResult::Outcome o);

/// The whole bus machine: arbiter + caches + memory + processors.
/// Deliberately one class — the bus is a centralized medium and the
/// companion-paper protocol is far smaller than the directory one.
class BusSystem {
 public:
  BusSystem(const BusConfig& config, proto::EventSink& sink);
  ~BusSystem();
  BusSystem(const BusSystem&) = delete;
  BusSystem& operator=(const BusSystem&) = delete;

  void setProgram(NodeId proc, workload::Program program);

  /// Run to quiescence (or until maxEvents).
  BusRunResult run(std::uint64_t maxEvents = 100'000'000);

  [[nodiscard]] const BusConfig& config() const { return config_; }
  [[nodiscard]] MsiState lineState(NodeId proc, BlockId block) const;
  [[nodiscard]] const BlockValue& memoryImage(BlockId block) const;
  [[nodiscard]] std::uint64_t silentEvictions() const {
    return silentEvictions_;
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  BusConfig config_;
  std::uint64_t silentEvictions_ = 0;
  friend struct Impl;
};

}  // namespace lcdc::bus
