// Coverage accounting for verification campaigns.
//
// The paper's case analysis (Section 2.3, Table 1) enumerates 14 distinct
// transactions — including the three NACK cases and the write-back races
// 13/14a/14b — plus the Section 2.5 extension behaviours (Put-Shared
// silent eviction, the Figure 2 deadlock resolution) and, in this
// reproduction, the TSO store-buffering rule.  A verification campaign is
// only convincing evidence if its schedules actually *reached* all of
// those paths; this module counts, per trace, how often each one fired.
//
// A Coverage is a plain array of counters: merging is associative and
// commutative, so the campaign aggregator can fold per-seed coverage in
// deterministic seed order regardless of which worker finished first.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "common/config.hpp"
#include "common/types.hpp"
#include "proto/observer.hpp"

namespace lcdc::trace {
class Trace;
}

namespace lcdc::campaign {

/// Every protocol path a campaign tracks.  The first kNumTransactionCases
/// entries are the paper's 14 transaction cases (14a/14b split, NACKs
/// numbered as in Section 2.3) — these define "full coverage" for
/// --until-coverage; the rest are extension paths reported alongside.
enum class Point : std::uint8_t {
  Txn1_GetS_Idle,
  Txn2_GetS_Shared,
  Txn3_GetS_Exclusive,
  Nack4_GetS_Busy,
  Txn5_GetX_Idle,
  Txn6_GetX_Shared,
  Txn7_GetX_Exclusive,
  Nack8_GetX_Busy,
  Txn9_Upg_Shared,
  Nack10_Upg_Exclusive,
  Nack11_Upg_Busy,
  Txn12_Wb_Exclusive,
  Txn13_Wb_BusyShared,
  Txn14a_Wb_BusyExclusive,
  Txn14b_Wb_BusyExclusiveSelf,
  // -- Section 2.5 extension paths ------------------------------------------
  PutShared,         ///< silent read-only eviction (never timestamped)
  DeadlockResolved,  ///< Figure 2 resolution by implicit acknowledgment
  // -- store-buffering rule (TSO extension) ----------------------------------
  ForwardedLoad,  ///< load served from the processor's own store buffer
  Count,
};

inline constexpr std::size_t kNumPoints =
    static_cast<std::size_t>(Point::Count);
inline constexpr std::size_t kNumTransactionCases = 15;

/// Short stable name ("1 get-shared/idle", "14b writeback/busy-excl-self",
/// "put-shared", ...) used in the campaign's coverage report.
[[nodiscard]] const char* toString(Point p);

/// Bitmask (bit i = transaction case i) of the cases protocol `k` can reach
/// at all.  The directory protocol reaches all 15; the bus serializes only
/// the four MSI command kinds (1, 5, 9, 12); Tardis has no writeback races
/// or upgrade NACKs (leases expire instead), leaving 10 reachable cases.
/// --until-coverage targets the backend's own reachable set, not the
/// directory's — a bus or Tardis campaign can genuinely complete.
[[nodiscard]] std::uint32_t reachableCaseMask(ProtocolKind k);
[[nodiscard]] std::size_t reachableCaseCount(ProtocolKind k);

struct Coverage {
  std::array<std::uint64_t, kNumPoints> counts{};
  /// Tardis lease traffic, filled from TardisStats after each sub-run
  /// (always zero on the directory and bus backends; the report prints
  /// these lines only when nonzero, so their output is unchanged).
  std::uint64_t leaseRenewals = 0;
  std::uint64_t leaseExpiries = 0;

  /// Tally every covered path of one recorded execution (complete or
  /// truncated — a deadlocked run's partial trace still counts).
  void record(const trace::Trace& trace);
  void merge(const Coverage& other);

  [[nodiscard]] std::uint64_t count(Point p) const {
    return counts[static_cast<std::size_t>(p)];
  }
  /// How many of the paper's transaction cases have fired at least once.
  [[nodiscard]] std::size_t transactionCasesCovered() const;
  [[nodiscard]] bool transactionCasesComplete() const {
    return transactionCasesCovered() == kNumTransactionCases;
  }
  /// Backend-aware variants: count/complete over `k`'s reachable case set.
  [[nodiscard]] std::size_t transactionCasesCovered(ProtocolKind k) const;
  [[nodiscard]] bool transactionCasesComplete(ProtocolKind k) const {
    return transactionCasesCovered(k) == reachableCaseCount(k);
  }

  /// Deterministic multi-line table of all points and counts.  Cases the
  /// backend cannot reach are printed as "n/a" rather than "MISS"; the
  /// directory report is byte-identical to the historical format.
  [[nodiscard]] std::string report(
      ProtocolKind k = ProtocolKind::Directory) const;
};

/// The coverage tally, accumulated as a pipeline stage — the campaign
/// needs no trace at all; Coverage::record() replays a recorded trace
/// through one.  The one subtlety is write-back conversion (cases 13/14a):
/// the trace recorder rewrites the serialization record in place, so a
/// replay sees post-conversion kinds; live we observe the original
/// onSerialize and rebucket on onTxnConverted, keeping a bounded window of
/// recent transaction kinds (conversions only ever hit in-flight
/// transactions, which are young).
class CoverageObserver final : public proto::ObserverAdapter {
 public:
  [[nodiscard]] const Coverage& coverage() const { return cov_; }
  /// Serializations observed (the campaign's txnsSerialized statistic).
  [[nodiscard]] std::uint64_t txnsSerialized() const { return serialized_; }

  void onSerialize(const proto::TxnInfo& txn) override;
  void onTxnConverted(TransactionId id, TxnKind newKind) override;
  void onOperation(const proto::OpRecord& op) override;
  void onNack(NodeId requester, BlockId block, NackKind kind) override;
  void onPutShared(NodeId node, BlockId block) override;
  void onDeadlockResolved(NodeId node, BlockId block,
                          NodeId impliedAcker) override;

 private:
  Coverage cov_;
  std::uint64_t serialized_ = 0;
  std::unordered_map<TransactionId, TxnKind> recentKinds_;
  std::deque<TransactionId> recentFifo_;  ///< eviction order, bounded
};

}  // namespace lcdc::campaign
