#include "campaign/coverage.hpp"

#include <sstream>

#include "common/types.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace lcdc::campaign {

namespace {

Point pointOf(TxnKind k) {
  switch (k) {
    case TxnKind::GetS_Idle: return Point::Txn1_GetS_Idle;
    case TxnKind::GetS_Shared: return Point::Txn2_GetS_Shared;
    case TxnKind::GetS_Exclusive: return Point::Txn3_GetS_Exclusive;
    case TxnKind::GetX_Idle: return Point::Txn5_GetX_Idle;
    case TxnKind::GetX_Shared: return Point::Txn6_GetX_Shared;
    case TxnKind::GetX_Exclusive: return Point::Txn7_GetX_Exclusive;
    case TxnKind::Upg_Shared: return Point::Txn9_Upg_Shared;
    case TxnKind::Wb_Exclusive: return Point::Txn12_Wb_Exclusive;
    case TxnKind::Wb_BusyShared: return Point::Txn13_Wb_BusyShared;
    case TxnKind::Wb_BusyExclusive: return Point::Txn14a_Wb_BusyExclusive;
    case TxnKind::Wb_BusyExclusiveSelf:
      return Point::Txn14b_Wb_BusyExclusiveSelf;
  }
  return Point::Count;
}

Point pointOf(NackKind k) {
  switch (k) {
    case NackKind::GetS_Busy: return Point::Nack4_GetS_Busy;
    case NackKind::GetX_Busy: return Point::Nack8_GetX_Busy;
    case NackKind::Upg_Exclusive: return Point::Nack10_Upg_Exclusive;
    case NackKind::Upg_Busy: return Point::Nack11_Upg_Busy;
  }
  return Point::Count;
}

/// Conversions can only target in-flight transactions, so a window this
/// deep always still holds the pre-conversion kind to rebucket from.
constexpr std::size_t kRecentKindsCap = 4096;

}  // namespace

const char* toString(Point p) {
  switch (p) {
    case Point::Txn1_GetS_Idle: return "1  get-shared/idle";
    case Point::Txn2_GetS_Shared: return "2  get-shared/shared";
    case Point::Txn3_GetS_Exclusive: return "3  get-shared/exclusive";
    case Point::Nack4_GetS_Busy: return "4  get-shared/busy (NACK)";
    case Point::Txn5_GetX_Idle: return "5  get-exclusive/idle";
    case Point::Txn6_GetX_Shared: return "6  get-exclusive/shared";
    case Point::Txn7_GetX_Exclusive: return "7  get-exclusive/exclusive";
    case Point::Nack8_GetX_Busy: return "8  get-exclusive/busy (NACK)";
    case Point::Txn9_Upg_Shared: return "9  upgrade/shared";
    case Point::Nack10_Upg_Exclusive: return "10 upgrade/exclusive (NACK)";
    case Point::Nack11_Upg_Busy: return "11 upgrade/busy (NACK)";
    case Point::Txn12_Wb_Exclusive: return "12 writeback/exclusive";
    case Point::Txn13_Wb_BusyShared: return "13 writeback/busy-shared";
    case Point::Txn14a_Wb_BusyExclusive: return "14a writeback/busy-excl";
    case Point::Txn14b_Wb_BusyExclusiveSelf:
      return "14b writeback/busy-excl-self";
    case Point::PutShared: return "put-shared (silent eviction)";
    case Point::DeadlockResolved: return "deadlock resolved (Figure 2)";
    case Point::ForwardedLoad: return "forwarded load (store buffer)";
    case Point::Count: break;
  }
  return "?";
}

void Coverage::record(const trace::Trace& trace) {
  // Serialization records carry post-conversion kinds and replay fires no
  // onTxnConverted, so a writeback that merged into a busy transaction
  // (13/14a) is counted as the race it became, exactly as the paper
  // numbers it.
  CoverageObserver tally;
  trace::replay(trace, tally);
  merge(tally.coverage());
}

void Coverage::merge(const Coverage& other) {
  for (std::size_t i = 0; i < kNumPoints; ++i) counts[i] += other.counts[i];
  leaseRenewals += other.leaseRenewals;
  leaseExpiries += other.leaseExpiries;
}

std::uint32_t reachableCaseMask(ProtocolKind k) {
  constexpr auto bit = [](Point p) {
    return std::uint32_t{1} << static_cast<std::uint32_t>(p);
  };
  switch (k) {
    case ProtocolKind::Bus:
      // The arbiter serializes exactly four command kinds (kindOf in
      // bus_system.cpp); there are no NACKs and no writeback races — a
      // stale BusWB dies at the arbiter without serializing.
      return bit(Point::Txn1_GetS_Idle) | bit(Point::Txn5_GetX_Idle) |
             bit(Point::Txn9_Upg_Shared) | bit(Point::Txn12_Wb_Exclusive);
    case ProtocolKind::Tardis:
      // Tardis serializes cases 1-3/5-7/9/12 plus the two Busy NACKs; the
      // upgrade NACKs (10/11) and writeback races (13/14) cannot occur —
      // shared copies expire by lease instead of being tracked.
      return bit(Point::Txn1_GetS_Idle) | bit(Point::Txn2_GetS_Shared) |
             bit(Point::Txn3_GetS_Exclusive) | bit(Point::Nack4_GetS_Busy) |
             bit(Point::Txn5_GetX_Idle) | bit(Point::Txn6_GetX_Shared) |
             bit(Point::Txn7_GetX_Exclusive) | bit(Point::Nack8_GetX_Busy) |
             bit(Point::Txn9_Upg_Shared) | bit(Point::Txn12_Wb_Exclusive);
    case ProtocolKind::Directory:
      break;
  }
  return (std::uint32_t{1} << kNumTransactionCases) - 1;
}

std::size_t reachableCaseCount(ProtocolKind k) {
  std::uint32_t mask = reachableCaseMask(k);
  std::size_t n = 0;
  for (; mask != 0; mask &= mask - 1) ++n;
  return n;
}

std::size_t Coverage::transactionCasesCovered() const {
  std::size_t covered = 0;
  for (std::size_t i = 0; i < kNumTransactionCases; ++i) {
    if (counts[i] > 0) ++covered;
  }
  return covered;
}

std::size_t Coverage::transactionCasesCovered(ProtocolKind k) const {
  const std::uint32_t mask = reachableCaseMask(k);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < kNumTransactionCases; ++i) {
    if ((mask & (std::uint32_t{1} << i)) != 0 && counts[i] > 0) ++covered;
  }
  return covered;
}

void CoverageObserver::onSerialize(const proto::TxnInfo& txn) {
  ++serialized_;
  const Point p = pointOf(txn.kind);
  if (p != Point::Count) ++cov_.counts[static_cast<std::size_t>(p)];
  recentKinds_[txn.id] = txn.kind;
  recentFifo_.push_back(txn.id);
  while (recentFifo_.size() > kRecentKindsCap) {
    recentKinds_.erase(recentFifo_.front());
    recentFifo_.pop_front();
  }
}

void CoverageObserver::onTxnConverted(TransactionId id, TxnKind newKind) {
  const auto it = recentKinds_.find(id);
  if (it == recentKinds_.end()) return;  // evicted: keep the original bucket
  const Point oldP = pointOf(it->second);
  const Point newP = pointOf(newKind);
  if (oldP != Point::Count && cov_.counts[static_cast<std::size_t>(oldP)] > 0) {
    --cov_.counts[static_cast<std::size_t>(oldP)];
  }
  if (newP != Point::Count) ++cov_.counts[static_cast<std::size_t>(newP)];
  it->second = newKind;
}

void CoverageObserver::onOperation(const proto::OpRecord& op) {
  if (op.forwarded) {
    ++cov_.counts[static_cast<std::size_t>(Point::ForwardedLoad)];
  }
}

void CoverageObserver::onNack(NodeId, BlockId, NackKind kind) {
  const Point p = pointOf(kind);
  if (p != Point::Count) ++cov_.counts[static_cast<std::size_t>(p)];
}

void CoverageObserver::onPutShared(NodeId, BlockId) {
  ++cov_.counts[static_cast<std::size_t>(Point::PutShared)];
}

void CoverageObserver::onDeadlockResolved(NodeId, BlockId, NodeId) {
  ++cov_.counts[static_cast<std::size_t>(Point::DeadlockResolved)];
}

std::string Coverage::report(ProtocolKind k) const {
  const std::uint32_t mask = reachableCaseMask(k);
  std::ostringstream os;
  os << "transaction-case coverage: " << transactionCasesCovered(k) << "/"
     << reachableCaseCount(k);
  if (k != ProtocolKind::Directory) os << " (" << toString(k) << "-reachable)";
  os << '\n';
  for (std::size_t i = 0; i < kNumPoints; ++i) {
    if (i == kNumTransactionCases) os << "extension paths:\n";
    const bool reachable =
        i >= kNumTransactionCases || (mask & (std::uint32_t{1} << i)) != 0;
    os << "  " << (counts[i] > 0 ? "hit " : (reachable ? "MISS" : "n/a "))
       << "  " << toString(static_cast<Point>(i)) << "  " << counts[i] << '\n';
  }
  if (leaseRenewals != 0 || leaseExpiries != 0) {
    os << "tardis leases:\n"
       << "  renewals  " << leaseRenewals << '\n'
       << "  expiries  " << leaseExpiries << '\n';
  }
  return os.str();
}

}  // namespace lcdc::campaign
