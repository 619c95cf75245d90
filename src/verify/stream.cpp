#include "verify/stream.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/expect.hpp"

namespace lcdc::verify {

namespace {

using proto::OpRecord;
using proto::StampRole;

// Settling lag before a transaction with a full stamp set finalizes online:
// a later downgrade (a second sharer's inval ack, a late writeback ack) can
// still arrive shortly after, so wait until the block's serialization has
// moved this far past the transaction.  Purely a false-negative/latency
// trade-off — finalizing early can only miss a violation, never invent one.
constexpr SerialIdx kSettleLag = 2;
// Backstops that keep state bounded even on adversarial (mutant) streams.
constexpr std::size_t kMaxPendingTxnsPerBlock = 4096;
constexpr std::size_t kLineHistoryCap = 64;
constexpr std::size_t kBlockHistoryCap = 128;
constexpr std::size_t kParkedOpsCap = 64;
constexpr std::size_t kUpgradeCap = 256;
constexpr std::size_t kLiveTxnCap = 4096;
/// SC merge window: past this many buffered ops the smallest head retires
/// even if some processor has not advanced past it — a processor whose
/// program finished (or a pathological trace) must not pin the window.
constexpr std::size_t kScReorderCap = 8192;

std::string opToString(const OpRecord& op) {
  std::ostringstream os;
  os << toString(op.kind) << " p" << op.proc << " #" << op.progIdx
     << " block " << op.block << " word " << op.word << " value "
     << op.value << " ts " << toString(op.ts) << " bound-to txn "
     << op.boundTxn << " (serial " << op.boundSerial << ")";
  return os.str();
}

std::string epochToString(const clk::Epoch& e) {
  std::ostringstream os;
  os << toString(e.state) << " epoch at node " << e.node << " for block "
     << e.block << " [" << e.start << ", ";
  if (e.end == clk::kOpenEpoch) {
    os << "open";
  } else {
    os << e.end;
  }
  os << ") opened by txn " << e.txn << " (serial " << e.serial << ")";
  return os.str();
}

bool isExclusiveKind(TxnKind k) {
  switch (k) {
    case TxnKind::GetS_Idle:
    case TxnKind::GetS_Shared:
    case TxnKind::GetS_Exclusive:
    // Transaction 13's unique *upgrade* belongs to its Get-Shared half (the
    // writeback half upgrades nobody — memory takes the value, and the
    // entry clock absorbs the owner's stamp instead), so for the
    // Claim 3(b) upgrade-ordering rule it behaves as a Get-Shared.
    case TxnKind::Wb_BusyShared:
      return false;
    default:
      return true;
  }
}

/// Epoch intersection under [start, end) semantics; kOpenEpoch (max value)
/// acts as infinity.
bool epochsOverlap(const clk::Epoch& a, const clk::Epoch& b) {
  return a.start < b.end && b.start < a.end;
}

}  // namespace

void StreamChecker::addViolation(std::string check, std::string detail) {
  if (report_.violations.size() < cfg_.maxViolations) {
    report_.violations.push_back(
        Violation{std::move(check), std::move(detail)});
  } else if (report_.violations.size() == cfg_.maxViolations) {
    report_.violations.push_back(Violation{"...", "further violations elided"});
  }
}

// ---------------------------------------------------------------------------
// Program order embeds into Lamport order
// ---------------------------------------------------------------------------
void StreamProgramOrder::onOperation(const OpRecord& op) {
  report_.opsChecked += 1;
  if (!cfg_.tso) {
    if (sc_.size() <= op.proc) sc_.resize(op.proc + 1);
    ScState& st = sc_[op.proc];
    if (st.has) {
      const OpRecord& prev = st.last;
      if (op.progIdx <= prev.progIdx) {
        addViolation("program-order",
                     "ops recorded out of program order: " + opToString(prev) +
                         " then " + opToString(op));
      }
      const bool increases =
          op.ts.global > prev.ts.global ||
          (op.ts.global == prev.ts.global && op.ts.local > prev.ts.local);
      if (!increases) {
        addViolation("program-order",
                     "Lamport order breaks program order: " + opToString(prev) +
                         " then " + opToString(op));
      }
    }
    st.has = true;
    st.last = op;
    return;
  }

  // TSO.  Loads bind (and are observed) in program order; stores retire
  // FIFO, and every program-earlier op has been observed by the time a
  // store retires — so the program-order-earlier op set of each arriving
  // op is fully known on arrival.
  while (tso_.size() <= op.proc) tso_.emplace_back(&pool_);
  TsoState& t = tso_[op.proc];
  if (op.kind == OpKind::Store) {
    // Fold the loads that are program-order-earlier than this store.
    while (!t.pendingLoads.empty() &&
           t.pendingLoads.front().progIdx < op.progIdx) {
      const OpRecord& l = t.pendingLoads.front();
      if (!t.maxLoadBelow || t.maxLoadBelow->ts < l.ts) t.maxLoadBelow = l;
      t.pendingLoads.pop_front();
    }
    // The max-timestamp program-earlier op; ties (impossible on faithful
    // streams) resolve to the program-earlier op, like the batch walk.
    const OpRecord* bound = t.maxStore ? &*t.maxStore : nullptr;
    if (t.maxLoadBelow) {
      const OpRecord& lb = *t.maxLoadBelow;
      if (bound == nullptr || bound->ts < lb.ts ||
          (bound->ts == lb.ts && lb.progIdx < bound->progIdx)) {
        bound = &lb;
      }
    }
    if (bound != nullptr && !(bound->ts < op.ts)) {
      addViolation("tso-program-order",
                   "TSO-forbidden reordering: " + opToString(*bound) +
                       " then " + opToString(op));
    }
    if (!t.maxStore || t.maxStore->ts < op.ts) t.maxStore = op;
    return;
  }
  // Loads (forwarded ones included): must out-timestamp every earlier load;
  // the store->load direction is the one TSO exempts.
  if (t.maxLoad && !(t.maxLoad->ts < op.ts)) {
    addViolation("tso-program-order",
                 "TSO-forbidden reordering: " + opToString(*t.maxLoad) +
                     " then " + opToString(op));
  }
  if (!t.maxLoad || t.maxLoad->ts < op.ts) t.maxLoad = op;
  t.pendingLoads.push_back(op);
}

void StreamProgramOrder::reset(const VerifyConfig& cfg) {
  StreamChecker::reset(cfg);
  for (ScState& st : sc_) st.has = false;
  for (TsoState& t : tso_) {
    t.maxLoad.reset();
    t.maxStore.reset();
    t.maxLoadBelow.reset();
    t.pendingLoads.clear();
  }
}

std::size_t StreamProgramOrder::memoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  bytes += sc_.size() * sizeof(ScState);
  for (const TsoState& t : tso_) {
    bytes += sizeof(TsoState);
    bytes += t.pendingLoads.size() * sizeof(OpRecord);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Claim 2
// ---------------------------------------------------------------------------
void StreamClaim2::onStamp(NodeId node, TransactionId txn, SerialIdx serial,
                           BlockId block, StampRole role, GlobalTime ts,
                           AState oldA, AState newA) {
  if (last_.size() <= node) last_.resize(node + 1);
  std::vector<Last>& row = last_[node];
  if (row.size() <= block) row.resize(block + 1);
  Last& prev = row[block];
  if (prev.has) {
    if (serial <= prev.serial) {
      std::ostringstream os;
      os << "node " << node << " block " << block
         << ": A-state change for txn " << txn << " (serial " << serial
         << ") applied after txn " << prev.txn << " (serial " << prev.serial
         << ")";
      addViolation("claim2", os.str());
    }
    if (ts <= prev.ts) {
      std::ostringstream os;
      os << "node " << node << " block " << block << ": clock not monotone ("
         << prev.ts << " then " << ts << ")";
      addViolation("claim2", os.str());
    }
  }
  prev.has = true;
  prev.txn = txn;
  prev.serial = serial;
  prev.ts = ts;
}

void StreamClaim2::reset(const VerifyConfig& cfg) {
  StreamChecker::reset(cfg);
  for (std::vector<Last>& row : last_) {
    for (Last& l : row) l.has = false;
  }
}

std::size_t StreamClaim2::memoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const std::vector<Last>& row : last_) {
    bytes += sizeof(row) + row.size() * sizeof(Last);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Claim 3
// ---------------------------------------------------------------------------
StreamClaim3::StreamClaim3(const VerifyConfig& cfg)
    : StreamChecker(cfg),
      live_(0, std::hash<TransactionId>{}, std::equal_to<TransactionId>{},
            common::PoolAllocator<
                std::pair<const TransactionId, std::pair<BlockId, SerialIdx>>>(
                &pool_)) {}

StreamClaim3::BlockState& StreamClaim3::blockAt(BlockId block) {
  while (blocks_.size() <= block) blocks_.emplace_back(&pool_);
  return blocks_[block];
}

void StreamClaim3::onSerialize(const proto::TxnInfo& txn) {
  BlockState& bs = blockAt(txn.block);
  bs.maxSerial = std::max(bs.maxSerial, txn.serial);
  bs.pending.insert_or_assign(txn.serial, Pending{txn, {}});
  live_[txn.id] = {txn.block, txn.serial};
  tryFinalize(bs);
}

void StreamClaim3::onTxnConverted(TransactionId id, TxnKind newKind) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  BlockState& bs = blockAt(it->second.first);
  const auto pit = bs.pending.find(it->second.second);
  if (pit != bs.pending.end()) pit->second.txn.kind = newKind;
}

void StreamClaim3::onStamp(NodeId node, TransactionId txn, SerialIdx serial,
                           BlockId block, StampRole role, GlobalTime ts,
                           AState oldA, AState newA) {
  const auto it = live_.find(txn);
  if (it == live_.end()) return;  // stamp for an already-finalized txn
  BlockState& bs = blockAt(it->second.first);
  const auto pit = bs.pending.find(it->second.second);
  if (pit == bs.pending.end()) return;
  Agg& a = pit->second.agg;
  if (role == StampRole::Downgrade) {
    a.downgrades += 1;
    a.maxDowngrade = std::max(a.maxDowngrade, ts);
  } else {
    a.upgrades += 1;
    a.upgrade = ts;
  }
  tryFinalize(bs);
}

void StreamClaim3::tryFinalize(BlockState& bs) {
  while (!bs.pending.empty()) {
    const auto it = bs.pending.begin();
    const Pending& p = it->second;
    const bool complete = p.agg.upgrades >= 1 && p.agg.downgrades >= 1;
    const bool settled = bs.maxSerial >= p.txn.serial + kSettleLag;
    if (!((complete && settled) ||
          bs.pending.size() > kMaxPendingTxnsPerBlock)) {
      break;
    }
    finalize(bs, p);
    live_.erase(p.txn.id);
    bs.pending.erase(it);
  }
}

void StreamClaim3::finalize(BlockState& bs, const Pending& p) {
  report_.txnsChecked += 1;
  const proto::TxnInfo& txn = p.txn;
  const Agg& t = p.agg;
  if (t.upgrades == 0) {
    if (cfg_.expectComplete) {
      std::ostringstream os;
      os << "txn " << txn.id << " (" << toString(txn.kind) << ", serial "
         << txn.serial << ", block " << txn.block << ") has no upgrade stamp";
      addViolation("claim3-structure", os.str());
    }
    return;
  }
  if (t.upgrades != 1) {
    std::ostringstream os;
    os << "txn " << txn.id << " has " << t.upgrades
       << " upgrade stamps (expected exactly one)";
    addViolation("claim3-structure", os.str());
  }
  if (t.downgrades == 0) {
    std::ostringstream os;
    os << "txn " << txn.id << " (" << toString(txn.kind)
       << ") has no downgrade stamp";
    addViolation("claim3-structure", os.str());
  }
  // Claim 3(a).
  if (t.maxDowngrade > t.upgrade) {
    std::ostringstream os;
    os << "claim 3(a): txn " << txn.id << " (" << toString(txn.kind)
       << ", block " << txn.block << "): downgrade stamp " << t.maxDowngrade
       << " exceeds upgrade stamp " << t.upgrade;
    addViolation("claim3a", os.str());
  }
  // Claim 3(b): for a pair (T, T') with T before T' and either exclusive,
  // upgrade(T) < upgrade(T').  Transactions finalize in serialization
  // order per block, so the running maxima match the batch sweep.
  const bool exclusive = isExclusiveKind(txn.kind);
  if (exclusive && t.upgrade <= bs.maxUpgrade) {
    std::ostringstream os;
    os << "claim 3(b): exclusive txn " << txn.id << " ("
       << toString(txn.kind) << ", serial " << txn.serial << ", block "
       << txn.block << ") upgrade stamp " << t.upgrade
       << " does not exceed an earlier transaction's " << bs.maxUpgrade;
    addViolation("claim3b", os.str());
  }
  if (!exclusive && t.upgrade <= bs.maxExclUpgrade) {
    std::ostringstream os;
    os << "claim 3(b): txn " << txn.id << " (" << toString(txn.kind)
       << ", serial " << txn.serial << ", block " << txn.block
       << ") upgrade stamp " << t.upgrade
       << " does not exceed an earlier exclusive transaction's "
       << bs.maxExclUpgrade;
    addViolation("claim3b", os.str());
  }
  bs.maxUpgrade = std::max(bs.maxUpgrade, t.upgrade);
  if (exclusive) bs.maxExclUpgrade = std::max(bs.maxExclUpgrade, t.upgrade);
}

void StreamClaim3::finish() {
  if (finished_) return;
  finished_ = true;
  for (BlockState& bs : blocks_) {
    while (!bs.pending.empty()) {
      const auto it = bs.pending.begin();
      finalize(bs, it->second);
      live_.erase(it->second.txn.id);
      bs.pending.erase(it);
    }
  }
}

void StreamClaim3::reset(const VerifyConfig& cfg) {
  StreamChecker::reset(cfg);
  for (BlockState& bs : blocks_) {
    bs.maxSerial = 0;
    bs.maxUpgrade = 0;
    bs.maxExclUpgrade = 0;
    bs.pending.clear();
  }
  live_.clear();
}

std::size_t StreamClaim3::memoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const BlockState& bs : blocks_) {
    bytes += sizeof(BlockState);
    bytes += bs.pending.size() * (sizeof(SerialIdx) + sizeof(Pending) + 48);
  }
  bytes += live_.size() *
           (sizeof(TransactionId) + sizeof(std::pair<BlockId, SerialIdx>) + 16);
  return bytes;
}

// ---------------------------------------------------------------------------
// Lemmas 1 and 2 (+ Claim 4)
// ---------------------------------------------------------------------------
StreamEpochs::Line& StreamEpochs::lineAt(NodeId node, BlockId block) {
  while (lines_.size() <= node) lines_.emplace_back();
  std::deque<Line>& row = lines_[node];
  while (row.size() <= block) row.emplace_back(&pool_);
  return row[block];
}

PoolDeque<clk::Epoch>& StreamEpochs::closedAt(BlockId block) {
  while (closedByBlock_.size() <= block) {
    closedByBlock_.emplace_back(common::PoolAllocator<clk::Epoch>(&pool_));
    closedMaxEnd_.push_back(0);
  }
  return closedByBlock_[block];
}

bool StreamEpochs::lemma1Relevant(const clk::Epoch& e) const {
  // Processor S/X epochs and directory X (Idle: memory is the valid copy)
  // epochs; directory A_S "epochs" carry no operations and their
  // boundaries are conventional (the home's by-definition downgrades).
  if (e.state == AState::I) return false;
  const bool isDir = e.node >= cfg_.numProcessors;
  return !isDir || e.state == AState::X;
}

void StreamEpochs::checkAgainstEpoch(const OpRecord& op, const clk::Epoch& e,
                                     bool endKnown) {
  if (op.ts.global < e.start ||
      (endKnown && e.end != clk::kOpenEpoch && op.ts.global >= e.end)) {
    addViolation("lemma2", "operation outside its epoch: " + opToString(op) +
                               " not in " + epochToString(e));
    return;
  }
  if (op.kind == OpKind::Store && e.state != AState::X) {
    addViolation("lemma2", "store outside an exclusive epoch: " +
                               opToString(op) + " in " + epochToString(e));
  }
  if (op.kind == OpKind::Load && e.state == AState::I) {
    addViolation("lemma2", "load inside an invalid interval: " + opToString(op));
  }
}

void StreamEpochs::closeCurrent(Line& line, GlobalTime end) {
  clk::Epoch e = line.current;
  e.end = end;
  // Ops whose end-of-epoch check had to wait: the epoch boundary is now
  // exact, so run the full containment + state check.
  for (const OpRecord& op : line.parked) checkAgainstEpoch(op, e, true);
  line.parked.clear();
  // Lemma 1: each overlap pair is counted exactly once — when the
  // later-closing epoch closes against the block's closed-epoch history
  // (the earlier-closing partner is already there).
  if (lemma1Relevant(e)) {
    auto& hist = closedAt(e.block);
    // Everything in the history ends at or before closedMaxEnd_, so an
    // epoch starting at or after it cannot overlap anything there.
    if (e.start < closedMaxEnd_[e.block]) {
      for (const clk::Epoch& other : hist) {
        if (other.node == e.node) continue;
        if (!epochsOverlap(e, other)) continue;
        if (e.state != AState::X && other.state != AState::X) continue;
        const bool eLater = e.start >= other.start;
        const clk::Epoch& later = eLater ? e : other;
        const clk::Epoch& earlier = eLater ? other : e;
        addViolation("lemma1", "overlapping epochs: " + epochToString(later) +
                                   " vs " + epochToString(earlier));
      }
    }
    hist.push_back(e);
    closedMaxEnd_[e.block] = std::max(closedMaxEnd_[e.block], e.end);
    if (hist.size() > kBlockHistoryCap) hist.pop_front();
  }
  line.history.push_back(e);
  if (line.history.size() > kLineHistoryCap) line.history.pop_front();
  line.hasCurrent = false;
}

void StreamEpochs::onStamp(NodeId node, TransactionId txn, SerialIdx serial,
                           BlockId block, StampRole role, GlobalTime ts,
                           AState oldA, AState newA) {
  if (lastStampTs_.size() <= node) lastStampTs_.resize(node + 1, 0);
  GlobalTime& lastTs = lastStampTs_[node];
  if (ts > lastTs) lastTs = ts;
  Line& line = lineAt(node, block);
  if (!line.sawStamp) {
    line.sawStamp = true;
    if (node >= cfg_.numProcessors) {
      // A directory entry starts Idle = A_X: memory is the valid copy.
      line.current = clk::Epoch{node, block, AState::X, 0, clk::kOpenEpoch,
                                kNoTransaction, 0};
      line.hasCurrent = true;
      report_.epochsBuilt += 1;
    }
  }
  if (line.hasCurrent) closeCurrent(line, ts);
  line.current =
      clk::Epoch{node, block, newA, ts, clk::kOpenEpoch, txn, serial};
  line.hasCurrent = true;
  report_.epochsBuilt += 1;
}

void StreamEpochs::onOperation(const OpRecord& op) {
  report_.opsChecked += 1;
  if (op.forwarded) {
    // Store-buffer forwarded loads never touch the coherence protocol;
    // they are validated by the TSO forwarding check instead.
    if (!cfg_.tso) {
      addViolation("lemma2",
                   "forwarded load in an SC-mode trace: " + opToString(op));
    }
    return;
  }
  Line& line = lineAt(op.proc, op.block);
  // Latest epoch of the bound transaction at this line: the current epoch
  // first, then the closed history newest-to-oldest.
  if (line.hasCurrent && line.current.txn == op.boundTxn) {
    const GlobalTime nodeClock =
        op.proc < lastStampTs_.size() ? lastStampTs_[op.proc] : 0;
    if (op.ts.global >= line.current.start && op.ts.global > nodeClock &&
        line.parked.size() < kParkedOpsCap) {
      // The epoch's end is still unknown and the node clock has not yet
      // passed the op, so containment cannot be decided — defer to close.
      // (On faithful streams ops never out-run their node's clock, so
      // this path is exercised only by hand-built or broken traces.)
      line.parked.push_back(op);
      return;
    }
    checkAgainstEpoch(op, line.current, false);
    return;
  }
  for (auto it = line.history.rbegin(); it != line.history.rend(); ++it) {
    if (it->txn == op.boundTxn) {
      checkAgainstEpoch(op, *it, true);
      return;
    }
  }
  addViolation("lemma2",
               "operation bound to a transaction with no epoch at its "
               "processor: " + opToString(op));
}

void StreamEpochs::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::deque<Line>& row : lines_) {
    for (Line& line : row) {
      if (!line.hasCurrent) continue;
      const clk::Epoch e = line.current;  // end stays open
      for (const OpRecord& op : line.parked) checkAgainstEpoch(op, e, false);
      line.parked.clear();
      if (lemma1Relevant(e)) {
        auto& hist = closedAt(e.block);
        if (e.start < closedMaxEnd_[e.block]) {
          for (const clk::Epoch& other : hist) {
            if (other.node == e.node) continue;
            if (!epochsOverlap(e, other)) continue;
            if (e.state != AState::X && other.state != AState::X) continue;
            const bool eLater = e.start >= other.start;
            addViolation("lemma1",
                         "overlapping epochs: " +
                             epochToString(eLater ? e : other) + " vs " +
                             epochToString(eLater ? other : e));
          }
        }
        hist.push_back(e);
        closedMaxEnd_[e.block] = std::max(closedMaxEnd_[e.block], e.end);
        if (hist.size() > kBlockHistoryCap) hist.pop_front();
      }
      line.hasCurrent = false;
    }
  }
}

void StreamEpochs::reset(const VerifyConfig& cfg) {
  StreamChecker::reset(cfg);
  for (std::deque<Line>& row : lines_) {
    for (Line& line : row) {
      line.sawStamp = false;
      line.hasCurrent = false;
      line.parked.clear();
      line.history.clear();
    }
  }
  for (PoolDeque<clk::Epoch>& hist : closedByBlock_) hist.clear();
  std::fill(closedMaxEnd_.begin(), closedMaxEnd_.end(), 0);
  std::fill(lastStampTs_.begin(), lastStampTs_.end(), 0);
}

std::size_t StreamEpochs::memoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const std::deque<Line>& row : lines_) {
    for (const Line& line : row) {
      bytes += sizeof(Line);
      bytes += line.parked.size() * sizeof(OpRecord);
      bytes += line.history.size() * sizeof(clk::Epoch);
    }
  }
  for (const PoolDeque<clk::Epoch>& hist : closedByBlock_) {
    bytes += hist.size() * sizeof(clk::Epoch);
  }
  bytes += lastStampTs_.size() * sizeof(GlobalTime);
  return bytes;
}

// ---------------------------------------------------------------------------
// Main Theorem replay (+ total order, + TSO forwarding)
// ---------------------------------------------------------------------------
StreamSequentialConsistency::ProcStream& StreamSequentialConsistency::procAt(
    NodeId proc) {
  while (procs_.size() <= proc) procs_.emplace_back(&pool_);
  return procs_[proc];
}

StreamSequentialConsistency::StoreCell&
StreamSequentialConsistency::storeCellAt(BlockId block, WordIdx word) {
  if (lastStore_.size() <= block) lastStore_.resize(block + 1);
  std::vector<StoreCell>& row = lastStore_[block];
  if (row.size() <= word) row.resize(word + 1);
  return row[word];
}

const StreamSequentialConsistency::StoreCell*
StreamSequentialConsistency::findStoreCell(BlockId block, WordIdx word) const {
  if (block >= lastStore_.size()) return nullptr;
  const std::vector<StoreCell>& row = lastStore_[block];
  if (word >= row.size() || !row[word].has) return nullptr;
  return &row[word];
}

void StreamSequentialConsistency::judgeForwarded(const OpRecord& load,
                                                 const OpRecord* source) {
  if (source == nullptr) {
    addViolation("tso-forwarding",
                 "forwarded load with no program-order-earlier store: " +
                     opToString(load));
  } else if (source->value != load.value) {
    addViolation("tso-forwarding",
                 "forwarded load returned " + opToString(load) +
                     " but the youngest earlier store is " +
                     opToString(*source));
  }
}

void StreamSequentialConsistency::onOperation(const OpRecord& op) {
  report_.opsChecked += 1;
  if (op.forwarded) {
    if (!cfg_.tso) {
      // An SC machine has no store buffer; SC mode treats the forwarded
      // load as sourceless, like the batch check always did.
      judgeForwarded(op, nullptr);
    } else {
      // Judged once the processor's store stream retires past the load's
      // program position (or at finish): only then is "the youngest
      // program-order-earlier store" final.
      fwd_.try_emplace({op.proc, op.block, op.word}, &pool_)
          .first->second.pending.push_back(op);
    }
  } else if (op.kind == OpKind::Store && cfg_.tso) {
    FwdState& f =
        fwd_.try_emplace({op.proc, op.block, op.word}, &pool_).first->second;
    while (!f.pending.empty() && f.pending.front().progIdx < op.progIdx) {
      judgeForwarded(f.pending.front(), f.hasStore ? &f.lastStore : nullptr);
      f.pending.pop_front();
    }
    f.hasStore = true;
    f.lastStore = op;
  }

  // Everything — forwarded loads included, for the total-order scan —
  // enters the merge window and retires in global Lamport order.
  ProcStream& s = procAt(op.proc);
  s.heard = true;
  s.lastArrival = op.ts;
  s.pending.push_back(op);
  ++buffered_;
  drain(/*atEnd=*/false);
}

void StreamSequentialConsistency::drain(bool atEnd) {
  if (!allHeard_) {
    // Heard-ness is monotone, so this settles permanently once true.
    bool all = procs_.size() >= cfg_.numProcessors;
    for (NodeId p = 0; all && p < cfg_.numProcessors; ++p) {
      all = procs_[p].heard;
    }
    allHeard_ = all;
  }
  for (;;) {
    ProcStream* best = nullptr;
    bool anyEmpty = false;
    Timestamp minEmptyArrival{};
    const std::size_t n = procs_.size();
    for (std::size_t i = 0; i < n; ++i) {
      ProcStream& s = procs_[i];
      if (s.pending.empty()) {
        // Only real processors gate the merge (matching the safety rule
        // below); a rogue high-id stream never blocks it.
        if (i < cfg_.numProcessors) {
          if (!anyEmpty || s.lastArrival < minEmptyArrival) {
            minEmptyArrival = s.lastArrival;
          }
          anyEmpty = true;
        }
        continue;
      }
      if (best == nullptr || s.pending.front().ts < best->pending.front().ts) {
        best = &s;
      }
    }
    if (best == nullptr) return;
    if (!atEnd && buffered_ <= kScReorderCap) {
      // The head may retire only once every processor has provably moved
      // past it: a queue head above it, or a newest arrival at/above it
      // (per-processor timestamps are monotone, so everything that
      // processor emits later is above its newest arrival).
      if (!allHeard_) return;
      if (anyEmpty && minEmptyArrival < best->pending.front().ts) return;
    }
    retire(best->pending.front());
    best->pending.pop_front();
    --buffered_;
  }
}

void StreamSequentialConsistency::retire(const OpRecord& op) {
  // Total order sanity: merged timestamps must be globally unique (and the
  // merge emits them in nondecreasing order on any per-processor-monotone
  // stream, so a regression here means the stream itself was malformed).
  if (hasRetired_ && !(lastRetired_.ts < op.ts)) {
    if (lastRetired_.ts == op.ts) {
      addViolation("total-order", "two operations share a timestamp: " +
                                      opToString(lastRetired_) + " and " +
                                      opToString(op));
    } else {
      addViolation("total-order",
                   "operation timestamps regress in observation order: " +
                       opToString(lastRetired_) + " then " + opToString(op));
    }
  }
  hasRetired_ = true;
  lastRetired_ = op;

  if (op.forwarded) return;  // judged against its own store stream instead

  if (op.kind == OpKind::Store) {
    StoreCell& cell = storeCellAt(op.block, op.word);
    cell.has = true;
    cell.op = op;
    return;
  }
  const StoreCell* cell = findStoreCell(op.block, op.word);
  const Word expected = cell == nullptr ? 0 : cell->op.value;
  if (op.value != expected) {
    std::ostringstream os;
    os << "load returns " << op.value << " but the most recent store in "
       << "Lamport order "
       << (cell == nullptr
               ? std::string("is absent (expected the initial value 0)")
               : "is " + opToString(cell->op));
    os << "; load: " << opToString(op);
    addViolation(cfg_.tso ? "tso-memory-order" : "sequential-consistency",
                 os.str());
  }
}

void StreamSequentialConsistency::finish() {
  if (finished_) return;
  finished_ = true;
  // No further ops can arrive: release the merge window unconditionally
  // (still smallest-timestamp first), then judge forwarded loads with no
  // later same-word store — the youngest retired store is final now.
  drain(/*atEnd=*/true);
  for (auto& [key, f] : fwd_) {
    for (const OpRecord& l : f.pending) {
      judgeForwarded(l, f.hasStore ? &f.lastStore : nullptr);
    }
    f.pending.clear();
  }
}

void StreamSequentialConsistency::reset(const VerifyConfig& cfg) {
  StreamChecker::reset(cfg);
  for (ProcStream& s : procs_) {
    s.heard = false;
    s.lastArrival = Timestamp{};
    s.pending.clear();
  }
  buffered_ = 0;
  allHeard_ = false;
  hasRetired_ = false;
  for (std::vector<StoreCell>& row : lastStore_) {
    for (StoreCell& cell : row) cell.has = false;
  }
  for (auto& [key, f] : fwd_) {
    f.hasStore = false;
    f.pending.clear();
  }
}

std::size_t StreamSequentialConsistency::memoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const ProcStream& s : procs_) {
    bytes += sizeof(ProcStream);
    bytes += s.pending.size() * sizeof(OpRecord);
  }
  for (const std::vector<StoreCell>& row : lastStore_) {
    bytes += row.size() * sizeof(StoreCell);
  }
  for (const auto& [key, f] : fwd_) {
    bytes += sizeof(key) + sizeof(FwdState) + 48;
    bytes += f.pending.size() * sizeof(OpRecord);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Lemma 3 at every value transfer
// ---------------------------------------------------------------------------
StreamValueChain::StreamValueChain(const VerifyConfig& cfg)
    : StreamChecker(cfg),
      live_(0, std::hash<TransactionId>{}, std::equal_to<TransactionId>{},
            common::PoolAllocator<std::pair<const TransactionId, LiveTxn>>(
                &pool_)),
      liveFifo_(common::PoolAllocator<TransactionId>(&pool_)) {}

std::vector<StreamValueChain::StoreAt>& StreamValueChain::storesAt(
    BlockId block, WordIdx word) {
  if (stores_.size() <= block) stores_.resize(block + 1);
  std::vector<std::vector<StoreAt>>& row = stores_[block];
  if (row.size() <= word) row.resize(word + 1);
  return row[word];
}

std::vector<StreamValueChain::StoreAt>* StreamValueChain::findStores(
    BlockId block, WordIdx word) {
  if (block >= stores_.size()) return nullptr;
  std::vector<std::vector<StoreAt>>& row = stores_[block];
  if (word >= row.size()) return nullptr;
  return &row[word];
}

PoolMultiset<GlobalTime>& StreamValueChain::floorsAt(BlockId block) {
  while (floors_.size() <= block) {
    floors_.emplace_back(std::less<GlobalTime>{},
                         common::PoolAllocator<GlobalTime>(&pool_));
  }
  return floors_[block];
}

void StreamValueChain::trackLive(TransactionId txn, BlockId block,
                                 GlobalTime floor, bool upgraded) {
  live_.insert_or_assign(txn, LiveTxn{block, floor, upgraded});
  floorsAt(block).insert(floor);
  liveFifo_.push_back(txn);
  while (liveFifo_.size() > kLiveTxnCap) {
    dropLive(liveFifo_.front());
    liveFifo_.pop_front();
  }
}

void StreamValueChain::dropLive(TransactionId txn) {
  const auto it = live_.find(txn);
  if (it == live_.end()) return;
  if (it->second.block < floors_.size()) {
    auto& fs = floors_[it->second.block];
    const auto vit = fs.find(it->second.floor);
    if (vit != fs.end()) fs.erase(vit);
  }
  live_.erase(it);
}

void StreamValueChain::moveFloor(LiveTxn& t, GlobalTime ts) {
  auto& fs = floorsAt(t.block);
  const auto vit = fs.find(t.floor);
  if (vit != fs.end()) fs.erase(vit);
  fs.insert(ts);
  t.floor = ts;
}

void StreamValueChain::onSerialize(const proto::TxnInfo& txn) {
  dropLive(txn.id);  // id reuse is impossible on faithful streams
  trackLive(txn.id, txn.block, 0, /*upgraded=*/false);
}

void StreamValueChain::onStamp(NodeId node, TransactionId txn,
                               SerialIdx serial, BlockId block, StampRole role,
                               GlobalTime ts, AState oldA, AState newA) {
  const auto lit = live_.find(txn);
  if (role != StampRole::Upgrade) {
    // A downgrade raises the pending floor: Claim 3(a) keeps every
    // downgrade at or below the upgrade (= t1) still to come.
    if (lit != live_.end() && !lit->second.upgraded &&
        ts > lit->second.floor) {
      moveFloor(lit->second, ts);
    }
    return;
  }
  while (upgrades_.size() <= node) upgrades_.emplace_back(&pool_);
  NodeUpgrades& u = upgrades_[node];
  const auto it = u.ts.find(txn);
  if (it != u.ts.end()) {
    it->second = ts;  // re-stamp of a known transaction: supersede
  } else {
    u.ts.emplace(txn, ts);
    u.fifo.push_back(txn);
    while (u.fifo.size() > kUpgradeCap) {
      const auto evict = u.ts.find(u.fifo.front());
      u.fifo.pop_front();
      if (evict != u.ts.end()) u.ts.erase(evict);
    }
  }
  if (lit != live_.end()) {
    moveFloor(lit->second, ts);
    lit->second.upgraded = true;
  } else {
    // Serialization unobserved (truncated stream): start tracking here.
    trackLive(txn, block, ts, /*upgraded=*/true);
  }
}

void StreamValueChain::onOperation(const OpRecord& op) {
  if (op.kind != OpKind::Store) return;
  auto& v = storesAt(op.block, op.word);
  const StoreAt s{op.ts.global, op.ts.local, op.ts.pid, op.value};
  const auto pos = std::upper_bound(
      v.begin(), v.end(), s, [](const StoreAt& a, const StoreAt& b) {
        if (a.global != b.global) return a.global < b.global;
        if (a.local != b.local) return a.local < b.local;
        return a.pid < b.pid;
      });
  v.insert(pos, s);
}

void StreamValueChain::onValueReceived(NodeId node, TransactionId txn,
                                       BlockId block,
                                       const BlockValue& value) {
  if (node >= upgrades_.size()) return;
  NodeUpgrades& u = upgrades_[node];
  const auto tit = u.ts.find(txn);
  if (tit == u.ts.end()) return;  // downgrade-side receipt (home)
  const GlobalTime t1 = tit->second;
  // Consumed: a transaction has exactly one judgeable value receipt, so it
  // stops holding the prune floor down.
  u.ts.erase(tit);
  dropLive(txn);

  // Every future judgeable receipt on this block starts at or above the
  // minimum floor of its still-live transactions: a live one's t1 is at or
  // above its own floor, and a not-yet-serialized one's t1 exceeds the
  // epoch starts already live (Claim 3(b) for the exclusive side; for the
  // shared side any store under an older start would sit in an exclusive
  // epoch overlapping the new one, which Lemma 1 forbids).
  const GlobalTime pruneFloor =
      block >= floors_.size() || floors_[block].empty()
          ? clk::kOpenEpoch
          : *floors_[block].begin();

  report_.txnsChecked += 1;
  for (WordIdx w = 0; w < value.size(); ++w) {
    std::vector<StoreAt>* v = findStores(block, w);
    Word expected = 0;
    if (v != nullptr) {
      // Most recent store strictly before t1 (stores of the receiving
      // epoch itself have global >= t1).
      const auto firstAt = std::lower_bound(
          v->begin(), v->end(), t1,
          [](const StoreAt& s, GlobalTime t) { return s.global < t; });
      if (firstAt != v->begin()) expected = (firstAt - 1)->value;
    }
    if (value[w] != expected) {
      std::ostringstream os;
      os << "lemma 3: node " << node << " received word " << w << " of block "
         << block << " = " << value[w] << " for txn " << txn
         << " (epoch start " << t1 << "), but the most recent store prior to "
         << t1 << " wrote " << expected;
      addViolation("lemma3-values", os.str());
    }
    // Prune to the youngest store below the floor (plus everything above
    // it) — bounded history without ever dropping a store a future
    // receipt could still name.
    if (v != nullptr) {
      const auto keepFrom = std::lower_bound(
          v->begin(), v->end(), pruneFloor,
          [](const StoreAt& s, GlobalTime t) { return s.global < t; });
      if (keepFrom - v->begin() > 1) v->erase(v->begin(), keepFrom - 1);
    }
  }
}

void StreamValueChain::reset(const VerifyConfig& cfg) {
  StreamChecker::reset(cfg);
  for (std::vector<std::vector<StoreAt>>& row : stores_) {
    for (std::vector<StoreAt>& v : row) v.clear();
  }
  for (NodeUpgrades& u : upgrades_) {
    u.ts.clear();
    u.fifo.clear();
  }
  live_.clear();
  liveFifo_.clear();
  for (PoolMultiset<GlobalTime>& fs : floors_) fs.clear();
}

std::size_t StreamValueChain::memoryFootprint() const {
  std::size_t bytes = sizeof(*this);
  for (const std::vector<std::vector<StoreAt>>& row : stores_) {
    for (const std::vector<StoreAt>& v : row) {
      bytes += sizeof(v) + v.size() * sizeof(StoreAt);
    }
  }
  for (const NodeUpgrades& u : upgrades_) {
    bytes += sizeof(NodeUpgrades);
    bytes += u.ts.size() * (sizeof(TransactionId) + sizeof(GlobalTime) + 48);
    bytes += u.fifo.size() * sizeof(TransactionId);
  }
  bytes += live_.size() * (sizeof(TransactionId) + sizeof(LiveTxn) + 16);
  bytes += liveFifo_.size() * sizeof(TransactionId);
  for (const PoolMultiset<GlobalTime>& fs : floors_) {
    bytes += fs.size() * (sizeof(GlobalTime) + 48);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// The full suite as one pipeline stage
// ---------------------------------------------------------------------------
StreamCheckerSet::StreamCheckerSet(const VerifyConfig& cfg)
    : cfg_(cfg),
      programOrder_(cfg),
      claim2_(cfg),
      claim3_(cfg),
      epochs_(cfg),
      sc_(cfg),
      valueChain_(cfg) {}

void StreamCheckerSet::finish() {
  if (finished_) return;
  finished_ = true;
  programOrder_.finish();
  claim2_.finish();
  claim3_.finish();
  epochs_.finish();
  sc_.finish();
  valueChain_.finish();
}

void StreamCheckerSet::reset(const VerifyConfig& cfg) {
  cfg_ = cfg;
  programOrder_.reset(cfg);
  claim2_.reset(cfg);
  claim3_.reset(cfg);
  epochs_.reset(cfg);
  sc_.reset(cfg);
  valueChain_.reset(cfg);
  opsSeen_ = 0;
  txnsSeen_ = 0;
  finished_ = false;
}

CheckReport StreamCheckerSet::report() const {
  CheckReport r;
  const StreamChecker* cores[] = {&programOrder_, &claim2_, &claim3_,
                                  &epochs_,       &sc_,     &valueChain_};
  for (const StreamChecker* core : cores) {
    const CheckReport& part = core->report();
    r.violations.insert(r.violations.end(), part.violations.begin(),
                        part.violations.end());
    r.epochsBuilt = std::max(r.epochsBuilt, part.epochsBuilt);
  }
  r.opsChecked = opsSeen_;
  r.txnsChecked = txnsSeen_;
  return r;
}

std::size_t StreamCheckerSet::memoryFootprint() const {
  return sizeof(*this) + programOrder_.memoryFootprint() +
         claim2_.memoryFootprint() + claim3_.memoryFootprint() +
         epochs_.memoryFootprint() + sc_.memoryFootprint() +
         valueChain_.memoryFootprint();
}

void StreamCheckerSet::onRunBegin(const SystemConfig& config) {
  // A VerifyConfig built for one backend silently mis-checks another's
  // traffic (e.g. Tardis leases validated under directory assumptions), so
  // a mismatched pair is a programming error, not a verdict.
  if (config.protocol != cfg_.protocol) {
    throw SimError(std::string("checker/backend mismatch: checkers built "
                               "for protocol '") +
                   lcdc::toString(cfg_.protocol) + "' attached to a '" +
                   lcdc::toString(config.protocol) + "' run");
  }
}
void StreamCheckerSet::onRunEnd(const RunResult& result) {}

void StreamCheckerSet::onSerialize(const proto::TxnInfo& txn) {
  txnsSeen_ += 1;
  claim3_.onSerialize(txn);
  valueChain_.onSerialize(txn);
}

void StreamCheckerSet::onTxnConverted(TransactionId id, TxnKind newKind) {
  claim3_.onTxnConverted(id, newKind);
}

void StreamCheckerSet::onStamp(NodeId node, TransactionId txn,
                               SerialIdx serial, BlockId block, StampRole role,
                               GlobalTime ts, AState oldA, AState newA) {
  claim2_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  claim3_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  epochs_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
  valueChain_.onStamp(node, txn, serial, block, role, ts, oldA, newA);
}

void StreamCheckerSet::onValueReceived(NodeId node, TransactionId txn,
                                       BlockId block,
                                       const BlockValue& value) {
  valueChain_.onValueReceived(node, txn, block, value);
}

void StreamCheckerSet::onOperation(const proto::OpRecord& op) {
  opsSeen_ += 1;
  programOrder_.onOperation(op);
  epochs_.onOperation(op);
  sc_.onOperation(op);
  valueChain_.onOperation(op);
}

void StreamCheckerSet::onNack(NodeId requester, BlockId block, NackKind kind) {}
void StreamCheckerSet::onPutShared(NodeId node, BlockId block) {}
void StreamCheckerSet::onDeadlockResolved(NodeId node, BlockId block,
                                          NodeId impliedAcker) {}

// ---------------------------------------------------------------------------
// StatsObserver
// ---------------------------------------------------------------------------
void StatsObserver::noteEvent() {
  stats_.events += 1;
  if (watch_ != nullptr && (stats_.events & 0xFFFU) == 0) {
    stats_.peakCheckerBytes =
        std::max(stats_.peakCheckerBytes, watch_->memoryFootprint());
  }
}

std::string StatsObserver::report() const {
  std::ostringstream os;
  os << "events: " << stats_.events << '\n';
  os << "  serializations: " << stats_.serializations
     << " (conversions: " << stats_.conversions << ")\n";
  os << "  stamps: " << stats_.stamps << " (upgrades " << stats_.upgrades
     << ", downgrades " << stats_.downgrades << ")\n";
  os << "  operations: " << stats_.operations << " (loads " << stats_.loads
     << ", stores " << stats_.stores << ", forwarded "
     << stats_.forwardedLoads << ")\n";
  os << "  value transfers: " << stats_.valueTransfers << '\n';
  os << "  nacks: " << stats_.nacks << ", put-shared: " << stats_.putShareds
     << ", deadlocks resolved: " << stats_.deadlocksResolved << '\n';
  if (!stats_.txnsByKind.empty()) {
    os << "txns by kind (as serialized):\n";
    for (const auto& [kind, n] : stats_.txnsByKind) {
      os << "  " << toString(kind) << ": " << n << '\n';
    }
  }
  if (watch_ != nullptr) {
    os << "peak checker state: " << stats_.peakCheckerBytes << " bytes\n";
  }
  return os.str();
}

void StatsObserver::onRunBegin(const SystemConfig& config) {
  stats_.haveConfig = true;
  stats_.config = config;
  beginNanos_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void StatsObserver::onRunEnd(const RunResult& result) {
  stats_.haveResult = true;
  stats_.result = result;
  if (beginNanos_ != 0) {
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    stats_.seconds = static_cast<double>(now - beginNanos_) * 1e-9;
  }
  if (watch_ != nullptr) {
    stats_.peakCheckerBytes =
        std::max(stats_.peakCheckerBytes, watch_->memoryFootprint());
  }
}

void StatsObserver::onSerialize(const proto::TxnInfo& txn) {
  noteEvent();
  stats_.serializations += 1;
  stats_.txnsByKind[txn.kind] += 1;
}

void StatsObserver::onTxnConverted(TransactionId id, TxnKind newKind) {
  noteEvent();
  stats_.conversions += 1;
}

void StatsObserver::onStamp(NodeId node, TransactionId txn, SerialIdx serial,
                            BlockId block, proto::StampRole role,
                            GlobalTime ts, AState oldA, AState newA) {
  noteEvent();
  stats_.stamps += 1;
  if (role == StampRole::Upgrade) {
    stats_.upgrades += 1;
  } else {
    stats_.downgrades += 1;
  }
}

void StatsObserver::onValueReceived(NodeId node, TransactionId txn,
                                    BlockId block, const BlockValue& value) {
  noteEvent();
  stats_.valueTransfers += 1;
}

void StatsObserver::onOperation(const proto::OpRecord& op) {
  noteEvent();
  stats_.operations += 1;
  if (op.kind == OpKind::Store) {
    stats_.stores += 1;
  } else {
    stats_.loads += 1;
    if (op.forwarded) stats_.forwardedLoads += 1;
  }
}

void StatsObserver::onNack(NodeId requester, BlockId block, NackKind kind) {
  noteEvent();
  stats_.nacks += 1;
}

void StatsObserver::onPutShared(NodeId node, BlockId block) {
  noteEvent();
  stats_.putShareds += 1;
}

void StatsObserver::onDeadlockResolved(NodeId node, BlockId block,
                                       NodeId impliedAcker) {
  noteEvent();
  stats_.deadlocksResolved += 1;
}

}  // namespace lcdc::verify
