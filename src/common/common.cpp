#include <sstream>

#include "common/config.hpp"
#include "common/expect.hpp"
#include "common/timestamp.hpp"
#include "common/types.hpp"

namespace lcdc {

std::string toString(ReqType t) {
  switch (t) {
    case ReqType::GetShared: return "Get-Shared";
    case ReqType::GetExclusive: return "Get-Exclusive";
    case ReqType::Upgrade: return "Upgrade";
    case ReqType::Writeback: return "Writeback";
  }
  return "ReqType(?)";
}

std::string toString(CacheState s) {
  switch (s) {
    case CacheState::Invalid: return "invalid";
    case CacheState::ReadOnly: return "read-only";
    case CacheState::ReadWrite: return "read-write";
  }
  return "CacheState(?)";
}

std::string toString(AState s) {
  switch (s) {
    case AState::I: return "A_I";
    case AState::S: return "A_S";
    case AState::X: return "A_X";
  }
  return "AState(?)";
}

std::string toString(DirState s) {
  switch (s) {
    case DirState::Idle: return "Idle";
    case DirState::Shared: return "Shared";
    case DirState::Exclusive: return "Exclusive";
    case DirState::BusyShared: return "Busy-Shared";
    case DirState::BusyExclusive: return "Busy-Exclusive";
    case DirState::BusyIdle: return "Busy-Idle";
  }
  return "DirState(?)";
}

std::string toString(TxnKind k) {
  switch (k) {
    case TxnKind::GetS_Idle: return "1:GetS/Idle";
    case TxnKind::GetS_Shared: return "2:GetS/Shared";
    case TxnKind::GetS_Exclusive: return "3:GetS/Exclusive";
    case TxnKind::GetX_Idle: return "5:GetX/Idle";
    case TxnKind::GetX_Shared: return "6:GetX/Shared";
    case TxnKind::GetX_Exclusive: return "7:GetX/Exclusive";
    case TxnKind::Upg_Shared: return "9:Upg/Shared";
    case TxnKind::Wb_Exclusive: return "12:Wb/Exclusive";
    case TxnKind::Wb_BusyShared: return "13:Wb/Busy-Shared";
    case TxnKind::Wb_BusyExclusive: return "14a:Wb/Busy-Exclusive";
    case TxnKind::Wb_BusyExclusiveSelf: return "14b:Wb/Busy-Exclusive-self";
  }
  return "TxnKind(?)";
}

std::string toString(NackKind k) {
  switch (k) {
    case NackKind::GetS_Busy: return "4:GetS/Busy-Any";
    case NackKind::GetX_Busy: return "8:GetX/Busy-Any";
    case NackKind::Upg_Exclusive: return "10:Upg/Exclusive";
    case NackKind::Upg_Busy: return "11:Upg/Busy-Any";
  }
  return "NackKind(?)";
}

std::string toString(OpKind k) {
  return k == OpKind::Load ? "LD" : "ST";
}

std::string toString(const Timestamp& ts) {
  std::ostringstream os;
  os << '(' << ts.global << ',' << ts.local << ",p" << ts.pid << ')';
  return os.str();
}

const char* toString(Mutant m) {
  switch (m) {
    case Mutant::None: return "none";
    case Mutant::SkipInvAckWait: return "skip-inv-ack-wait";
    case Mutant::StaleDataFromHome: return "stale-data-from-home";
    case Mutant::IgnoreInvalidation: return "ignore-invalidation";
    case Mutant::ForwardStaleValue: return "forward-stale-value";
    case Mutant::NoBusyNack: return "no-busy-nack";
    case Mutant::NoDeadlockDetection: return "no-deadlock-detection";
    case Mutant::DropLeaseBump: return "drop-lease-bump";
    case Mutant::FlushStaleEpoch: return "flush-stale-epoch";
    case Mutant::CompleteStaleEpoch: return "complete-stale-epoch";
    case Mutant::DisplaceParkedFlush: return "displace-parked-flush";
    case Mutant::SkipWbClockAbsorb: return "skip-wb-clock-absorb";
    case Mutant::StaleWbForward: return "stale-wb-forward";
  }
  return "mutant(?)";
}

const char* toString(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::Directory: return "dir";
    case ProtocolKind::Bus: return "bus";
    case ProtocolKind::Tardis: return "tardis";
  }
  return "protocol(?)";
}

void requireMutant(ProtocolKind k, Mutant m) {
  if (implementsMutant(k, m)) return;
  std::string msg = std::string("mutant '") + toString(m) +
                    "' is not implemented by the " + toString(k) +
                    " backend, which implements:";
  const char* sep = " ";
  for (const Mutant other : kAllMutants) {
    if (other == Mutant::None || !implementsMutant(k, other)) continue;
    msg += sep;
    msg += toString(other);
    sep = ", ";
  }
  throw SimError(msg);
}

void failExpect(const char* cond, const char* file, int line,
                const std::string& msg) {
  std::ostringstream os;
  os << "protocol invariant violated: " << cond << " at " << file << ':'
     << line;
  if (!msg.empty()) os << " — " << msg;
  throw ProtocolError(os.str());
}

}  // namespace lcdc
