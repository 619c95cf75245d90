#include "mc/replay.hpp"

#include <sstream>
#include <vector>

#include "backend/backend.hpp"
#include "common/expect.hpp"
#include "proto/observer.hpp"
#include "sim/system.hpp"
#include "tardis/tardis_system.hpp"
#include "trace/trace.hpp"
#include "verify/stream.hpp"
#include "workload/program.hpp"

namespace lcdc::mc {

namespace {

/// The simulator configuration that mirrors an MC world: one home (id
/// numProcessors), no programs, no retry pacing, manual network.
SystemConfig replaySystemConfig(const McConfig& cfg) {
  SystemConfig sys;
  sys.protocol = cfg.protocol;
  sys.proto = cfg.proto;
  sys.numProcessors = cfg.numProcessors;
  sys.numDirectories = 1;
  sys.numBlocks = cfg.numBlocks;
  sys.cacheCapacity = 0;
  sys.minLatency = 1;
  sys.maxLatency = 1;
  sys.retryDelay = 0;
  sys.seed = 1;
  sys.storeBufferDepth = 0;
  return sys;
}

/// Apply `schedule` to `sys` (a `sim::System` or `tardis::TardisSystem`
/// in manual network mode, `tee` its sink) and finish the run.
template <typename Sys>
void replayOn(Sys& sys, proto::TeeSink& tee, const McConfig& cfg,
              const Schedule& schedule, ReplayResult& res) {
  tee.onRunBegin(sys.config());

  // Replayed stores carry globally unique values (the MC's mod-4 version
  // counter is an abstraction; control flow is value-independent, and
  // unique values give the value-chain checker maximal discrimination).
  std::vector<std::uint64_t> storeSeq(cfg.numProcessors, 0);

  const auto bindLoads = [&sys, &cfg] {
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      for (BlockId b = 0; b < cfg.numBlocks; ++b) {
        (void)sys.injectBind(p, b, OpKind::Load, 0, 0);
      }
    }
  };

  std::size_t applied = 0;
  try {
    for (const Action& a : schedule) {
      switch (a.kind) {
        case Action::Kind::Deliver: {
          const auto& pending = sys.network().pending();
          if (a.flightIndex >= pending.size()) {
            std::ostringstream os;
            os << "step " << applied << ": flight index " << a.flightIndex
               << " out of range (" << pending.size() << " pending)";
            res.divergence = os.str();
            break;
          }
          const net::Envelope& env = pending[a.flightIndex];
          if (env.dst != a.dst || env.msg.type != a.msgType ||
              env.msg.block != a.block) {
            std::ostringstream os;
            os << "step " << applied << ": pending message #" << a.flightIndex
               << " is " << proto::toString(env.msg.type) << " -> node "
               << env.dst << " (block " << env.msg.block
               << "), schedule expected " << toString(a);
            res.divergence = os.str();
            break;
          }
          sys.deliverManual(a.flightIndex);
          break;
        }
        case Action::Kind::Issue:
          sys.injectRequest(a.proc, a.block, a.req);
          break;
        case Action::Kind::Evict:
          sys.injectEvict(a.proc, a.block);
          break;
        case Action::Kind::Store: {
          const Word v =
              workload::makeStoreValue(a.proc, storeSeq[a.proc]++);
          if (!sys.injectBind(a.proc, a.block, OpKind::Store, 0, v)) {
            std::ostringstream os;
            os << "step " << applied << ": store by node " << a.proc
               << " on block " << a.block << " not bindable";
            res.divergence = os.str();
          }
          break;
        }
      }
      if (!res.divergence.empty()) break;
      applied += 1;
      bindLoads();
    }
    res.scheduleCompleted = res.divergence.empty();
  } catch (const ProtocolError& e) {
    // The schedule reproduced an Appendix-B invariant violation — exactly
    // what a "protocol invariant" MC counterexample predicts.
    res.invariant = e.what();
  }

  res.deadlocked = sys.network().empty() && !sys.quiescent();
  res.opsBound = sys.totalOpsBound();

  RunResult rr;
  rr.outcome = res.deadlocked ? RunResult::Outcome::Deadlock
                              : RunResult::Outcome::Quiescent;
  rr.opsBound = res.opsBound;
  rr.endTime = sys.now();
  rr.eventsProcessed = applied;
  tee.onRunEnd(rr);
}

}  // namespace

ReplayResult replayCounterexample(const McConfig& cfg,
                                  const Schedule& schedule,
                                  trace::Trace* traceOut) {
  ReplayResult res;
  const SystemConfig sysCfg = replaySystemConfig(cfg);
  verify::VerifyConfig vcfg = proto::verifyConfigFor(sysCfg);
  // A counterexample is a prefix of an execution: transactions may still
  // be open when the schedule ends.
  vcfg.expectComplete = false;
  verify::StreamCheckerSet checkers(vcfg);
  proto::TeeSink tee;
  if (traceOut != nullptr) tee.attach(*traceOut);
  tee.attach(checkers);
  if (cfg.protocol == ProtocolKind::Tardis) {
    tardis::TardisSystem sys(sysCfg, tee, net::Network::Mode::Manual);
    replayOn(sys, tee, cfg, schedule, res);
  } else {
    sim::System sys(sysCfg, tee, net::Network::Mode::Manual);
    replayOn(sys, tee, cfg, schedule, res);
  }
  checkers.finish();
  res.report = checkers.report();
  return res;
}

}  // namespace lcdc::mc
