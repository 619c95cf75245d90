#include "backend/backend.hpp"

#include <iostream>
#include <ostream>
#include <type_traits>

#include "bus/bus_system.hpp"
#include "common/expect.hpp"
#include "sim/system.hpp"
#include "tardis/tardis_system.hpp"

namespace lcdc::proto {

void BackendSystem::reset(std::uint64_t) {
  throw SimError("this backend does not support in-place reset");
}

void BackendSystem::printStats(std::ostream&) const {}

namespace {

/// The two simulators on the shared event loop (`sim::System`,
/// `tardis::TardisSystem`) need no adaptation.
template <typename Sys>
class EventLoopSystem final : public BackendSystem {
 public:
  EventLoopSystem(const SystemConfig& cfg, EventSink& sink,
                  net::Network::Mode mode)
      : sys_(cfg, sink, mode) {}

  void setProgram(NodeId proc, const workload::Program& program) override {
    sys_.setProgram(proc, program);
  }
  RunResult run(std::uint64_t maxEvents) override {
    return maxEvents == 0 ? sys_.run() : sys_.run(maxEvents);
  }
  [[nodiscard]] bool supportsReset() const override { return true; }
  void reset(std::uint64_t seed) override { sys_.reset(seed); }
  [[nodiscard]] net::Network* network() override { return &sys_.network(); }
  void printStats(std::ostream& os) const override {
    if constexpr (std::is_same_v<Sys, tardis::TardisSystem>) {
      const tardis::TardisStats s = sys_.stats();
      os << "tardis: " << s.sharedGrants << " shared grants ("
         << s.leaseRenewals << " renewals, " << s.leaseExpiries
         << " lease expiries), " << s.exclusiveGrants
         << " exclusive grants, " << s.flushes << " flushes ("
         << s.deferredFlushes << " deferred), " << s.writebacks
         << " writebacks, " << s.nacksSent << " nacks\n";
    }
  }

 private:
  Sys sys_;
};

// -- directory --------------------------------------------------------------

class DirectoryBackend final : public CoherenceBackend {
 public:
  [[nodiscard]] ProtocolKind kind() const override {
    return ProtocolKind::Directory;
  }
  [[nodiscard]] const char* name() const override { return "dir"; }

  [[nodiscard]] verify::VerifyConfig verifyConfig(
      const SystemConfig& sys) const override {
    verify::VerifyConfig cfg;
    cfg.numProcessors = sys.numProcessors;
    cfg.tso = sys.storeBufferDepth > 0;
    cfg.protocol = ProtocolKind::Directory;
    return cfg;
  }
  [[nodiscard]] std::unique_ptr<BackendSystem> makeSystem(
      const SystemConfig& sys, EventSink& sink,
      net::Network::Mode mode) const override {
    SystemConfig cfg = sys;
    cfg.protocol = ProtocolKind::Directory;
    return std::make_unique<EventLoopSystem<sim::System>>(cfg, sink, mode);
  }
  [[nodiscard]] bool supportsModelChecking() const override { return true; }
  [[nodiscard]] bool supportsNetworkMode(net::Network::Mode) const override {
    return true;
  }
};

// -- bus --------------------------------------------------------------------

/// Adapts bus::BusSystem, which predates this API: it takes its own config
/// record, has no network object, and does not emit the run lifecycle hooks
/// itself — the adapter stamps SystemConfig{protocol = Bus} into onRunBegin
/// and maps BusRunResult onto the common RunResult.
class BusAdapter final : public BackendSystem {
 public:
  BusAdapter(const SystemConfig& cfg, EventSink& sink)
      : cfg_(cfg), sink_(&sink), sys_(toBusConfig(cfg), sink) {}

  void setProgram(NodeId proc, const workload::Program& program) override {
    sys_.setProgram(proc, program);
  }
  RunResult run(std::uint64_t maxEvents) override {
    sink_->onRunBegin(cfg_);
    const bus::BusRunResult br =
        maxEvents == 0 ? sys_.run() : sys_.run(maxEvents);
    RunResult r;
    switch (br.outcome) {
      case bus::BusRunResult::Outcome::Quiescent:
        r.outcome = RunResult::Outcome::Quiescent;
        break;
      case bus::BusRunResult::Outcome::Stuck:
        r.outcome = RunResult::Outcome::Deadlock;
        r.detail = "bus stuck: snoop queues blocked with programs incomplete";
        break;
      case bus::BusRunResult::Outcome::BudgetExhausted:
        r.outcome = RunResult::Outcome::BudgetExhausted;
        break;
    }
    r.eventsProcessed = br.eventsProcessed;
    r.endTime = br.endTime;
    r.opsBound = br.opsBound;
    sink_->onRunEnd(r);
    return r;
  }

 private:
  [[nodiscard]] static bus::BusConfig toBusConfig(const SystemConfig& sys) {
    bus::BusConfig cfg;
    cfg.numProcessors = sys.numProcessors;
    cfg.numBlocks = sys.numBlocks;
    cfg.wordsPerBlock = sys.proto.wordsPerBlock;
    cfg.cacheCapacity = sys.cacheCapacity;
    cfg.snoopDelayMax = sys.busSnoopDelayMax;
    cfg.seed = sys.seed;
    cfg.mutant = sys.proto.mutant;
    return cfg;
  }

  SystemConfig cfg_;
  EventSink* sink_;
  bus::BusSystem sys_;
};

class BusBackend final : public CoherenceBackend {
 public:
  [[nodiscard]] ProtocolKind kind() const override {
    return ProtocolKind::Bus;
  }
  [[nodiscard]] const char* name() const override { return "bus"; }

  [[nodiscard]] verify::VerifyConfig verifyConfig(
      const SystemConfig& sys) const override {
    if (sys.storeBufferDepth > 0) {
      throw SimError(
          "bus backend does not support the TSO store-buffer extension "
          "(storeBufferDepth must be 0)");
    }
    verify::VerifyConfig cfg;
    cfg.numProcessors = sys.numProcessors;
    cfg.protocol = ProtocolKind::Bus;
    return cfg;
  }
  [[nodiscard]] std::unique_ptr<BackendSystem> makeSystem(
      const SystemConfig& sys, EventSink& sink,
      net::Network::Mode mode) const override {
    if (!supportsNetworkMode(mode)) {
      throw SimError(
          "bus backend has no point-to-point network; only the default "
          "random-latency mode is supported");
    }
    if (sys.storeBufferDepth > 0) {
      throw SimError(
          "bus backend does not support the TSO store-buffer extension "
          "(storeBufferDepth must be 0)");
    }
    requireMutant(ProtocolKind::Bus, sys.proto.mutant);
    SystemConfig cfg = sys;
    cfg.protocol = ProtocolKind::Bus;
    return std::make_unique<BusAdapter>(cfg, sink);
  }
  [[nodiscard]] bool supportsModelChecking() const override { return false; }
  [[nodiscard]] bool supportsNetworkMode(
      net::Network::Mode mode) const override {
    return mode == net::Network::Mode::RandomLatency;
  }
};

// -- tardis -----------------------------------------------------------------

class TardisBackend final : public CoherenceBackend {
 public:
  [[nodiscard]] ProtocolKind kind() const override {
    return ProtocolKind::Tardis;
  }
  [[nodiscard]] const char* name() const override { return "tardis"; }

  [[nodiscard]] verify::VerifyConfig verifyConfig(
      const SystemConfig& sys) const override {
    if (sys.storeBufferDepth > 0) {
      throw SimError(
          "tardis backend does not support the TSO store-buffer extension "
          "(storeBufferDepth must be 0)");
    }
    verify::VerifyConfig cfg;
    cfg.numProcessors = sys.numProcessors;
    cfg.protocol = ProtocolKind::Tardis;
    return cfg;
  }
  [[nodiscard]] std::unique_ptr<BackendSystem> makeSystem(
      const SystemConfig& sys, EventSink& sink,
      net::Network::Mode mode) const override {
    SystemConfig cfg = sys;
    cfg.protocol = ProtocolKind::Tardis;
    return std::make_unique<EventLoopSystem<tardis::TardisSystem>>(cfg, sink,
                                                                   mode);
  }
  [[nodiscard]] bool supportsModelChecking() const override { return true; }
  [[nodiscard]] bool supportsNetworkMode(net::Network::Mode) const override {
    return true;
  }
};

}  // namespace

const CoherenceBackend& backendFor(ProtocolKind kind) {
  static const DirectoryBackend dir;
  static const BusBackend bus;
  static const TardisBackend tardis;
  switch (kind) {
    case ProtocolKind::Directory: return dir;
    case ProtocolKind::Bus: return bus;
    case ProtocolKind::Tardis: return tardis;
  }
  throw SimError("unknown ProtocolKind");
}

ProtocolKind protocolFromName(const std::string& name) {
  if (name == "dir") return ProtocolKind::Directory;
  if (name == "directory") {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::cerr << "warning: --protocol directory is deprecated; use "
                   "--protocol dir\n";
    }
    return ProtocolKind::Directory;
  }
  if (name == "bus") return ProtocolKind::Bus;
  if (name == "tardis") return ProtocolKind::Tardis;
  throw SimError("unknown protocol: " + name + " (dir|bus|tardis)");
}

verify::VerifyConfig verifyConfigFor(const SystemConfig& sys) {
  return backendFor(sys.protocol).verifyConfig(sys);
}

}  // namespace lcdc::proto
