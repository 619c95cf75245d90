// The pluggable coherence-backend API (DESIGN.md §12).
//
// The paper's central claim is that the Lamport-clock checkers are
// *protocol-independent*: any coherence machine that (a) serializes the
// transactions touching a block at one agent, (b) stamps exactly one
// upgrader and at least one downgrader per transaction under the per-node
// clock discipline of Section 3.2, and (c) binds operations inside the
// epochs those stamps delimit, can be verified by the unchanged Section 3
// suite.  This module turns that claim into an interface: a
// CoherenceBackend packages one protocol implementation behind a uniform
// build-run-verify contract, and everything downstream — the lcdc driver,
// the campaign runner, the model checker — selects a backend by
// ProtocolKind instead of naming a concrete system type.
//
// What a backend must guarantee for the checkers to stay sound:
//
//   * Observation stream — the proto::EventSink callbacks (onSerialize /
//     onStamp / onOperation / onValueReceived / onRunBegin / onRunEnd)
//     with per-block serial numbers assigned in serialization order.
//   * Timestamping discipline — per (node, block), stamp timestamps are
//     strictly increasing in emission order (Claim 2); per transaction,
//     downgrades never exceed the upgrade (Claim 3(a)) and exclusive
//     upgrades strictly dominate all earlier upgrades of the block
//     (Claim 3(b)) — these two are *load-bearing*: checkEpochs' Lemma 1
//     scan assumes exclusive epochs appear in ascending order.
//   * Binding rule — an operation's timestamp lies inside the epoch of
//     the transaction it is bound to; stores only in exclusive epochs.
//   * Config honesty — onRunBegin carries a SystemConfig whose `protocol`
//     field names this backend, so a StreamCheckerSet configured for a
//     different backend fails loudly instead of silently mis-checking.
//
// The backend additionally owns the one canonical mapping from a
// SystemConfig to the verification settings (verifyConfig) — previously
// verify::VerifyConfig::fromSystem, which baked in directory-only
// assumptions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/run_result.hpp"
#include "net/network.hpp"
#include "proto/events.hpp"
#include "verify/checkers.hpp"
#include "workload/program.hpp"

namespace lcdc::proto {

/// A running instance of one backend: programs in, RunResult out.  The
/// observation stream flows through the EventSink given at construction.
class BackendSystem {
 public:
  virtual ~BackendSystem() = default;
  BackendSystem() = default;
  BackendSystem(const BackendSystem&) = delete;
  BackendSystem& operator=(const BackendSystem&) = delete;

  virtual void setProgram(NodeId proc, const workload::Program& program) = 0;

  /// Run to quiescence / deadlock / livelock.  maxEvents == 0 selects the
  /// backend's own default budget (the per-protocol defaults differ).
  virtual RunResult run(std::uint64_t maxEvents = 0) = 0;

  /// The point-to-point network, for latency/queue statistics (--perf).
  /// Null for backends without one (the bus is a centralized medium).
  [[nodiscard]] virtual net::Network* network() { return nullptr; }

  /// Backend-specific statistics lines appended after the driver's
  /// "simulation:" summary.  Default prints nothing (the directory and bus
  /// counters already flow through verify::StatsObserver).
  virtual void printStats(std::ostream& os) const;
};

/// One coherence protocol implementation, registered by ProtocolKind.
/// Stateless: backends are shared singletons (backendFor), all run state
/// lives in the BackendSystem they build.
class CoherenceBackend {
 public:
  virtual ~CoherenceBackend() = default;

  [[nodiscard]] virtual ProtocolKind kind() const = 0;
  /// Canonical selector name ("dir", "bus", "tardis").
  [[nodiscard]] virtual const char* name() const = 0;

  /// The backend-provided verification settings for this system shape:
  /// node split, memory model, and the protocol tag the streaming checkers
  /// cross-check against onRunBegin.
  [[nodiscard]] virtual verify::VerifyConfig verifyConfig(
      const SystemConfig& sys) const = 0;

  /// Build a runnable system.  Throws SimError when the configuration or
  /// network mode is unsupported by this backend.
  [[nodiscard]] virtual std::unique_ptr<BackendSystem> makeSystem(
      const SystemConfig& sys, EventSink& sink,
      net::Network::Mode mode = net::Network::Mode::RandomLatency) const = 0;

  [[nodiscard]] virtual bool supportsModelChecking() const = 0;
  [[nodiscard]] virtual bool supportsNetworkMode(
      net::Network::Mode mode) const = 0;
};

/// The registry: one shared immutable backend per ProtocolKind.
[[nodiscard]] const CoherenceBackend& backendFor(ProtocolKind kind);

/// Parse a --protocol selector.  Accepts the canonical names plus the
/// deprecated alias "directory" (warns on stderr once per process).
/// Throws SimError on anything else.
[[nodiscard]] ProtocolKind protocolFromName(const std::string& name);

/// Convenience: backendFor(sys.protocol).verifyConfig(sys) — the
/// replacement for the deleted verify::VerifyConfig::fromSystem.
[[nodiscard]] verify::VerifyConfig verifyConfigFor(const SystemConfig& sys);

}  // namespace lcdc::proto
