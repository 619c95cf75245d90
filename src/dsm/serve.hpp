// The DSM serving runtimes behind `lcdc serve`.
//
// Two runtimes drive the same NodeEngine/CertifierEngine byte-for-byte:
//
//  * serveMem — deterministic loopback: every node plus the certifier in
//    one thread, frames routed through in-memory queues by a fixed
//    round-robin schedule, the load driver embedded.  Fixed seeds give a
//    fixed merged event stream, verdict and per-node counters — the mode
//    ctest and the determinism suite run.
//
//  * serveTcp — the real thing: one thread per node and one for the
//    certifier, nonblocking TCP loopback sockets (transport.hpp), frames
//    on the wire, load driven by a separate `lcdc load` process.  The
//    merged event stream is still deterministic for deterministic node
//    streams (the certifier sorts by (clock, node, seq)), but node
//    streams themselves depend on arrival timing — TCP mode is the
//    robustness/throughput path, mem mode the reproducibility path.
//
// Shutdown discipline (both modes): stop accepting queued program chunks,
// drain the protocol to quiescence (every in-flight transaction
// completes), then FIN the event streams and take the final checker
// verdict.  Draining first is what keeps the verdict honest — the
// checkers' end-of-stream claims assume every serialized transaction
// completed, which a mid-flight cutoff would violate spuriously.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "dsm/certifier.hpp"
#include "dsm/node.hpp"
#include "proto/events.hpp"
#include "verify/checkers.hpp"
#include "workload/generators.hpp"

namespace lcdc::dsm {

struct ServeConfig {
  /// Shape of the served system.  numProcessors == numDirectories ==
  /// `nodes` (one co-located processor + home shard per node).
  SystemConfig system;
  std::uint32_t nodes = 3;
  /// Certifier port; node i listens on port+1+i.  0 = ephemeral ports
  /// everywhere (in-process tests; the bound ports are in ServePorts).
  std::uint16_t port = 0;
  /// Exit after the first completed load session instead of serving until
  /// SIGINT (CI smoke and benches).
  bool once = false;
  std::uint64_t heartbeatEveryPumps = 16;
  /// Reap client connections (not in an active session) silent this long.
  std::uint64_t idleTimeoutMs = 30'000;
  /// SIGINT: maximum wait for the protocol to drain before FINning with
  /// work still in flight (the verdict is then flagged undrained).
  std::uint64_t drainTimeoutMs = 10'000;
  /// Optional sink archiving the certifier's merged stream (borrowed).
  proto::EventSink* archive = nullptr;
  /// Optional: set (release) by serveTcp once the ServePorts out-param is
  /// fully written — lets a caller on another thread wait for the bound
  /// ports race-free (in-process tests).
  std::atomic<bool>* portsReady = nullptr;
};

/// The embedded load of serveMem (TCP mode loads via `lcdc load`).
struct MemLoadSpec {
  workload::Kind kind = workload::Kind::Uniform;
  std::uint64_t totalOps = 10'000;  ///< across all nodes
  std::uint64_t seed = 1;           ///< workload master seed
  std::uint32_t chunkSteps = 1024;  ///< program steps per chunk
  std::uint32_t window = 2;         ///< outstanding chunks per node
};

struct ServeResult {
  verify::CheckReport report;
  std::uint64_t opsBound = 0;
  std::vector<NodeStats> nodeStats;
  CertifierStats certStats;
  std::uint64_t dialRetries = 0;  ///< failed connect attempts, all dials
  /// False when a SIGINT drain timed out: streams were FINned with work
  /// in flight, so violations may be shutdown artifacts.
  bool drained = true;
  double seconds = 0;  ///< wall clock, serve start to verdict

  [[nodiscard]] bool ok() const { return report.ok() && drained; }
};

/// Bound listening ports of a TCP serve (== the configured ones unless
/// ephemeral).  `lcdc load` derives node ports the same way: certifier on
/// `cert`, node i on `node[i]`.
struct ServePorts {
  std::uint16_t cert = 0;
  std::vector<std::uint16_t> node;
};

/// Deterministic single-threaded loopback serve with embedded load.
[[nodiscard]] ServeResult serveMem(const ServeConfig& cfg,
                                   const MemLoadSpec& load);

/// TCP serve.  Binds all listeners up front (publishing bound ports via
/// `ports`, which may be null), serves until the load session completes
/// (`cfg.once`) or `*stop` becomes nonzero (SIGINT handler sets it; may
/// be null), then drains, FINs and returns the verdict.  `*stop` is read
/// with a relaxed atomic load; a writer on another thread must store it
/// atomically too (`__atomic_store_n`).
[[nodiscard]] ServeResult serveTcp(const ServeConfig& cfg,
                                   const volatile std::sig_atomic_t* stop,
                                   ServePorts* ports);

}  // namespace lcdc::dsm
