// Deterministic fingerprints of full simulate-and-verify runs.
//
// A fingerprint folds everything the engine promises to keep byte-stable
// into one 64-bit FNV-1a hash: the serialized trace text (operations,
// stamps, serializations, values), the network traffic counters, the run
// outcome, and the checker verdict.  The seed-equivalence suite pins a
// matrix of these hashes captured from the original (pre-calendar-queue,
// pre-pooling) engine; any hot-path change that alters a single delivered
// message, Lamport stamp or verdict flips the hash.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "common/config.hpp"
#include "proto/observer.hpp"
#include "sim/system.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "verify/checkers.hpp"
#include "verify/stream.hpp"
#include "workload/generators.hpp"

namespace lcdc::testing {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

inline void fnvU64(std::uint64_t& h, std::uint64_t v) { fnv(h, &v, 8); }

inline void fnvStr(std::uint64_t& h, const std::string& s) {
  fnv(h, s.data(), s.size());
}

/// One cell of the seed-equivalence matrix: fixed workload kind and
/// network mode, `seeds` sub-runs with shapes derived from the seed.
struct MatrixCell {
  workload::Kind kind;
  net::Network::Mode mode;
};

/// Derive the sub-run configuration for (cell, seed).  Varies capacity,
/// Put-Shared, store buffering and latency spread with the seed so the
/// matrix crosses every engine feature with every workload family.
inline SystemConfig matrixConfig(std::uint64_t seed) {
  SystemConfig sys;
  sys.numProcessors = 3 + static_cast<NodeId>(seed % 4);      // 3..6
  sys.numDirectories = 1 + static_cast<NodeId>(seed % 2);     // 1..2
  sys.numBlocks = 6 + static_cast<BlockId>(seed % 5);         // 6..10
  sys.cacheCapacity = (seed % 2 == 0) ? 2 : 0;
  sys.minLatency = 1;
  sys.maxLatency = 12 + (seed % 3) * 17;                      // 12/29/46
  sys.retryDelay = 4 + seed % 7;
  sys.proto.putSharedEnabled = seed % 4 != 3;
  sys.storeBufferDepth = (seed % 3 == 0) ? 2 : 0;
  sys.seed = 0x5EEDULL ^ (seed * 0x9E3779B97F4A7C15ULL);
  return sys;
}

inline workload::WorkloadConfig matrixWorkload(const SystemConfig& sys,
                                               std::uint64_t seed) {
  workload::WorkloadConfig w;
  w.numProcessors = sys.numProcessors;
  w.numBlocks = sys.numBlocks;
  w.wordsPerBlock = sys.proto.wordsPerBlock;
  w.opsPerProcessor = 120 + seed % 60;
  w.storePercent = 25 + static_cast<std::uint32_t>(seed % 30);
  w.evictPercent = 4 + static_cast<std::uint32_t>(seed % 10);
  w.seed = 0xF00DULL ^ (seed * 0xD1B54A32D192ED03ULL);
  return w;
}

/// Hash every byte-stable artifact of a finished run: the serialized trace
/// text, the run outcome and progress counters, the network traffic
/// counters (the seed-era fields; per-type delivery counters added later
/// are asserted separately, not hashed, so the pins survive additive
/// stats), and the checker verdict.
inline std::uint64_t artifactFingerprint(const trace::Trace& trace,
                                         const sim::RunResult& result,
                                         const net::NetStats& ns,
                                         const verify::CheckReport& report) {
  std::uint64_t h = kFnvOffset;
  // The full trace text: operations, Lamport stamps, serializations,
  // value receipts, NACKs — one changed delivery order changes this.
  std::ostringstream os;
  trace::save(trace, os);
  fnvStr(h, os.str());
  fnvU64(h, static_cast<std::uint64_t>(result.outcome));
  fnvU64(h, result.eventsProcessed);
  fnvU64(h, result.endTime);
  fnvU64(h, result.opsBound);
  fnvU64(h, ns.sent);
  fnvU64(h, ns.delivered);
  // The seed engine's histogram had 16 rows (UpdateX was silently dropped
  // — the bug the per-type conservation test caught); hash exactly those
  // rows so the pins captured from it stay valid.  UpdateX traffic is
  // covered by the aggregate counters hashed above.
  for (std::size_t i = 0; i < 16 && i < ns.sentByType.size(); ++i) {
    fnvU64(h, ns.sentByType[i]);
  }
  fnvStr(h, report.summary());
  for (const auto& v : report.violations) {
    fnvStr(h, v.check);
    fnvStr(h, v.detail);
  }
  return h;
}

/// Execute one fully-verified run and hash every stable artifact of it.
inline std::uint64_t runFingerprint(const SystemConfig& sys,
                                    const std::vector<workload::Program>& progs,
                                    net::Network::Mode mode) {
  trace::Trace trace;
  verify::StreamCheckerSet checkers(proto::verifyConfigFor(sys));
  proto::TeeSink tee{&trace, &checkers};
  sim::System system(sys, tee, mode);
  for (NodeId p = 0; p < sys.numProcessors; ++p) {
    system.setProgram(p, progs[p]);
  }
  const sim::RunResult result = system.run();
  checkers.finish();
  return artifactFingerprint(trace, result, system.network().stats(),
                             checkers.report());
}

/// Fingerprint of sub-run `seed` of a matrix cell.
inline std::uint64_t cellSeedFingerprint(const MatrixCell& cell,
                                         std::uint64_t seed) {
  const SystemConfig sys = matrixConfig(seed);
  const workload::WorkloadConfig w = matrixWorkload(sys, seed);
  return runFingerprint(sys, workload::make(cell.kind, w), cell.mode);
}

/// Fold `seeds` sub-run fingerprints of one cell into a single pin.
inline std::uint64_t cellFingerprint(const MatrixCell& cell,
                                     std::uint64_t seeds) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t s = 0; s < seeds; ++s) {
    fnvU64(h, cellSeedFingerprint(cell, s));
  }
  return h;
}

/// The matrix: the six seed-era workload families under both timed network
/// modes.  Pinned to an explicit list (NOT 0..kNumKinds) so that appending
/// new families — LeaseChurn arrived with the Tardis backend — cannot
/// silently grow the matrix and invalidate the captured pins.
inline std::vector<MatrixCell> fingerprintMatrix() {
  static constexpr workload::Kind kSeedEraKinds[] = {
      workload::Kind::Uniform,    workload::Kind::Hot,
      workload::Kind::ProdCons,   workload::Kind::Migratory,
      workload::Kind::FalseShare, workload::Kind::ReadMostly,
  };
  std::vector<MatrixCell> cells;
  for (const workload::Kind k : kSeedEraKinds) {
    for (const net::Network::Mode mode :
         {net::Network::Mode::RandomLatency, net::Network::Mode::Fifo}) {
      cells.push_back(MatrixCell{k, mode});
    }
  }
  return cells;
}

/// The PCT companion matrix: the same six families under the
/// randomized-priority schedule.  A separate table on purpose — kGolden's
/// pins predate the Pct mode and must not grow; the Pct pins live in
/// tests/pct_test.cpp and were captured from the mode's first
/// implementation.
inline std::vector<MatrixCell> pctFingerprintMatrix() {
  std::vector<MatrixCell> cells;
  for (const MatrixCell& cell : fingerprintMatrix()) {
    if (cell.mode == net::Network::Mode::RandomLatency) {
      cells.push_back(MatrixCell{cell.kind, net::Network::Mode::Pct});
    }
  }
  return cells;
}

}  // namespace lcdc::testing
