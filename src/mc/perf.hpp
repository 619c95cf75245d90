// Instrumentation counters for the binary exploration core (`lcdc mc
// --perf`, bench S12).
//
// Byte/call counters and the probe histogram are always collected (they
// are a handful of adds per state).  Nanosecond timers are collected only
// when `McConfig::perf` is set — two `steady_clock` reads per encode at
// ~180k states/s is measurable, so timing is opt-in.
#pragma once

#include <array>
#include <cstdint>

namespace lcdc::mc {

struct McPerfCounters {
  // -- always on -------------------------------------------------------------
  /// Canonical encodes performed (one per generated successor + root).
  std::uint64_t encodeCalls = 0;
  /// Visited-set insert attempts (equals encodeCalls on the hot path).
  std::uint64_t insertCalls = 0;
  /// Distinct states stored (visited-set insertions that won).
  std::uint64_t storedStates = 0;
  /// Total canonical-encoding bytes stored for distinct states.  This is
  /// deterministic for a given configuration (the state set is), unlike
  /// arena reservations, so it is safe for deterministic reports.
  std::uint64_t storedEncodingBytes = 0;
  /// Linear-probe length histogram for visited-set inserts:
  /// 0, 1, 2, 3-4, 5-8, >8 extra slots past the home slot.
  std::array<std::uint64_t, 6> probeHist{};
  /// Out-of-core traffic (zero for pure in-RAM runs): bytes written to /
  /// read back from frontier spill segments, sealed segment count, and
  /// bytes written into checkpoints (visited log + bitstate dumps).
  std::uint64_t spillBytesWritten = 0;
  std::uint64_t spillBytesRead = 0;
  std::uint64_t spillSegments = 0;
  std::uint64_t checkpointBytes = 0;
  /// Omission-probability bound for the lossy visited modes (0 for
  /// exact); set once at the end of a run, mirrored in McResult.
  double omissionBound = 0.0;

  // -- timing (zero unless McConfig::perf) -----------------------------------
  std::uint64_t encodeNanos = 0;     ///< canonical encode + min-over-perms
  std::uint64_t insertNanos = 0;     ///< fingerprint + flat-set insert
  std::uint64_t worldSaveNanos = 0;  ///< frontier blob serialization
  std::uint64_t worldLoadNanos = 0;  ///< frontier blob deserialization
  std::uint64_t expandNanos = 0;     ///< total worker time expanding chunks

  void merge(const McPerfCounters& o) {
    encodeCalls += o.encodeCalls;
    insertCalls += o.insertCalls;
    storedStates += o.storedStates;
    storedEncodingBytes += o.storedEncodingBytes;
    for (std::size_t i = 0; i < probeHist.size(); ++i) {
      probeHist[i] += o.probeHist[i];
    }
    spillBytesWritten += o.spillBytesWritten;
    spillBytesRead += o.spillBytesRead;
    spillSegments += o.spillSegments;
    checkpointBytes += o.checkpointBytes;
    if (o.omissionBound > omissionBound) omissionBound = o.omissionBound;
    encodeNanos += o.encodeNanos;
    insertNanos += o.insertNanos;
    worldSaveNanos += o.worldSaveNanos;
    worldLoadNanos += o.worldLoadNanos;
    expandNanos += o.expandNanos;
  }

  void noteProbes(std::uint32_t probes) {
    if (probes == 0) probeHist[0] += 1;
    else if (probes == 1) probeHist[1] += 1;
    else if (probes == 2) probeHist[2] += 1;
    else if (probes <= 4) probeHist[3] += 1;
    else if (probes <= 8) probeHist[4] += 1;
    else probeHist[5] += 1;
  }
};

}  // namespace lcdc::mc
