// Hot-loop performance counters for the simulate-and-verify path.
//
// Opt-in the same way as mc::McPerfCounters: the deterministic outputs of
// a run (trace, stats, verdicts) never read these, so they are safe to
// collect without perturbing seed-equivalence, and callers only print
// them when asked (`lcdc run --perf`, `lcdc campaign --perf`).  Wall time
// is measured by the caller around the run loop; the queue counters come
// from the network's key heap, which maintains them unconditionally (they
// are a handful of increments per event).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <ostream>

#include "net/network.hpp"

namespace lcdc::sim {

struct SimPerfCounters {
  std::uint64_t runs = 0;       ///< sub-runs aggregated into this counter
  std::uint64_t events = 0;     ///< simulator events processed
  std::uint64_t opsBound = 0;   ///< program operations bound
  std::uint64_t wallNanos = 0;  ///< wall-clock spent inside System::run
  net::QueueStats queue;        ///< network queue op counters

  [[nodiscard]] double eventsPerSec() const {
    return wallNanos == 0 ? 0.0
                          : static_cast<double>(events) * 1e9 /
                                static_cast<double>(wallNanos);
  }

  /// Always 0: the network's one key heap has no overflow path.  Kept for
  /// the benchmark's `net.overflow_push_frac`, which reads it.
  [[nodiscard]] double overflowRate() const { return 0.0; }

  /// Record one completed sub-run.
  void note(std::uint64_t runEvents, std::uint64_t runOpsBound,
            std::uint64_t nanos, const net::QueueStats& q) {
    runs += 1;
    events += runEvents;
    opsBound += runOpsBound;
    wallNanos += nanos;
    queue.pushes += q.pushes;
    queue.pops += q.pops;
    queue.maxDepth = std::max(queue.maxDepth, q.maxDepth);
  }

  void merge(const SimPerfCounters& o) {
    runs += o.runs;
    events += o.events;
    opsBound += o.opsBound;
    wallNanos += o.wallNanos;
    queue.pushes += o.queue.pushes;
    queue.pops += o.queue.pops;
    queue.maxDepth = std::max(queue.maxDepth, o.queue.maxDepth);
  }

  void print(std::ostream& os) const {
    os << "sim perf: " << runs << " run(s), " << events << " events in "
       << static_cast<double>(wallNanos) * 1e-9 << " s ("
       << eventsPerSec() << " events/s), " << opsBound << " ops bound\n"
       << "  net queue: " << queue.pushes << " pushes, " << queue.pops
       << " pops, max depth " << queue.maxDepth << '\n';
  }
};

}  // namespace lcdc::sim
