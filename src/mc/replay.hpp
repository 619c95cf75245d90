// Counterexample replay: ties the paper's two verification worlds
// together.  A schedule the model checker reconstructed is re-executed
// step by step through the protocol's simulator (`sim::System` or
// `tardis::TardisSystem`) in manual network mode with the streaming
// Lamport checkers attached, so the checker suite of Section 3 confirms
// the violation the exhaustive search found.
//
// Fidelity: a manual-mode simulator with no programs drives the same
// controllers as the checker's world, with one home at id numProcessors,
// and its network deque appends sends in outbox order and erases at the
// delivered index exactly like the MC flight vector, so MC flight indices
// map 1:1 onto pending-message indices.  Every Deliver step is
// cross-checked against the recorded (dst, type, block); a mismatch is
// reported as a divergence instead of replaying a different run.
#pragma once

#include <cstdint>
#include <string>

#include "mc/model_checker.hpp"
#include "verify/checkers.hpp"

namespace lcdc::trace {
class Trace;
}

namespace lcdc::mc {

struct ReplayResult {
  /// Every schedule step was applied to the simulator.
  bool scheduleCompleted = false;
  /// Non-empty when the schedule stopped mapping onto the simulator (a
  /// bug in the MC<->sim correspondence, surfaced loudly).
  std::string divergence;
  /// An Appendix-B protocol invariant (LCDC_EXPECT) fired during replay.
  std::string invariant;
  /// The replayed schedule left requests outstanding with no messages in
  /// flight — the deadlock the checker reported, reproduced.
  bool deadlocked = false;
  std::uint64_t opsBound = 0;
  /// Verdict of the streaming Lamport checker suite over the replay.
  verify::CheckReport report;

  [[nodiscard]] bool flagged() const {
    return !report.ok() || deadlocked || !invariant.empty();
  }
};

/// Re-execute `schedule` (from `McResult::counterexample`) through a
/// simulator built for `cfg`'s configuration, verifying online with
/// `verify::StreamCheckerSet`.  After every step each processor binds any
/// loads its cache permits, so the operation-level checkers (program
/// order, sequential consistency, value chain) see the replay too.  When
/// `traceOut` is non-null the replay is also recorded there.
[[nodiscard]] ReplayResult replayCounterexample(const McConfig& cfg,
                                                const Schedule& schedule,
                                                trace::Trace* traceOut =
                                                    nullptr);

}  // namespace lcdc::mc
