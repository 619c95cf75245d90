// Delta-debugging minimizer for failing campaign schedules.
//
// A failure surfaced by a 5000-operation random schedule is a poor
// debugging artifact; the classic ddmin move (Zeller & Hildebrandt) is to
// shrink the *input* while re-checking that the *same* failure still
// fires.  Here the input is a CaseSpec (system shape + per-processor
// programs) and the oracle is campaign::runCase: a candidate is accepted
// only if its failure signature string equals the original's exactly —
// same checker, same outcome class — so the minimizer can never wander to
// a different bug.
//
// Three shrinking phases, each budgeted from one probe counter:
//   1. ddmin over the flattened operation list (drop complement chunks,
//      halving granularity) — removes the bulk of the schedule;
//   2. node reduction — drop whole processors (their program removed,
//      ids of the survivors compacted) while the failure persists;
//   3. parameter tightening — halve the NACK retry delay while the failure
//      persists (the PCT schedule reads no latency bound, so there is no
//      latency spread to shrink).
// Phase 1 is re-run after phase 2: a smaller machine often makes more
// operations redundant.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/campaign.hpp"

namespace lcdc::campaign {

struct MinimizeOptions {
  /// Total probe (re-execution) budget across all phases.
  std::uint64_t maxAttempts = 400;
  /// Event budget per probe.
  std::uint64_t maxEventsPerRun = 5'000'000;
};

struct MinimizeResult {
  CaseSpec spec;          ///< the minimized case (== input if irreducible)
  std::string signature;  ///< the preserved failure signature
  std::uint64_t attempts = 0;
  std::size_t stepsBefore = 0;
  std::size_t stepsAfter = 0;
  NodeId procsBefore = 0;
  NodeId procsAfter = 0;
  [[nodiscard]] bool reduced() const {
    return stepsAfter < stepsBefore || procsAfter < procsBefore;
  }
};

/// Count the schedule's total program steps.
[[nodiscard]] std::size_t totalSteps(const CaseSpec& spec);

/// Shrink `failing` (whose runCase signature is `signature`) as far as the
/// probe budget allows.  The returned spec is guaranteed to still fail
/// with the same signature.
[[nodiscard]] MinimizeResult shrink(const CaseSpec& failing,
                                    const std::string& signature,
                                    const MinimizeOptions& opts);

}  // namespace lcdc::campaign
