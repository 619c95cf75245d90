// Parallel explicit-state model checker over the directory and Tardis
// protocols — the baseline verification technique the paper contrasts
// with (Section 1:
// such methods "do not scale well to systems of a practical size";
// Section 4 lists protocol verifications limited to a handful of nodes and
// one cache block).  This engine pushes that wall outward with threads and
// two sound reductions, which is exactly the lineage of Qadeer's SC
// model-checking work cited in PAPERS.md.
//
// Design points:
//   * It drives the *same* controllers as the simulators, so it
//     model-checks exactly the protocol we run (including fault-injected
//     mutants).  One wave engine serves both protocols, as a template over
//     a model type (`dir_model.hpp`, `tardis_model.hpp`; DESIGN.md §8).
//   * A world state = every controller's protocol-relevant state plus the
//     multiset of in-flight messages; successors are (a) delivering any
//     in-flight message — the unordered network — and (b) any processor
//     issuing any legal request or local action.
//   * States are canonicalized before hashing: logical clocks, timestamps,
//     data values, serial numbers and statistics are projected away (the
//     protocol never branches on them), and live transaction ids are
//     renumbered, so the reachable state space is finite and exploration
//     terminates.  With `symmetry`, processor ids are canonicalized too
//     (Murphi-scalarset style: processors sorted by a relabeling-invariant
//     signature, bytewise minimum over the orders inside tie classes).  With `modelData`, word-0 data values and a bounded store
//     action are modeled instead of projected, plus a per-state value
//     coherence check — this is what lets MC refute value-only mutants.
//   * Exploration is a wave-synchronous parallel BFS over *binary* state
//     encodings (DESIGN.md §9): canonical states are bit-packed by
//     `StateCodec`, deduplicated in one flat open-addressing fingerprint
//     set (`common/flat_set.hpp`, CAS insertion, full-encoding compare on
//     fingerprint hits), and frontier worlds live as lossless varint
//     blobs (`WorldCodec`) in segments held in ping-pong bump arenas or
//     spill files.  Each wave is cut into record ranges across the
//     work-stealing `lcdc::ThreadPool`, the visited table grows only at
//     wave boundaries, and all stop
//     decisions (violation found, deadlock, state cap, memory limit)
//     happen at wave boundaries, and a state-capped final wave picks its
//     states by canonical fingerprint, so `statesExplored` /
//     `transitions` / verdicts are identical for any `jobs` value, capped
//     or not — and, for the directory protocol, byte-identical to the
//     original string-key engine (its key survives only as the codec
//     tests' differential oracle, `tests/legacy_key.hpp`).
//   * Every visited state keeps a compact parent edge (4-byte parent id +
//     the action packed into 8 bytes), so any violation or deadlock
//     reconstructs into a concrete schedule; `replay.hpp` re-executes
//     that schedule through `sim::System` (or `tardis::TardisSystem`)
//     with the streaming Lamport checkers attached.
//   * Safety checks per state: the single-writer/multiple-reader invariant,
//     protocol-invariant (Appendix B) violations surfacing as exceptions,
//     definite deadlocks (no message in flight yet requests outstanding),
//     and — under `modelData` — value coherence of settled blocks.
//
// The bench `mc_explosion` tabulates reachable-state counts against
// (processors × blocks) — the state-space explosion that motivates the
// paper's Lamport-clock alternative — plus the effect of jobs and of the
// two reductions on that wall.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mc/perf.hpp"
#include "proto/messages.hpp"

namespace lcdc::mc {

/// How the model checker remembers visited states (DESIGN.md §14).
enum class VisitedMode : std::uint8_t {
  /// Lossless: 64-bit fingerprint plus the full canonical encoding; a
  /// fingerprint hit falls back to byte equality.  The only mode whose
  /// counts are exhaustive; omission bound 0.
  Exact = 0,
  /// Hash compaction: only the 64-bit fingerprint is kept, a hit is
  /// trusted.  ~12 B/state; expected omissions n(n-1)/2 / 2^64.
  Compact,
  /// Holzmann bitstate (supertrace): k bits per state in a Bloom array
  /// sized by `bitstateMb`.  O(1) bits/state; omission bound
  /// insertCalls * (ones/m)^k at the end-of-run fill ratio.  Tracks no
  /// state ids, so counterexamples carry no schedule and POR (whose
  /// proviso needs discovery ids) is rejected.
  Bitstate,
};

[[nodiscard]] const char* toString(VisitedMode m);

struct McConfig {
  NodeId numProcessors = 2;
  BlockId numBlocks = 1;
  ProtoConfig proto{};
  /// Which coherence backend to explore.  Tardis's space does not close
  /// (see `tardis_model.hpp`), so its runs are bounded-exhaustive, and it
  /// takes no `symmetry`, `por` or `modelData`; those and `Bus` make
  /// `explore` throw `SimError`.
  ProtocolKind protocol = ProtocolKind::Directory;
  /// Allow processors to issue Writebacks / Put-Shareds (more actions =>
  /// bigger space).
  bool allowEvictions = true;
  /// Abort exploration after this many distinct states.  The cap is
  /// enforced at wave boundaries: the final wave expands exactly as many
  /// frontier states as fit, picking those with the smallest canonical
  /// fingerprints (ties broken by encoding bytes), so a capped run drains
  /// cleanly and reports the same states, transitions and verdicts for
  /// any `jobs` value, in RAM or spilled.
  std::uint64_t maxStates = 2'000'000;
  /// Worker threads for the wave-parallel BFS.
  unsigned jobs = 1;
  /// Symmetry reduction over processor ids: hash one representative per
  /// orbit under processor relabeling (`StateCodec::encode`).  Sound
  /// because processors are fully interchangeable (the protocol's control
  /// logic never branches on the numeric value of a processor id).
  bool symmetry = false;
  /// Ample-set partial-order reduction: when a state has a "safe" message
  /// delivery — pure MSHR bookkeeping at one cache that emits nothing,
  /// changes no control state, and has no in-flight sibling to the same
  /// (cache, block) — expand only that delivery.  A visited-successor
  /// proviso falls back to full expansion (see DESIGN.md for the soundness
  /// argument).
  bool por = false;
  /// Model word-0 data values instead of projecting them away: adds a
  /// bounded store action (version counter mod 4), keys states on values,
  /// and checks per-state value coherence of settled blocks.  Required to
  /// refute value-only mutants such as ForwardStaleValue.
  bool modelData = false;
  /// Keep at most this many distinct violation strings.
  std::size_t maxViolations = 32;
  /// Stop after this many BFS waves (0 = unlimited).  States within depth
  /// D form a well-defined sub-space, so equal-depth comparisons measure
  /// reduction factors on configurations too large to explore fully.
  std::uint64_t maxDepth = 0;
  /// Stop gracefully (MemLimit verdict, `McResult::memLimitHit`) at the
  /// next wave boundary once the explorer's tracked structures — visited
  /// slabs, encoding/frontier arenas, per-id record pages — exceed this
  /// many MiB.
  /// 0 = unlimited.  Checked only between waves, so a run that stops here
  /// still reports exact, jobs-independent counts for the waves it did.
  std::uint64_t memLimitMb = 0;
  /// Collect nanosecond-level timing in `McResult::perf` (byte counters
  /// and the probe histogram are always collected).
  bool perf = false;
  /// Visited-set representation (see VisitedMode).
  VisitedMode visited = VisitedMode::Exact;
  /// Bitstate mode only: Bloom array budget in MiB (rounded down to a
  /// power of two of bits).
  std::uint64_t bitstateMb = 64;
  /// Non-empty: keep each wave's frontier segments in sealed files under
  /// this directory instead of the ping-pong arenas, bounding frontier
  /// RSS by the write buffers and the files a task maps.  A wave is cut
  /// into record ranges and expanded by the same code either way, so
  /// counts and verdicts are identical for any `jobs`.
  std::string spillDir;
  /// Non-empty: checkpoint the visited structures + the pending wave's
  /// spill segments at wave boundaries into this directory (implies
  /// spilling there unless `spillDir` names somewhere else), making the
  /// memory-limit stop resumable.
  std::string checkpointDir;
  /// Checkpoint every N wave boundaries (also on a memory-limit or
  /// max-depth stop regardless of cadence).
  std::uint64_t checkpointEvery = 1;
  /// Non-empty: restore visited set, counters, and pending frontier from
  /// this checkpoint directory and continue exploring.
  std::string resumeDir;
};

/// One scheduled step of an exploration path.  `Deliver` indexes into the
/// in-flight vector of the *predecessor* state, which maps 1:1 onto the
/// manual-mode network deque of a replaying `sim::System` (both append
/// sends in outbox order and erase at the delivered index); `dst`, `block`
/// and `msgType` are recorded so replay can cross-check the mapping.
struct Action {
  enum class Kind : std::uint8_t { Deliver, Issue, Evict, Store };
  Kind kind = Kind::Deliver;
  std::uint32_t flightIndex = 0;  ///< Deliver: index into parent's flight
  NodeId dst = kNoNode;           ///< Deliver: receiving node
  proto::MsgType msgType{};       ///< Deliver: message type (cross-check)
  NodeId proc = kNoNode;          ///< Issue/Evict/Store: acting processor
  BlockId block = 0;              ///< block concerned
  ReqType req{};                  ///< Issue: request type
};

using Schedule = std::vector<Action>;

[[nodiscard]] std::string toString(const Action& a);

/// The 64-bit word a parent edge (and a checkpoint's visited log) stores
/// an action in; `unpackAction(packAction(a))` restores every field.
[[nodiscard]] std::uint64_t packAction(const Action& a);
[[nodiscard]] Action unpackAction(std::uint64_t v);

/// A reconstructed failing path: the exact message-delivery / request
/// schedule from the initial state to the bad state.
struct Counterexample {
  std::string kind;    ///< "violation" | "deadlock"
  std::string detail;  ///< first violation text / deadlock description
  Schedule schedule;
};

struct McResult {
  std::uint64_t statesExplored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t frontierPeak = 0;
  /// States expanded through a POR singleton ample set.
  std::uint64_t ampleStates = 0;
  /// Fully expanded BFS waves (the depth the exploration reached).
  std::uint64_t wavesCompleted = 0;
  bool hitStateLimit = false;
  /// Exploration stopped at a wave boundary because `memLimitMb` was
  /// exceeded (the MemLimit verdict; counts up to that wave are exact).
  bool memLimitHit = false;
  bool deadlockFound = false;
  std::vector<std::string> violations;
  /// First failing path found (wave order), when any check failed.
  std::optional<Counterexample> counterexample;
  /// Encode/insert/expand instrumentation (timing only with cfg.perf).
  McPerfCounters perf;
  /// End-of-run footprint of the visited structures: flat-set slabs +
  /// canonical-encoding arena + per-id record pages (encoding reference
  /// and parent edge).
  std::uint64_t visitedBytes = 0;
  /// Peak bytes reserved by the two ping-pong frontier-blob arenas.
  std::uint64_t frontierBytesPeak = 0;
  /// Peak of the tracked-bytes sum `--mem-limit-mb` bounds (visited
  /// slabs, arenas, id pages, spill buffers, bitstate array).
  std::uint64_t trackedBytesPeak = 0;
  /// Process peak RSS (getrusage ru_maxrss) at the end of the run — the
  /// ground truth the tracked-bytes accounting approximates.
  std::uint64_t peakRssBytes = 0;
  /// Probability bound on missed states for the lossy visited modes
  /// (0 for exact; see VisitedMode for the formulas).
  double omissionBound = 0.0;
  /// True when this result continues a `--resume` checkpoint (counts
  /// then cover the combined run).
  bool resumed = false;

  [[nodiscard]] bool ok() const {
    return violations.empty() && !deadlockFound;
  }
};

/// Throw SimError when `cfg` combines options that cannot run together.
void validate(const McConfig& cfg);

/// Wave-synchronous parallel breadth-first exploration of the reachable
/// protocol state space (after `validate`).
[[nodiscard]] McResult explore(const McConfig& cfg);

}  // namespace lcdc::mc
