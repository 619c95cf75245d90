// Configuration records for the protocol core and the simulated system.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace lcdc {

/// Deliberate protocol bugs for fault-injection experiments (bench S3,
/// mutation tests).  Each mutant is a realistic coherence bug of the subtle
/// kind the paper argues is "missed by high-level intuitive reasoning"; the
/// Lamport-clock checkers must catch every one of them.
enum class Mutant : std::uint8_t {
  None = 0,
  /// Requester of Get-Exclusive/Upgrade proceeds as soon as the home's reply
  /// arrives, without waiting for invalidation acknowledgments (breaks the
  /// single-writer guarantee; classic premature-write bug).
  SkipInvAckWait,
  /// Home answers a Get-Shared from directory state Exclusive with its own
  /// (stale) memory copy instead of forwarding to the owner (breaks value
  /// propagation, Lemma 3).
  StaleDataFromHome,
  /// A sharer acknowledges an invalidation but "forgets" to invalidate its
  /// cached copy and keeps reading it (breaks epoch containment, Lemma 2).
  IgnoreInvalidation,
  /// The owner answering a forwarded Get-Shared sends the block's value as
  /// of the start of its exclusive epoch, dropping its own stores
  /// (breaks Fact 2 / Lemma 3).
  ForwardStaleValue,
  /// The home does not NACK requests that arrive in Busy-Any states and
  /// instead processes them as if the directory were in its pre-busy state
  /// (corrupts the serialization order).
  NoBusyNack,
  /// Disable the Section 2.5 deadlock detection at a requester waiting for
  /// invalidation acks; with Put-Shared enabled this recreates Figure 2's
  /// deadlock.
  NoDeadlockDetection,
  /// Tardis backend only: the home hands out an exclusive grant without
  /// first bumping its entry clock past the block's read lease frontier
  /// (rts), so a writer's upgrade timestamp can land inside a still-live
  /// read lease (breaks Claim 3(a)/Lemma 1 — the lease-vs-owner
  /// disjointness that carries Tardis's single-writer argument).
  DropLeaseBump,
  /// Tardis only (DESIGN.md §12, race 2): a cache answers a FlushReq for
  /// its exclusive line without matching the grant timestamp the request
  /// names, so a stale FlushReq of an earlier epoch flushes the new line
  /// while the home still records the node as owner.
  FlushStaleEpoch,
  /// Tardis only (race 3): the home completes a Busy period on a Writeback
  /// or FlushData without matching the owner's grant timestamp, so a stale
  /// flush of an earlier epoch closes the current one and a second
  /// exclusive copy is handed out.
  CompleteStaleEpoch,
  /// Tardis only (race 4): a stale FlushReq parked at a waiting cache
  /// displaces the one its pending grant names (`parked = grantTs` instead
  /// of the later of the two), so the grant lands unanswered and the Busy
  /// home waits forever.
  DisplaceParkedFlush,
  /// Transaction 13: the Busy-Shared home takes the written-back data but
  /// skips absorbing the writeback stamp into its entry clock, so the next
  /// reader served from memory may be stamped below the former owner's
  /// epoch (a stamping-only bug: every value stays correct; Claim 3(b)).
  SkipWbClockAbsorb,
  /// Transaction 14a: the Busy-Exclusive home answers the waiting writer
  /// from its own stale memory instead of the written-back data, losing the
  /// former owner's stores (Lemma 3).
  StaleWbForward,
};

[[nodiscard]] const char* toString(Mutant m);

/// True for the mutants only the Tardis backend implements.  The Tardis
/// home refuses every other mutant, and the directory refuses these.
[[nodiscard]] constexpr bool isTardisMutant(Mutant m) {
  return m == Mutant::DropLeaseBump || m == Mutant::FlushStaleEpoch ||
         m == Mutant::CompleteStaleEpoch || m == Mutant::DisplaceParkedFlush;
}

/// How the model checker remembers visited states (DESIGN.md §14).  Kept
/// here, not in the mc headers, so the campaign's config can name it.
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

/// Which coherence backend a SystemConfig drives.  The backend registry
/// (proto::backendFor) maps each value to a proto::CoherenceBackend that
/// builds the system and the matching VerifyConfig.
enum class ProtocolKind : std::uint8_t {
  Directory = 0,  ///< the paper's SGI-Origin-style directory protocol
  Bus,            ///< the snooping-bus companion model (Section 4.1 remark)
  Tardis,         ///< timestamp-lease coherence (arXiv 1501.04504)
};

[[nodiscard]] const char* toString(ProtocolKind k);

/// Protocol-level switches.  The same config drives the event simulator and
/// the model checker, so both always exercise the same protocol variant.
struct ProtoConfig {
  /// Words per memory block (payload size; values carry store attribution).
  WordIdx wordsPerBlock = 4;
  /// Enable the Section 2.5 extension: silent eviction of read-only blocks
  /// (Put-Shared), acknowledgment of stale invalidations, and the
  /// requester-side deadlock detection.
  bool putSharedEnabled = true;
  /// Fault injection (Mutant::None for the faithful protocol).
  Mutant mutant = Mutant::None;
  /// Tardis backend only: logical lease length L.  A read grant at upgrade
  /// timestamp u extends the block's read frontier to at least u + L; a
  /// load whose Lamport time would exceed the frontier must renew first.
  /// Small values force the renewal/expiry paths; the directory and bus
  /// backends ignore this field.
  std::uint32_t leaseLength = 16;
};

/// Full system configuration (Figure 1 topology plus workload plumbing).
struct SystemConfig {
  ProtoConfig proto{};
  /// Which coherence backend this configuration is meant to drive.  The
  /// system emitting a run stamps this into onRunBegin, and the streaming
  /// checkers refuse a VerifyConfig built for a different backend (a
  /// mismatched pair would silently mis-check; see DESIGN.md §12).
  ProtocolKind protocol = ProtocolKind::Directory;
  /// Number of processing nodes.
  NodeId numProcessors = 4;
  /// Number of directory/home nodes; blocks are interleaved across them
  /// (home(b) = b mod numDirectories).  The directory slice of node d is
  /// co-located with processing node d when numDirectories == numProcessors.
  NodeId numDirectories = 4;
  /// Number of memory blocks.
  BlockId numBlocks = 64;
  /// Cache capacity per node, in blocks; exceeding it triggers evictions
  /// (Writeback for read-write lines, Put-Shared for read-only lines when
  /// the extension is enabled).  0 means unbounded.
  std::uint32_t cacheCapacity = 0;
  /// Network latency bounds (inclusive), in simulated ticks.  With
  /// minLatency < maxLatency messages routinely overtake one another, which
  /// is exactly the unordered-delivery environment of Section 2.1.
  std::uint64_t minLatency = 1;
  std::uint64_t maxLatency = 40;
  /// Delay before a NACKed request is retried (plus a random jitter of the
  /// same magnitude), in ticks.
  std::uint64_t retryDelay = 8;
  /// Bus backend only: max random snoop-processing delay per node per bus
  /// command (the bus has no point-to-point network, so min/maxLatency do
  /// not apply to it).  Other backends ignore this field.
  std::uint64_t busSnoopDelayMax = 16;
  /// Master seed; all randomness in a run derives from it.
  std::uint64_t seed = 1;
  /// TSO extension (the paper's Section 5 future work: "consistency models
  /// other than sequential consistency").  When > 0, each processor gets a
  /// FIFO store buffer of this depth: stores retire (bind) lazily, loads
  /// bypass them and forward from the buffer on a hit — the resulting
  /// executions satisfy TSO but in general not SC.  0 = plain SC processor.
  std::uint32_t storeBufferDepth = 0;
};

}  // namespace lcdc
