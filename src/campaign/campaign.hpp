// The parallel verification-campaign runner.
//
// The paper's argument (Sections 1 and 4) is that Lamport-clock checking
// *scales*: one seeded execution of an arbitrarily large configuration can
// be verified in time linear in its trace, where exhaustive model checking
// explodes.  This module industrialises that claim: it fans out N seeded
// sub-runs across a work-stealing thread pool, each on the PCT network
// schedule (net/network.hpp), runs the full Section 3 checker suite online
// over every execution, and aggregates
//
//   (a) coverage — which of the 14 transaction cases, NACK paths,
//       Put-Shared/deadlock extension paths and store-buffering rules the
//       campaign's schedules actually reached (campaign/coverage.hpp),
//   (b) verdicts — per-claim firing statistics across all sub-runs,
//   (c) reproducers — for every failure, an archived trace plus a
//       delta-debugged minimal schedule that still trips the *same*
//       checker (campaign/minimize.hpp).
//
// Determinism: sub-run i of master seed M is a pure function of (M, i) —
// never of thread scheduling — and aggregation folds per-run results in
// seed order from an indexed table.  Hence the hard guarantee the tests
// pin down: same master seed and seed count => byte-identical report and
// identical failure set, for ANY --jobs value.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/coverage.hpp"
#include "common/config.hpp"
#include "common/thread_pool.hpp"
#include "sim/perf.hpp"
#include "workload/generators.hpp"

namespace lcdc::trace {
class Trace;
}

namespace lcdc::campaign {

struct CampaignConfig {
  /// Which coherence backend every sub-run drives.
  /// Tardis campaigns derive lease lengths per seed, pin storeBufferDepth
  /// to 0 (unsupported there) and add the lease-churn family to the mixed
  /// rotation; the directory derivation stream is untouched, so existing
  /// directory campaign reports stay byte-identical.
  ProtocolKind protocol = ProtocolKind::Directory;
  std::uint64_t masterSeed = 1;
  /// Number of sub-runs (an upper bound when untilCoverage is set).
  std::uint64_t seeds = 256;
  /// Worker threads.
  unsigned jobs = 1;
  /// Pin every sub-run to one generator family; nullopt = the mixed
  /// campaign (family and system shape derived per seed).
  std::optional<workload::Kind> workload;
  /// Fault injection applied to every sub-run.
  Mutant mutant = Mutant::None;
  /// Stop (at a wave boundary) once all 14 transaction cases are covered.
  bool untilCoverage = false;
  /// Delta-debug failing schedules into minimal reproducers.
  bool minimize = true;
  /// Shrink at most this many failures (minimization is sequential).
  std::size_t maxMinimized = 4;
  /// Archive failing (and minimized) traces under this directory; empty =
  /// keep failures in the report only.
  std::string outDir;
  /// Event budget per sub-run (guards against livelock-ish mutants).
  std::uint64_t maxEventsPerRun = 5'000'000;
  /// Probe budget for the minimizer, per failure.
  std::uint64_t minimizeAttempts = 400;
};

/// One fully derived sub-run: everything needed to re-execute it exactly.
/// Every case runs on the PCT network schedule; the bus backend, which has
/// no point-to-point network, runs its snoop-delay schedule instead.
struct CaseSpec {
  SystemConfig sys;
  std::vector<workload::Program> programs;
  std::string description;  ///< e.g. "hot procs=6 dirs=2 blocks=8 cap=2 ..."
};

/// Derive sub-run `index` of a campaign.  Pure function of (config,
/// index); both the fan-out and the minimizer's re-derivation call this.
[[nodiscard]] CaseSpec deriveCase(const CampaignConfig& cfg,
                                  std::uint64_t index);

/// `deriveCase` into a retained spec: program step buffers and the
/// description string are reused (workload::makeInto), so a worker that
/// derives thousands of cases into one thread-local CaseSpec pays for
/// generation once per sub-run and for allocation only at its high-water
/// program size.  Produces exactly what deriveCase returns.
void deriveCaseInto(const CampaignConfig& cfg, std::uint64_t index,
                    CaseSpec& out);

/// Outcome of executing + verifying one case.
struct CaseOutcome {
  /// Failure signature: "" when clean, else "checker:<name>",
  /// "outcome:<deadlock|livelock|budget>", or "invariant" (an Appendix-B
  /// LCDC_EXPECT fired).  The minimizer preserves this string exactly.
  std::string signature;
  std::string detail;  ///< first violation / outcome detail / what()
  Coverage coverage;
  std::uint64_t opsBound = 0;
  std::uint64_t txnsSerialized = 0;
  std::map<std::string, std::uint64_t> checkerFirings;
  /// Hot-loop counters for this sub-run (wall-clock + queue ops).  Never
  /// read by the deterministic report; surfaced in the timing block.
  sim::SimPerfCounters perf;

  [[nodiscard]] bool clean() const { return signature.empty(); }
};

/// Execute one case with the full checker suite observing it online
/// (streaming, so per-run memory is the checkers' bounded state).  When
/// `traceOut` is non-null a recorder is attached too and the trace is left
/// there (also for failing runs — a deadlocked run leaves its truncated
/// trace).
[[nodiscard]] CaseOutcome runCase(const CaseSpec& spec,
                                  std::uint64_t maxEvents,
                                  trace::Trace* traceOut = nullptr);

/// One failing sub-run, with its minimization result when enabled.
struct Failure {
  std::uint64_t index = 0;
  std::string signature;
  std::string detail;
  std::string description;
  std::size_t steps = 0;       ///< schedule size before minimization
  NodeId procs = 0;
  std::string tracePath;       ///< archived original ("" if not archived)
  // -- minimizer output (minimized == true when it ran and reduced) ----------
  bool minimized = false;
  std::size_t minSteps = 0;
  NodeId minProcs = 0;
  std::string minimizedPath;   ///< archived minimal reproducer trace
};

struct CampaignResult {
  /// Backend the campaign drove; selects the reachable-case target the
  /// coverage table is reported against.
  ProtocolKind protocol = ProtocolKind::Directory;
  Coverage coverage;
  std::vector<Failure> failures;  ///< ordered by sub-run index
  std::uint64_t seedsRun = 0;
  std::uint64_t opsBound = 0;
  std::uint64_t txnsSerialized = 0;
  std::map<std::string, std::uint64_t> checkerFirings;
  // Non-deterministic extras, deliberately excluded from report():
  PoolStats pool;
  sim::SimPerfCounters perf;  ///< aggregated over every sub-run
  double seconds = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// Deterministic text report (coverage table, per-claim firings,
  /// failure list).  Contains no timing, thread counts or paths — equal
  /// bytes for equal (masterSeed, seeds, workload, mutant) regardless of
  /// --jobs.
  [[nodiscard]] std::string report() const;
};

/// Run the campaign.  Seeds execute on `cfg.jobs` pool workers; failures
/// are minimized and archived sequentially afterwards (deterministic).
[[nodiscard]] CampaignResult run(const CampaignConfig& cfg);

}  // namespace lcdc::campaign
