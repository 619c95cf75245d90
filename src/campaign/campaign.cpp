#include "campaign/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <sstream>

#include "backend/backend.hpp"
#include "campaign/minimize.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "proto/observer.hpp"
#include "sim/system.hpp"
#include "tardis/tardis_system.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "verify/stream.hpp"

namespace lcdc::campaign {

namespace {

workload::Kind pickKind(Rng& rng) {
  // Weighted toward the contended families: the rare cases (the write-back
  // races 13/14a/14b, upgrade NACKs) only fire under hot-block pressure
  // with capacity evictions.
  const std::uint64_t roll = rng.uniform(0, 99);
  if (roll < 40) return workload::Kind::Hot;
  if (roll < 55) return workload::Kind::Migratory;
  if (roll < 70) return workload::Kind::Uniform;
  if (roll < 80) return workload::Kind::FalseShare;
  if (roll < 90) return workload::Kind::ProdCons;
  return workload::Kind::ReadMostly;
}

workload::Kind pickKindTardis(Rng& rng) {
  // The tardis rotation leads with the lease-churn family (expiry/renewal
  // is the protocol's interesting regime) and keeps the contended
  // directory families for the exclusive-above-lease paths.
  const std::uint64_t roll = rng.uniform(0, 99);
  if (roll < 30) return workload::Kind::LeaseChurn;
  if (roll < 50) return workload::Kind::Hot;
  if (roll < 65) return workload::Kind::Migratory;
  if (roll < 75) return workload::Kind::Uniform;
  if (roll < 85) return workload::Kind::FalseShare;
  if (roll < 95) return workload::Kind::ProdCons;
  return workload::Kind::ReadMostly;
}

}  // namespace

CaseSpec deriveCase(const CampaignConfig& cfg, std::uint64_t index) {
  CaseSpec spec;
  deriveCaseInto(cfg, index, spec);
  return spec;
}

void deriveCaseInto(const CampaignConfig& cfg, std::uint64_t index,
                    CaseSpec& out) {
  // All shape decisions flow from the derived child seed — never from
  // thread identity or global state — so case `index` is reproducible in
  // isolation (the minimizer and the CLI's repro instructions rely on it).
  const std::uint64_t caseSeed = workload::deriveSeed(cfg.masterSeed, index);
  Rng rng(caseSeed);

  SystemConfig sys;
  sys.numProcessors = static_cast<NodeId>(rng.uniform(3, 8));
  sys.numDirectories = static_cast<NodeId>(
      rng.uniform(1, std::max<std::uint64_t>(2, sys.numProcessors / 2)));
  sys.numBlocks = static_cast<BlockId>(rng.uniform(4, 16));
  // Capacity pressure most of the time: evictions under contention are
  // what reach transactions 12/13/14a/14b.
  sys.cacheCapacity =
      rng.chance(70, 100) ? static_cast<std::uint32_t>(rng.uniform(2, 4)) : 0;
  sys.minLatency = 1;
  // The PCT schedule reads no latency bound.  The draw stays: it keeps
  // every later draw (and so each case's shape and programs) in place, and
  // bench/detection replays the case on random latency within it.
  sys.maxLatency = rng.uniform(8, 48);
  sys.retryDelay = rng.uniform(4, 12);
  sys.proto.mutant = cfg.mutant;
  // The deadlock-detection mutant is only reachable through the Section
  // 2.5 extension, so keep it always-on for that mutant.
  sys.proto.putSharedEnabled =
      cfg.mutant == Mutant::NoDeadlockDetection || rng.chance(85, 100);
  sys.storeBufferDepth =
      rng.chance(15, 100) ? static_cast<std::uint32_t>(rng.uniform(2, 4)) : 0;
  if (cfg.protocol == ProtocolKind::Tardis) {
    sys.protocol = ProtocolKind::Tardis;
    // Tardis has no store buffer (the draw above stays, keeping this one
    // derivation path, but the depth is pinned to zero), and its lease
    // length is part of the explored shape: small values force the
    // expiry/renewal regime, large ones the invalidation-free steady state.
    sys.storeBufferDepth = 0;
    sys.proto.leaseLength = static_cast<std::uint32_t>(rng.uniform(2, 48));
  }
  if (cfg.protocol == ProtocolKind::Bus) {
    sys.protocol = ProtocolKind::Bus;
    // The bus supports neither TSO nor point-to-point latency; its explored
    // schedule dimension is the per-node snoop-processing delay instead.
    sys.storeBufferDepth = 0;
    sys.busSnoopDelayMax = rng.uniform(4, 24);
  }
  sys.seed = rng();

  workload::WorkloadConfig w;
  w.numProcessors = sys.numProcessors;
  w.numBlocks = sys.numBlocks;
  w.wordsPerBlock = sys.proto.wordsPerBlock;
  w.opsPerProcessor = rng.uniform(250, 700);
  w.storePercent = static_cast<std::uint32_t>(rng.uniform(25, 60));
  w.evictPercent = static_cast<std::uint32_t>(rng.uniform(4, 16));
  w.seed = rng();

  const workload::Kind kind =
      cfg.workload ? *cfg.workload
                   : (cfg.protocol == ProtocolKind::Tardis
                          ? pickKindTardis(rng)
                          : pickKind(rng));
  workload::makeInto(kind, w, out.programs);
  bool prefetch = false;
  if (rng.chance(20, 100)) {
    prefetch = true;
    out.programs = workload::addPrefetchHints(
        std::move(out.programs), /*lookahead=*/8,
        static_cast<std::uint32_t>(rng.uniform(10, 30)), rng());
  }

  out.sys = sys;
  std::ostringstream desc;
  desc << workload::toString(kind) << " procs=" << sys.numProcessors
       << " dirs=" << sys.numDirectories << " blocks=" << sys.numBlocks
       << " cap=" << sys.cacheCapacity << " retry=" << sys.retryDelay
       << " ops=" << w.opsPerProcessor << " st%=" << w.storePercent
       << " ev%=" << w.evictPercent
       << " ps=" << (sys.proto.putSharedEnabled ? 1 : 0)
       << " sb=" << sys.storeBufferDepth << " pf=" << (prefetch ? 1 : 0);
  if (sys.protocol == ProtocolKind::Tardis) {
    desc << " lease=" << sys.proto.leaseLength;
  }
  if (sys.protocol == ProtocolKind::Bus) {
    desc << " snoop=" << sys.busSnoopDelayMax;
  }
  out.description = desc.str();
}

namespace {

std::string outcomeSignature(const sim::RunResult& result) {
  switch (result.outcome) {
    case sim::RunResult::Outcome::Deadlock: return "outcome:deadlock";
    case sim::RunResult::Outcome::Livelock: return "outcome:livelock";
    default: return "outcome:budget";
  }
}

/// Per-worker persistent engine: one System + one streaming checker set
/// per thread, rewound between sub-runs (System::reset /
/// StreamCheckerSet::reset) instead of reconstructed, so arena slabs,
/// pool free lists and container capacity are paid for once per thread
/// and the steady-state loop stays off the heap.  Reset-then-run is
/// byte-identical to construct-then-run (reset_reuse_test pins the
/// fingerprints), so outcomes stay a pure function of (masterSeed, index)
/// and the report stays byte-identical for any --jobs.
struct WorkerEngine {
  proto::TeeSink tee;  ///< re-wired per sub-run; Systems bind to it once
  std::optional<verify::StreamCheckerSet> checkers;
  std::optional<sim::System> system;
  SystemConfig shape;  ///< the configuration `system` was built with
  std::optional<tardis::TardisSystem> tardisSystem;
  SystemConfig tardisShape;
  /// Bus runs construct fresh (no in-place reset on that backend); the slot
  /// only reuses the allocation across cases.
  std::unique_ptr<proto::BackendSystem> busSystem;
};

WorkerEngine& workerEngine() {
  thread_local WorkerEngine engine;
  return engine;
}

/// True when the configurations differ at most in seed — the distance
/// System::reset can rewind across without reconstruction.
bool resettableTo(const SystemConfig& a, const SystemConfig& b) {
  return a.numProcessors == b.numProcessors &&
         a.numDirectories == b.numDirectories &&
         a.numBlocks == b.numBlocks && a.cacheCapacity == b.cacheCapacity &&
         a.minLatency == b.minLatency && a.maxLatency == b.maxLatency &&
         a.retryDelay == b.retryDelay &&
         a.storeBufferDepth == b.storeBufferDepth &&
         a.proto.wordsPerBlock == b.proto.wordsPerBlock &&
         a.proto.putSharedEnabled == b.proto.putSharedEnabled &&
         a.proto.mutant == b.proto.mutant &&
         a.proto.leaseLength == b.proto.leaseLength;
}

/// Acquire a retained per-worker system (sim::System or
/// tardis::TardisSystem — both expose the same reset/run surface) on the
/// PCT schedule.
template <class Sys>
Sys& acquireSystem(std::optional<Sys>& slot, SystemConfig& shape,
                   proto::TeeSink& tee, const SystemConfig& sys) {
  if (slot && resettableTo(shape, sys)) {
    slot->reset(sys.seed);
  } else {
    slot.emplace(sys, tee, net::Network::Mode::Pct);
    shape = sys;
  }
  return *slot;
}

/// Acquire the retained system, set the programs, run, and fill the
/// timing/queue counters.
template <class Sys>
RunResult runRetained(WorkerEngine& eng, std::optional<Sys>& slot,
                      SystemConfig& shape, const CaseSpec& spec,
                      std::uint64_t maxEvents, CaseOutcome& out) {
  Sys& system = acquireSystem(slot, shape, eng.tee, spec.sys);
  for (NodeId p = 0; p < spec.sys.numProcessors; ++p) {
    system.setProgram(p, spec.programs[p]);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult result = system.run(maxEvents);
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  out.perf.note(result.eventsProcessed, result.opsBound, nanos,
                system.network().queueStats());
  return result;
}

/// Set programs, run, and harvest the backend-specific counters.
RunResult executeCase(WorkerEngine& eng, const CaseSpec& spec,
                      std::uint64_t maxEvents, CaseOutcome& out) {
  if (spec.sys.protocol == ProtocolKind::Bus) {
    // No in-place reset on the bus backend: construct fresh per case.  The
    // adapter rejects unsupported shapes (TSO, foreign mutants) itself.
    eng.busSystem = proto::backendFor(ProtocolKind::Bus)
                        .makeSystem(spec.sys, eng.tee);
    for (NodeId p = 0; p < spec.sys.numProcessors; ++p) {
      eng.busSystem->setProgram(p, spec.programs[p]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult result = eng.busSystem->run(maxEvents);
    const auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    out.perf.note(result.eventsProcessed, result.opsBound, nanos,
                  net::CalendarStats{});
    return result;
  }
  if (spec.sys.protocol == ProtocolKind::Tardis) {
    return runRetained(eng, eng.tardisSystem, eng.tardisShape, spec,
                       maxEvents, out);
  }
  return runRetained(eng, eng.system, eng.shape, spec, maxEvents, out);
}

/// Fold the run's lease statistics into the outcome's coverage.  Called
/// after the coverage tally is assigned (it would be overwritten earlier),
/// including on the invariant-abort path, where the half-run's counters
/// are still meaningful.
void harvestLeaseStats(const WorkerEngine& eng, const CaseSpec& spec,
                       CaseOutcome& out) {
  if (spec.sys.protocol != ProtocolKind::Tardis || !eng.tardisSystem) return;
  out.coverage.leaseRenewals += eng.tardisSystem->stats().leaseRenewals;
  out.coverage.leaseExpiries += eng.tardisSystem->stats().leaseExpiries;
}

}  // namespace

/// The checkers and the coverage tally observe the run online through a
/// TeeSink; nothing is recorded unless the caller asked for a trace.
CaseOutcome runCase(const CaseSpec& spec, std::uint64_t maxEvents,
                    trace::Trace* traceOut) {
  WorkerEngine& eng = workerEngine();
  CoverageObserver cov;
  const verify::VerifyConfig vc = proto::verifyConfigFor(spec.sys);
  if (eng.checkers) {
    eng.checkers->reset(vc);
  } else {
    eng.checkers.emplace(vc);
  }
  verify::StreamCheckerSet& checkers = *eng.checkers;
  eng.tee.clear();
  if (traceOut) {
    traceOut->clear();
    eng.tee.attach(*traceOut);
  }
  eng.tee.attach(cov);
  eng.tee.attach(checkers);

  CaseOutcome out;
  try {
    const RunResult result = executeCase(eng, spec, maxEvents, out);
    out.opsBound = result.opsBound;
    out.txnsSerialized = cov.txnsSerialized();
    out.coverage = cov.coverage();
    harvestLeaseStats(eng, spec, out);
    if (!result.ok()) {
      out.signature = outcomeSignature(result);
      out.detail = result.detail;
      return out;
    }
  } catch (const ProtocolError& e) {
    // An Appendix-B "impossible case" invariant fired inside the protocol
    // core.  The events observed so far still contribute coverage; the
    // next sub-run's reset rewinds the half-finished machine (every
    // component reset is unconditional, so a mid-flight abort leaves
    // nothing behind).
    out.txnsSerialized = cov.txnsSerialized();
    out.coverage = cov.coverage();
    harvestLeaseStats(eng, spec, out);
    out.signature = "invariant";
    out.detail = e.what();
    return out;
  }

  checkers.finish();
  const verify::CheckReport report = checkers.report();
  out.checkerFirings = report.countsByCheck();
  if (!report.ok()) {
    out.signature = "checker:" + report.primaryCheck();
    out.detail = report.violations.front().detail;
  }
  return out;
}

namespace {

std::string caseFileStem(std::uint64_t index) {
  std::ostringstream os;
  os << "case-" << std::setw(6) << std::setfill('0') << index;
  return os.str();
}

/// Archive one trace with enough metadata to re-verify it offline.
std::string archiveTrace(const trace::Trace& trace, const std::string& outDir,
                         const std::string& stem, const CampaignConfig& cfg,
                         std::uint64_t index, const CaseSpec& spec,
                         const std::string& signature, bool complete) {
  namespace fs = std::filesystem;
  fs::create_directories(outDir);
  const std::string path = (fs::path(outDir) / (stem + ".trace")).string();
  std::vector<std::string> meta;
  meta.push_back("lcdc campaign counterexample");
  meta.push_back("master-seed: " + std::to_string(cfg.masterSeed) +
                 "  index: " + std::to_string(index));
  meta.push_back("case: " + spec.description);
  meta.push_back(std::string("mutant: ") + toString(cfg.mutant));
  meta.push_back("signature: " + signature);
  meta.push_back("re-verify: lcdc verify --trace " + path + " --procs " +
                 std::to_string(spec.sys.numProcessors) +
                 (spec.sys.storeBufferDepth > 0 ? " --model tso" : "") +
                 (complete ? "" : " --partial"));
  trace::saveFileWithMeta(trace, path, meta);
  return path;
}

/// Archive and (optionally) delta-debug one failing case; `shrinkThis`
/// gates the minimizer (the caller enforces cfg.maxMinimized).
Failure finalizeFailure(const CampaignConfig& cfg, std::uint64_t index,
                        const CaseSpec& spec, const std::string& signature,
                        const std::string& detailText, bool shrinkThis) {
  const std::string stem = caseFileStem(index);
  Failure f;
  f.index = index;
  f.signature = signature;
  f.detail = detailText;
  f.description = spec.description;
  f.steps = totalSteps(spec);
  f.procs = spec.sys.numProcessors;

  if (!cfg.outDir.empty()) {
    trace::Trace original;
    (void)runCase(spec, cfg.maxEventsPerRun, &original);
    f.tracePath = archiveTrace(
        original, cfg.outDir, stem, cfg, index, spec, signature,
        /*complete=*/signature.rfind("outcome:", 0) != 0 &&
            signature != "invariant");
  }
  if (shrinkThis) {
    MinimizeOptions mo;
    mo.maxAttempts = cfg.minimizeAttempts;
    mo.maxEventsPerRun = cfg.maxEventsPerRun;
    const MinimizeResult mr = shrink(spec, signature, mo);
    f.minimized = mr.reduced();
    f.minSteps = mr.stepsAfter;
    f.minProcs = mr.procsAfter;
    if (!cfg.outDir.empty()) {
      trace::Trace minTrace;
      const CaseOutcome minOutcome =
          runCase(mr.spec, cfg.maxEventsPerRun, &minTrace);
      LCDC_EXPECT(minOutcome.signature == signature,
                  "minimized case no longer reproduces");
      f.minimizedPath = archiveTrace(
          minTrace, cfg.outDir, stem + "-min", cfg, index, mr.spec, signature,
          /*complete=*/signature.rfind("outcome:", 0) != 0 &&
              signature != "invariant");
    }
  }
  return f;
}

}  // namespace

CampaignResult run(const CampaignConfig& cfg) {
  LCDC_EXPECT(cfg.seeds > 0, "campaign needs at least one seed");
  requireMutant(cfg.protocol, cfg.mutant);
  const auto t0 = std::chrono::steady_clock::now();

  CampaignResult result;
  result.protocol = cfg.protocol;

  ThreadPool pool(cfg.jobs);

  // Per-seed outcome table, indexed by sub-run index.  Workers write only
  // their own slot; aggregation reads the table in index order after the
  // wave barrier — the scheduling-independent part of the determinism
  // guarantee.
  std::vector<CaseOutcome> outcomes(cfg.seeds);

  // Waves keep --until-coverage deterministic: the stop decision is taken
  // only at wave boundaries, on fully aggregated prefixes, so it depends
  // on seed indices alone, never on which worker finished first.
  const std::uint64_t waveSize =
      cfg.untilCoverage ? std::max<std::uint64_t>(64, cfg.jobs * 8ULL)
                        : cfg.seeds;
  std::uint64_t next = 0;
  while (next < cfg.seeds) {
    const std::uint64_t waveEnd = std::min(cfg.seeds, next + waveSize);
    for (std::uint64_t i = next; i < waveEnd; ++i) {
      pool.submit([&cfg, &outcomes, i] {
        // One retained spec per worker: program buffers and description
        // are reused across the thousands of cases this thread derives.
        thread_local CaseSpec spec;
        deriveCaseInto(cfg, i, spec);
        outcomes[i] = runCase(spec, cfg.maxEventsPerRun);
      });
    }
    pool.wait();
    for (std::uint64_t i = next; i < waveEnd; ++i) {
      CaseOutcome& o = outcomes[i];
      result.coverage.merge(o.coverage);
      result.opsBound += o.opsBound;
      result.txnsSerialized += o.txnsSerialized;
      result.perf.merge(o.perf);
      for (const auto& [check, n] : o.checkerFirings) {
        result.checkerFirings[check] += n;
      }
    }
    result.seedsRun = waveEnd;
    next = waveEnd;
    if (cfg.untilCoverage &&
        result.coverage.transactionCasesComplete(cfg.protocol)) {
      break;
    }
  }

  // Collect failures in index order, then minimize/archive sequentially —
  // single-threaded on purpose, so reproducer contents are deterministic
  // too.
  for (std::uint64_t i = 0; i < result.seedsRun; ++i) {
    const CaseOutcome& o = outcomes[i];
    if (o.clean()) continue;
    const CaseSpec spec = deriveCase(cfg, i);
    const bool shrinkThis =
        cfg.minimize && result.failures.size() < cfg.maxMinimized;
    result.failures.push_back(
        finalizeFailure(cfg, i, spec, o.signature, o.detail, shrinkThis));
  }

  result.pool = pool.stats();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

std::string CampaignResult::report() const {
  std::ostringstream os;
  os << "seeds run: " << seedsRun << '\n'
     << "operations bound: " << opsBound << '\n'
     << "transactions serialized: " << txnsSerialized << '\n';
  os << coverage.report(protocol);
  os << "checker firings:";
  if (checkerFirings.empty()) {
    os << " none\n";
  } else {
    os << '\n';
    for (const auto& [check, n] : checkerFirings) {
      os << "  " << check << ": " << n << '\n';
    }
  }
  os << "failures: " << failures.size() << '\n';
  for (const Failure& f : failures) {
    os << "  #" << f.index << " [" << f.signature << "] " << f.description
       << '\n'
       << "      " << f.detail << '\n';
    if (f.minimized) {
      os << "      minimized: steps " << f.steps << " -> " << f.minSteps
         << ", procs " << static_cast<unsigned>(f.procs) << " -> "
         << static_cast<unsigned>(f.minProcs) << '\n';
    }
  }
  return os.str();
}

}  // namespace lcdc::campaign
