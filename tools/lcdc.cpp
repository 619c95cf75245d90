// lcdc — command-line driver for the whole reproduction.
//
//   lcdc run       simulate a workload on a coherence backend (--protocol
//                  dir|bus|tardis), verify the Section 3 properties,
//                  optionally dump the trace
//   lcdc verify    re-verify a previously dumped trace offline
//   lcdc mc        exhaustively model-check a small configuration
//   lcdc campaign  fan out thousands of seeded runs across a thread pool,
//                  aggregate transaction-case coverage and checker verdicts,
//                  and delta-debug any failure into a minimal reproducer
//   lcdc serve     host a message-passing DSM: one thread per node over TCP
//                  loopback, event streams certified live by a streaming
//                  Lamport-clock checker on a merge node
//   lcdc load      drive a running serve with a generated workload and
//                  measure throughput and chunk round-trip latency
//
// Examples:
//   lcdc run --procs 8 --dirs 4 --blocks 64 --ops 5000 --workload hot
//   lcdc run --mutant forward-stale-value --trace /tmp/bug.trace
//   lcdc verify --trace /tmp/bug.trace --procs 6
//   lcdc mc --procs 3 --blocks 1
//   lcdc campaign --seeds 1024 --jobs 8 --until-coverage
//   lcdc campaign --seeds 256 --mutant no-busy-nack --minimize --out /tmp/cex
//   lcdc serve --nodes 3 --port 7400
//   lcdc load --port 7400 --ops 200000 --clients 3 --mix hot
//
// Exit codes (stable; campaign scripts and CI discriminate on them):
//   0  success
//   1  verification violations
//   2  usage error (unknown command/option, malformed value)
//   3  campaign detected failures
//   4  simulation did not reach quiescence / protocol invariant fired
//   5  I/O or trace-format error
//   6  mc stopped at --mem-limit-mb (resumable when --checkpoint was given)
#include <algorithm>
#include <chrono>
#include <csignal>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "backend/backend.hpp"
#include "campaign/campaign.hpp"
#include "common/expect.hpp"
#include "dsm/load.hpp"
#include "dsm/serve.hpp"
#include "mc/model_checker.hpp"
#include "mc/replay.hpp"
#include "proto/observer.hpp"
#include "sim/perf.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "verify/checkers.hpp"
#include "verify/stream.hpp"
#include "workload/generators.hpp"

namespace {

using namespace lcdc;

constexpr int kExitOk = 0;
constexpr int kExitViolations = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCampaignFailed = 3;
constexpr int kExitSimFailed = 4;
constexpr int kExitIo = 5;
/// `lcdc mc --mem-limit-mb` stopped at a wave boundary before finishing
/// (and found no violation up to that point).
constexpr int kExitMemLimit = 6;

constexpr const char* kVersion = "1.0.0";

/// Malformed invocation: unknown command/option, missing or unparsable
/// value.  Distinct from SimError so scripts can tell "you called it
/// wrong" (exit 2) from "the input file is bad" (exit 5).
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Per-command option schema: every key takes a value, every flag stands
/// alone.  Anything not listed is rejected up front.
struct OptionSpec {
  std::set<std::string> keys;
  std::set<std::string> flags;
};

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> flags;

  [[nodiscard]] std::uint64_t num(const std::string& key,
                                  std::uint64_t fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    try {
      std::size_t pos = 0;
      const std::uint64_t value = std::stoull(it->second, &pos);
      if (pos != it->second.size() || it->second.front() == '-') {
        throw std::invalid_argument(it->second);
      }
      return value;
    } catch (const std::exception&) {
      throw UsageError("--" + key + " expects a non-negative integer, got '" +
                       it->second + "'");
    }
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }
};

Args parse(int argc, char** argv, int from, const std::string& cmd,
           const OptionSpec& spec) {
  Args args;
  for (int i = from; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + a + "' for '" + cmd + "'");
    }
    const std::string name = a.substr(2);
    if (spec.keys.contains(name)) {
      if (i + 1 >= argc) {
        throw UsageError("--" + name + " requires a value");
      }
      args.kv[name] = argv[++i];
    } else if (spec.flags.contains(name)) {
      if (!args.has(name)) args.flags.push_back(name);
    } else {
      throw UsageError("unknown option --" + name + " for '" + cmd + "'");
    }
  }
  return args;
}

workload::Kind parseWorkload(const std::string& name) {
  try {
    return workload::kindFromName(name);
  } catch (const SimError& e) {
    throw UsageError(e.what());
  }
}

ProtocolKind parseProtocol(const std::string& name) {
  try {
    return proto::protocolFromName(name);
  } catch (const SimError& e) {
    throw UsageError(e.what());
  }
}

Mutant parseMutant(const std::string& name) {
  const Mutant all[] = {Mutant::None,
                        Mutant::SkipInvAckWait,
                        Mutant::StaleDataFromHome,
                        Mutant::IgnoreInvalidation,
                        Mutant::ForwardStaleValue,
                        Mutant::NoBusyNack,
                        Mutant::NoDeadlockDetection,
                        Mutant::DropLeaseBump,
                        Mutant::FlushStaleEpoch,
                        Mutant::CompleteStaleEpoch,
                        Mutant::DisplaceParkedFlush,
                        Mutant::SkipWbClockAbsorb,
                        Mutant::StaleWbForward};
  for (const Mutant m : all) {
    if (name == toString(m)) return m;
  }
  throw UsageError("unknown mutant: " + name);
}

mc::VisitedMode parseVisitedMode(const std::string& name) {
  if (name == "exact") return mc::VisitedMode::Exact;
  if (name == "compact") return mc::VisitedMode::Compact;
  if (name == "bitstate") return mc::VisitedMode::Bitstate;
  throw UsageError("--visited expects exact|compact|bitstate, got '" + name +
                   "'");
}

/// Process peak RSS from getrusage, as `lcdc mc --perf` reports it.
std::uint64_t peakRssBytes() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

int reportAndExit(const verify::CheckReport& report, bool quiet) {
  std::cout << "verification: " << report.summary() << '\n';
  if (!report.ok() && !quiet) {
    std::size_t shown = 0;
    for (const auto& v : report.violations) {
      std::cout << "  [" << v.check << "] " << v.detail << '\n';
      if (++shown == 10) break;
    }
  }
  return report.ok() ? kExitOk : kExitViolations;
}

int cmdRun(const Args& args) {
  const NodeId procs = static_cast<NodeId>(args.num("procs", 8));
  const std::string workloadName = args.str("workload", "uniform");

  workload::WorkloadConfig w;
  w.numProcessors = procs;
  w.numBlocks = static_cast<BlockId>(args.num("blocks", 64));
  w.wordsPerBlock = static_cast<WordIdx>(args.num("words", 4));
  w.opsPerProcessor = args.num("ops", 2000);
  w.storePercent = static_cast<std::uint32_t>(args.num("store-pct", 35));
  w.evictPercent = static_cast<std::uint32_t>(args.num("evict-pct", 6));
  w.seed = args.num("seed", 1);
  auto programs = workload::make(parseWorkload(workloadName), w);
  if (args.kv.contains("prefetch")) {
    programs = workload::addPrefetchHints(
        std::move(programs), /*lookahead=*/8,
        static_cast<std::uint32_t>(args.num("prefetch", 25)), w.seed);
  }

  const std::string model = args.str("model", "sc");
  if (model != "sc" && model != "tso") {
    throw UsageError("unknown model: " + model + " (sc|tso)");
  }
  // --streaming verifies online through the observer pipeline; --no-trace
  // additionally drops the recorder, so memory stays O(blocks + procs).
  const bool noTrace = args.has("no-trace");
  const bool streaming = args.has("streaming") || noTrace;
  if (noTrace && args.kv.contains("trace")) {
    throw UsageError("--no-trace conflicts with --trace FILE");
  }
  const std::string traceFormat = args.str("trace-format", "text");
  if (traceFormat != "text" && traceFormat != "binary") {
    throw UsageError("unknown trace format: " + traceFormat +
                     " (text|binary)");
  }
  const bool keepTrace = !streaming || args.kv.contains("trace");

  trace::Trace trace;
  verify::StatsObserver stats;
  std::optional<verify::StreamCheckerSet> checkers;
  proto::TeeSink tee;
  if (keepTrace) tee.attach(trace);
  tee.attach(stats);

  // --perf: wall-clock + hot-loop counters, printed after the deterministic
  // output (like `lcdc mc --perf`, nothing here is diffable between runs).
  const bool perf = args.has("perf");
  std::optional<sim::SimPerfCounters> perfCounters;

  // One backend-driven path for every protocol (DESIGN.md §12): the
  // SystemConfig is built once, the backend decides what it honours and
  // rejects the rest loudly.
  const ProtocolKind protocol = parseProtocol(args.str("protocol", "dir"));
  const proto::CoherenceBackend& backend = proto::backendFor(protocol);

  SystemConfig cfg;
  cfg.protocol = protocol;
  cfg.numProcessors = procs;
  cfg.numDirectories =
      static_cast<NodeId>(args.num("dirs", std::max<NodeId>(1, procs / 2)));
  cfg.numBlocks = w.numBlocks;
  cfg.proto.wordsPerBlock = w.wordsPerBlock;
  cfg.cacheCapacity = static_cast<std::uint32_t>(args.num("capacity", 0));
  cfg.minLatency = args.num("min-latency", 1);
  cfg.maxLatency = args.num("max-latency", 40);
  cfg.busSnoopDelayMax = args.num("snoop-delay", 16);
  cfg.seed = w.seed;
  cfg.proto.putSharedEnabled = !args.has("no-putshared");
  cfg.proto.mutant = parseMutant(args.str("mutant", "none"));
  cfg.proto.leaseLength =
      static_cast<std::uint32_t>(args.num("lease", 16));
  cfg.storeBufferDepth =
      static_cast<std::uint32_t>(args.num("store-buffer", 0));

  verify::VerifyConfig vc;
  std::unique_ptr<proto::BackendSystem> sys;
  try {
    vc = backend.verifyConfig(cfg);
    sys = backend.makeSystem(cfg, tee);
  } catch (const SimError& e) {
    // Unsupported combination (e.g. --protocol bus --store-buffer 2): the
    // invocation, not the input, is at fault.
    throw UsageError(e.what());
  }
  if (model == "tso") vc.tso = true;
  if (streaming) {
    checkers.emplace(vc);
    tee.attach(*checkers);
  }
  for (NodeId p = 0; p < procs; ++p) sys->setProgram(p, programs[p]);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = sys->run();
  if (perf && sys->network() != nullptr) {
    const auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    perfCounters.emplace();
    perfCounters->note(r.eventsProcessed, r.opsBound, nanos,
                       sys->network()->queueStats());
  }
  const std::string outcome = toString(r.outcome);
  const std::uint64_t opsBound = r.opsBound;
  const bool runOk = r.ok();

  std::cout << "simulation: " << outcome << " — " << opsBound
            << " operations, " << stats.stats().serializations
            << " transactions\n";
  sys->printStats(std::cout);
  if (perfCounters) perfCounters->print(std::cout);
  if (perf && !perfCounters) {
    std::cout << "sim perf: (--perf needs a backend with a point-to-point "
                 "network; the bus is a centralized medium)\n";
  }
  if (const auto it = args.kv.find("trace"); it != args.kv.end()) {
    if (traceFormat == "binary") {
      trace::saveFileBinary(trace, it->second);
    } else {
      trace::saveFile(trace, it->second);
    }
    std::cout << "trace written to " << it->second << " (" << traceFormat
              << ")\n";
  }
  if (!runOk) return kExitSimFailed;
  if (vc.tso) std::cout << "(verifying against TSO)\n";
  int rc = kExitOk;
  if (streaming) {
    checkers->finish();
    std::cout << "checker state: " << checkers->memoryFootprint()
              << " bytes (streaming)\n";
    rc = reportAndExit(checkers->report(), args.has("quiet"));
  } else {
    rc = reportAndExit(verify::checkAll(trace, vc), args.has("quiet"));
  }
  // Last, so the peak covers verification too.
  if (perf) std::cout << "perf: process peak RSS " << peakRssBytes() << " B\n";
  return rc;
}

int cmdVerify(const Args& args) {
  const auto it = args.kv.find("trace");
  if (it == args.kv.end()) throw UsageError("verify requires --trace FILE");
  const trace::Trace trace = trace::loadFile(it->second);
  verify::VerifyConfig cfg{static_cast<NodeId>(args.num("procs", 8))};
  cfg.expectComplete = !args.has("partial");
  cfg.tso = args.str("model", "sc") == "tso";
  std::cout << "loaded " << trace.operations().size() << " operations, "
            << trace.serializations().size() << " transactions\n";
  return reportAndExit(verify::checkAll(trace, cfg), args.has("quiet"));
}

/// The `--perf` block.  Byte counters and the probe histogram are exact;
/// the nanosecond lines are wall-clock measurements and scheduling-
/// dependent, so nothing here should be diffed between runs.
void printMcPerf(const mc::McResult& r) {
  const mc::McPerfCounters& p = r.perf;
  const auto per = [](std::uint64_t total, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  };
  std::cout << "perf: encodes " << p.encodeCalls << ", inserts "
            << p.insertCalls << ", stored " << p.storedStates << " ("
            << per(p.storedEncodingBytes, p.storedStates)
            << " enc B/state)\n"
            << "perf: visited bytes " << r.visitedBytes << " ("
            << per(r.visitedBytes, p.storedStates)
            << " B/state), frontier-arena peak " << r.frontierBytesPeak
            << " B\n"
            << "perf: tracked peak " << r.trackedBytesPeak
            << " B, process peak RSS " << r.peakRssBytes << " B\n"
            << "perf: probe histogram [0,1,2,3-4,5-8,>8]:";
  for (const std::uint64_t b : p.probeHist) std::cout << ' ' << b;
  std::cout << '\n';
  if (p.spillSegments != 0 || p.checkpointBytes != 0) {
    std::cout << "perf: spill " << p.spillSegments << " segments, "
              << p.spillBytesWritten << " B written, " << p.spillBytesRead
              << " B read, checkpoint " << p.checkpointBytes
              << " B written\n";
  }
  if (r.omissionBound > 0) {
    std::cout << "perf: P(omission) <= " << r.omissionBound << '\n';
  }
  if (p.expandNanos != 0) {
    std::cout << "perf: encode " << per(p.encodeNanos, p.encodeCalls)
              << " ns/call, insert " << per(p.insertNanos, p.insertCalls)
              << " ns/call, world save "
              << per(p.worldSaveNanos, p.storedStates) << " ns/state, load "
              << per(p.worldLoadNanos, r.statesExplored)
              << " ns/state, expand total " << p.expandNanos / 1'000'000
              << " ms\n";
  }
}

int cmdMc(const Args& args) {
  mc::McConfig cfg;
  cfg.protocol = parseProtocol(args.str("protocol", "dir"));
  if (cfg.protocol == ProtocolKind::Bus) {
    throw UsageError(
        "the bus backend is not model-checkable (--protocol dir|tardis)");
  }
  cfg.numProcessors = static_cast<NodeId>(args.num("procs", 2));
  cfg.numBlocks = static_cast<BlockId>(args.num("blocks", 1));
  cfg.proto.leaseLength =
      static_cast<std::uint32_t>(args.num("lease", 16));
  cfg.maxStates = args.num("max-states", 2'000'000);
  cfg.maxDepth = args.num("max-depth", 0);
  cfg.jobs = static_cast<unsigned>(args.num("jobs", 1));
  if (cfg.jobs == 0) throw UsageError("--jobs must be at least 1");
  cfg.symmetry = args.has("symmetry");
  cfg.por = args.has("por");
  cfg.modelData = args.has("model-data");
  cfg.allowEvictions = !args.has("no-evictions");
  cfg.proto.putSharedEnabled = !args.has("no-putshared");
  cfg.proto.mutant = parseMutant(args.str("mutant", "none"));
  cfg.memLimitMb = args.num("mem-limit-mb", 0);
  cfg.perf = args.has("perf");
  cfg.visited = parseVisitedMode(args.str("visited", "exact"));
  cfg.bitstateMb = args.num("bitstate-mb", 64);
  if (cfg.bitstateMb == 0) throw UsageError("--bitstate-mb must be >= 1");
  cfg.spillDir = args.str("spill", "");
  cfg.checkpointDir = args.str("checkpoint", "");
  cfg.checkpointEvery = args.num("checkpoint-every", 1);
  cfg.resumeDir = args.str("resume", "");
  // Flag conflicts are usage errors here (exit 2); API callers of
  // mc::explore get the same check as a SimError.
  try {
    mc::validate(cfg);
  } catch (const SimError& e) {
    throw UsageError(e.what());
  }
  const mc::McResult r = mc::explore(cfg);
  std::cout << "states: " << r.statesExplored
            << (r.hitStateLimit ? " (limit hit)" : "")
            << (r.memLimitHit
                    ? (r.perf.checkpointBytes != 0 || r.resumed
                           ? " (mem limit hit, checkpointed)"
                           : " (mem limit hit)")
                    : "")
            << (r.resumed ? " (resumed)" : "")
            << ", transitions: " << r.transitions
            << ", peak frontier: " << r.frontierPeak
            << ", waves: " << r.wavesCompleted;
  if (cfg.por) std::cout << ", ample states: " << r.ampleStates;
  if (cfg.visited != mc::VisitedMode::Exact) {
    std::cout << ", visited: " << toString(cfg.visited)
              << ", P(omission) <= " << r.omissionBound;
  }
  std::cout << '\n';
  if (cfg.perf) printMcPerf(r);
  if (r.deadlockFound) std::cout << "DEADLOCK state reachable\n";
  for (const auto& v : r.violations) std::cout << "VIOLATION: " << v << '\n';
  if (r.counterexample) {
    const mc::Counterexample& cex = *r.counterexample;
    std::cout << "counterexample (" << cex.kind << ", "
              << cex.schedule.size() << " steps): " << cex.detail << '\n';
    std::size_t step = 0;
    for (const mc::Action& a : cex.schedule) {
      std::cout << "  " << step++ << ": " << mc::toString(a) << '\n';
    }
    if (cex.schedule.empty() && cfg.visited != mc::VisitedMode::Exact) {
      std::cout << "  (no schedule: --visited " << toString(cfg.visited)
                << " keeps no parent edges; rerun with --visited exact)\n";
    }
    if (args.has("replay") && cex.schedule.empty()) {
      std::cout << "replay: nothing to replay (no schedule)\n";
    } else if (args.has("replay")) {
      const mc::ReplayResult rep = mc::replayCounterexample(cfg, cex.schedule);
      std::cout << "replay: "
                << (rep.divergence.empty() ? "schedule applied"
                                           : "DIVERGED: " + rep.divergence)
                << '\n';
      if (!rep.invariant.empty()) {
        std::cout << "replay invariant: " << rep.invariant << '\n';
      }
      if (rep.deadlocked) std::cout << "replay: simulator deadlocked\n";
      std::cout << "replay checkers: " << rep.report.summary() << '\n';
      for (const auto& v : rep.report.violations) {
        std::cout << "  [" << v.check << "] " << v.detail << '\n';
      }
    }
  } else if (args.has("replay")) {
    std::cout << "replay: nothing to replay (no counterexample)\n";
  }
  if (!r.ok()) return kExitViolations;
  if (r.hitStateLimit) {
    // For the directory protocol the cap is exhaustiveness lost: an
    // inconclusive (non-zero) verdict.  Tardis's space never closes, so a
    // clean capped run is its success mode (bounded-exhaustive).
    if (cfg.protocol != ProtocolKind::Tardis) return kExitViolations;
    std::cout << "bounded-exhaustive: clean within the state cap\n";
  }
  if (r.memLimitHit) return kExitMemLimit;
  return kExitOk;
}

int cmdCampaign(const Args& args) {
  campaign::CampaignConfig cfg;
  cfg.protocol = parseProtocol(args.str("protocol", "dir"));
  cfg.masterSeed = args.num("master-seed", 1);
  cfg.seeds = args.num("seeds", 256);
  if (cfg.seeds == 0) throw UsageError("--seeds must be at least 1");
  cfg.jobs = static_cast<unsigned>(args.num("jobs", 1));
  if (cfg.jobs == 0) throw UsageError("--jobs must be at least 1");
  const std::string workloadName = args.str("workload", "mixed");
  if (workloadName != "mixed") {
    cfg.workload = parseWorkload(workloadName);
  }
  cfg.mutant = parseMutant(args.str("mutant", "none"));
  cfg.untilCoverage = args.has("until-coverage");
  cfg.minimize = args.has("minimize");
  cfg.maxMinimized = args.num("max-minimized", 4);
  cfg.outDir = args.str("out", "");
  cfg.maxEventsPerRun = args.num("max-events", 5'000'000);
  cfg.minimizeAttempts = args.num("minimize-attempts", 400);
  // Streaming (online, trace-free) verification is the default; --no-streaming
  // re-enables the record-then-batch-check path for A/B comparison.  Both
  // produce identical reports and failure signatures.
  cfg.streaming = !args.has("no-streaming");
  // Optional exhaustive stage: model-check a small configuration of the
  // same protocol variant before the seed fan-out.
  cfg.mcStage = args.has("mc-stage");
  cfg.mcProcs = static_cast<NodeId>(args.num("mc-procs", 2));
  cfg.mcBlocks = static_cast<BlockId>(args.num("mc-blocks", 1));
  cfg.mcMaxStates = args.num("mc-max-states", 400'000);
  cfg.mcVisited = parseVisitedMode(args.str("mc-visited", "exact"));
  cfg.mcMemLimitMb = args.num("mc-mem-limit-mb", 0);
  cfg.mcSpillDir = args.str("mc-spill", "");
  cfg.mcCheckpointDir = args.str("mc-checkpoint", "");
  cfg.mcResumeDir = args.str("mc-resume", "");
  if (!cfg.mcStage &&
      (cfg.mcVisited != VisitedMode::Exact || cfg.mcMemLimitMb != 0 ||
       !cfg.mcSpillDir.empty() || !cfg.mcCheckpointDir.empty() ||
       !cfg.mcResumeDir.empty())) {
    throw UsageError("--mc-visited/--mc-mem-limit-mb/--mc-spill/"
                     "--mc-checkpoint/--mc-resume require --mc-stage");
  }

  std::cout << "campaign: master-seed=" << cfg.masterSeed
            << " seeds=" << cfg.seeds << " workload=" << workloadName
            << (cfg.protocol == ProtocolKind::Directory
                    ? std::string()
                    : std::string(" protocol=") +
                          proto::backendFor(cfg.protocol).name())
            << " mutant=" << toString(cfg.mutant)
            << (cfg.untilCoverage ? " until-coverage" : "")
            << (cfg.minimize ? " minimize" : "")
            << (cfg.streaming ? "" : " no-streaming")
            << (cfg.mcStage ? " mc-stage" : "")
            << '\n';

  const campaign::CampaignResult r = campaign::run(cfg);
  std::cout << r.report();

  // Timing and pool behaviour are real but scheduling-dependent; keep them
  // visually separate from the deterministic report above.
  std::cout << "-- timing (non-deterministic) --\n"
            << "jobs: " << cfg.jobs << ", wall: " << r.seconds << " s, "
            << (r.seconds > 0
                    ? static_cast<double>(r.seedsRun) / r.seconds
                    : 0.0)
            << " seeds/s, tasks stolen: " << r.pool.tasksStolen << "/"
            << r.pool.tasksExecuted << '\n';
  r.perf.print(std::cout);
  if (r.mcStage.ran) {
    std::cout << "mc stage: " << r.mcSeconds << " s, "
              << (r.mcSeconds > 0
                      ? static_cast<double>(r.mcStage.states) / r.mcSeconds
                      : 0.0)
              << " states/s\n";
  }
  std::cout << "process peak RSS " << peakRssBytes() << " B\n";
  if (!args.has("quiet")) {
    for (const auto& f : r.failures) {
      if (!f.tracePath.empty()) {
        std::cout << "archived: " << f.tracePath << '\n';
      }
      if (!f.minimizedPath.empty()) {
        std::cout << "minimal reproducer: " << f.minimizedPath << '\n';
      }
    }
  }
  if (cfg.untilCoverage &&
      !r.coverage.transactionCasesComplete(cfg.protocol)) {
    std::cout << "coverage target NOT reached after " << r.seedsRun
              << " seeds\n";
  }
  return r.ok() ? kExitOk : kExitCampaignFailed;
}

/// SIGINT flag for `lcdc serve`: the handler only sets it; the serve
/// supervisor polls it and runs the graceful drain-then-FIN shutdown.
volatile std::sig_atomic_t gStopServe = 0;
extern "C" void onServeSigint(int) {
  __atomic_store_n(&gStopServe, 1, __ATOMIC_RELAXED);
}

void printServeStats(const dsm::ServeResult& r, bool quiet) {
  std::uint64_t msgs = 0;
  std::uint64_t events = 0;
  std::uint64_t beats = 0;
  for (const auto& ns : r.nodeStats) {
    msgs += ns.msgsSent;
    events += ns.eventsEmitted;
    beats += ns.heartbeats;
  }
  std::cout << "serve stats: " << r.opsBound << " ops bound, "
            << (r.seconds > 0
                    ? static_cast<double>(r.opsBound) / r.seconds
                    : 0.0)
            << " ops/s, " << r.seconds << " s\n"
            << "  nodes: " << msgs << " msgs shipped, " << events
            << " events emitted, " << beats << " heartbeats, "
            << r.dialRetries << " dial retries\n"
            << "  certifier: " << r.certStats.eventsMerged
            << " events merged, peak lag " << r.certStats.peakLag
            << ", checker state " << r.certStats.checkerBytes() << " B\n";
  if (!quiet) {
    for (const auto& ns : r.nodeStats) {
      std::cout << "  node " << (&ns - r.nodeStats.data()) << ": ops "
                << ns.opsBound << ", chunks " << ns.chunksDone << ", msgs "
                << ns.msgsSent << "/" << ns.msgsReceived << ", events "
                << ns.eventsEmitted << '\n';
    }
  }
  if (!r.drained) {
    std::cout << "WARNING: shutdown drain timed out — streams were cut with "
                 "work in flight; violations below may be artifacts\n";
  }
}

int cmdServe(const Args& args) {
  dsm::ServeConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(args.num("nodes", 3));
  if (cfg.nodes == 0) throw UsageError("--nodes must be at least 1");
  cfg.port = static_cast<std::uint16_t>(args.num("port", 7400));
  cfg.once = args.has("once");
  cfg.system.numBlocks = static_cast<BlockId>(args.num("blocks", 64));
  cfg.system.proto.wordsPerBlock =
      static_cast<WordIdx>(args.num("words", 4));
  cfg.system.seed = args.num("seed", 1);
  cfg.system.storeBufferDepth =
      static_cast<std::uint32_t>(args.num("store-buffer", 0));
  cfg.system.proto.mutant = parseMutant(args.str("mutant", "none"));
  cfg.heartbeatEveryPumps = args.num("heartbeat-pumps", 16);
  if (cfg.heartbeatEveryPumps == 0) {
    throw UsageError("--heartbeat-pumps must be at least 1");
  }
  cfg.idleTimeoutMs = args.num("idle-timeout-ms", 30'000);
  cfg.drainTimeoutMs = args.num("drain-timeout-ms", 10'000);

  dsm::ServeResult r;
  if (args.has("mem")) {
    // Deterministic loopback: embedded load, single thread, no sockets.
    dsm::MemLoadSpec load;
    load.kind = parseWorkload(args.str("mix", "uniform"));
    load.totalOps = args.num("ops", 10'000);
    load.seed = args.num("load-seed", cfg.system.seed);
    load.chunkSteps = static_cast<std::uint32_t>(args.num("chunk", 1024));
    load.window = static_cast<std::uint32_t>(args.num("window", 2));
    std::cout << "serve (mem loopback): " << cfg.nodes << " nodes, "
              << load.totalOps << " ops, mix=" << args.str("mix", "uniform")
              << ", seed " << load.seed << '\n';
    r = dsm::serveMem(cfg, load);
  } else {
    if (cfg.port == 0) {
      throw UsageError(
          "--port 0 (ephemeral) is for in-process tests; pick a port");
    }
    std::signal(SIGINT, onServeSigint);
    std::cout << "serve: " << cfg.nodes
              << " nodes on 127.0.0.1, certifier on port " << cfg.port
              << ", node i on port " << cfg.port << "+1+i"
              << (cfg.once ? "; exiting after first load session"
                           : "; Ctrl-C for graceful shutdown")
              << std::endl;
    r = dsm::serveTcp(cfg, &gStopServe, nullptr);
  }
  printServeStats(r, args.has("quiet"));
  const int rc = reportAndExit(r.report, args.has("quiet"));
  // An undrained shutdown means the serve could not reach quiescence —
  // surface that even when the (possibly truncated) verdict is clean.
  if (!r.drained && rc == kExitOk) return kExitSimFailed;
  return rc;
}

int cmdLoad(const Args& args) {
  dsm::LoadConfig cfg;
  cfg.port = static_cast<std::uint16_t>(args.num("port", 7400));
  if (cfg.port == 0) throw UsageError("--port must be nonzero");
  cfg.totalOps = args.num("ops", 100'000);
  cfg.clients = static_cast<std::uint32_t>(args.num("clients", 1));
  if (cfg.clients == 0) throw UsageError("--clients must be at least 1");
  cfg.kind = parseWorkload(args.str("mix", "uniform"));
  cfg.seed = args.num("seed", 1);
  cfg.chunkSteps = static_cast<std::uint32_t>(args.num("chunk", 1024));
  if (cfg.chunkSteps == 0) throw UsageError("--chunk must be at least 1");
  cfg.window = static_cast<std::uint32_t>(args.num("window", 2));
  if (cfg.window == 0) throw UsageError("--window must be at least 1");

  const dsm::LoadResult r = dsm::runLoad(cfg);
  std::cout << "load: " << r.opsBound << " ops over " << r.nodes
            << " nodes in " << r.seconds << " s\n"
            << "  throughput: " << r.opsPerSec << " ops/s\n"
            << "  chunk RTT: p50 " << r.p50Ms << " ms, p99 " << r.p99Ms
            << " ms (" << r.chunksDone << " chunks)\n"
            << "  dial retries: " << r.dialRetries << '\n';
  return kExitOk;
}

const std::map<std::string, OptionSpec>& optionSpecs() {
  static const std::map<std::string, OptionSpec> specs = {
      {"run",
       {{"procs", "dirs", "blocks", "ops", "words", "seed", "workload",
         "protocol", "capacity", "mutant", "store-pct", "evict-pct",
         "prefetch", "store-buffer", "model", "min-latency", "max-latency",
         "snoop-delay", "lease", "trace", "trace-format"},
        {"no-putshared", "quiet", "streaming", "no-trace", "perf"}}},
      {"verify", {{"trace", "procs", "model"}, {"partial", "quiet"}}},
      {"mc",
       {{"procs", "blocks", "protocol", "lease", "max-states", "max-depth",
         "jobs", "mutant", "mem-limit-mb", "visited", "bitstate-mb", "spill",
         "checkpoint", "checkpoint-every", "resume"},
        {"no-evictions", "no-putshared", "symmetry", "por", "model-data",
         "replay", "perf"}}},
      {"campaign",
       {{"seeds", "jobs", "master-seed", "workload", "protocol", "mutant",
         "out", "max-events", "max-minimized", "minimize-attempts",
         "mc-procs", "mc-blocks", "mc-max-states", "mc-visited",
         "mc-mem-limit-mb", "mc-spill", "mc-checkpoint", "mc-resume"},
        {"until-coverage", "minimize", "quiet", "streaming",
         "no-streaming", "mc-stage"}}},
      {"serve",
       {{"nodes", "port", "blocks", "words", "seed", "store-buffer",
         "mutant", "heartbeat-pumps", "idle-timeout-ms", "drain-timeout-ms",
         "ops", "mix", "load-seed", "chunk", "window"},
        {"once", "mem", "quiet"}}},
      {"load",
       {{"port", "ops", "clients", "mix", "seed", "chunk", "window"}, {}}},
  };
  return specs;
}

void usage(std::ostream& os) {
  os <<
      "usage: lcdc <command> [options]\n\n"
      "commands:\n"
      "  run       simulate + verify\n"
      "            --procs N --dirs D --blocks B --ops K --seed S\n"
      "            --workload uniform|hot|prodcons|migratory|falseshare|\n"
      "                       readmostly|leasechurn\n"
      "            --protocol dir|bus|tardis ('directory' is a deprecated\n"
      "                                       alias for dir)\n"
      "            --lease L (tardis lease length, logical ticks)\n"
      "            --capacity C  --no-putshared\n"
      "            --mutant NAME  --store-pct P --evict-pct P --prefetch PCT\n"
      "            --store-buffer DEPTH (TSO mode)  --model sc|tso\n"
      "            --min-latency T --max-latency T --trace FILE --quiet\n"
      "            --trace-format text|binary (binary: varint codec, ~5x\n"
      "                                        smaller; loadFile autodetects)\n"
      "            --streaming (verify online) --no-trace (O(1) memory)\n"
      "            --perf (events/s, network-queue counters, peak RSS;\n"
      "                    wall-clock)\n"
      "  verify    re-check a dumped trace\n"
      "            --trace FILE --procs N --model sc|tso [--partial]\n"
      "  mc        exhaustive model checking (small configs!)\n"
      "            --procs N --blocks B --max-states M --max-depth D\n"
      "            --protocol dir|tardis (tardis: bounded-exhaustive,\n"
      "                                   shift-rebased timestamps; --lease L)\n"
      "            --jobs J (parallel wave BFS; results independent of J)\n"
      "            --symmetry (processor-id canonicalization; dir only)\n"
      "            --por (ample-set partial-order reduction; dir only)\n"
      "            --model-data (track word values; value-coherence check;\n"
      "                          dir only)\n"
      "            --replay (re-execute counterexample in the simulator\n"
      "                      through the streaming Lamport checkers)\n"
      "            --mem-limit-mb M (stop gracefully at a wave boundary\n"
      "                              once tracked memory exceeds M MiB;\n"
      "                              resumable when checkpointing)\n"
      "            --visited exact|compact|bitstate (lossy modes trade a\n"
      "                      reported P(omission) bound for ~12 B/state or\n"
      "                      O(1) bits/state; --bitstate-mb M sizes the\n"
      "                      Bloom array)\n"
      "            --spill DIR (spill frontier waves to segment files;\n"
      "                         exact counts identical to in-RAM engine)\n"
      "            --checkpoint DIR (checkpoint visited + pending wave at\n"
      "                              wave boundaries; implies spilling\n"
      "                              there) --checkpoint-every N\n"
      "            --resume DIR (continue a checkpointed run)\n"
      "            --perf (encode/insert counters, probe histogram,\n"
      "                    bytes/state, spill/checkpoint traffic, peak RSS;\n"
      "                    timings are wall-clock)\n"
      "            --no-evictions --mutant NAME\n"
      "  campaign  parallel seeded campaign over the checker suite (every\n"
      "            case on the PCT network schedule)\n"
      "            --seeds N --jobs J --master-seed S\n"
      "            --protocol dir|bus|tardis (tardis: per-case lease\n"
      "                                       lengths, lease-churn mix)\n"
      "            --workload mixed|uniform|hot|prodcons|migratory|falseshare|\n"
      "                       readmostly|leasechurn\n"
      "            --mutant NAME --until-coverage --minimize\n"
      "            --max-minimized K --minimize-attempts A\n"
      "            --out DIR (archive failing + minimized traces)\n"
      "            --max-events E --quiet --no-streaming (batch-check A/B)\n"
      "            --mc-stage (exhaustively model-check a small config of\n"
      "                        the same variant first)\n"
      "            --mc-procs N --mc-blocks B --mc-max-states M\n"
      "            --mc-visited exact|compact|bitstate --mc-mem-limit-mb M\n"
      "            --mc-spill DIR --mc-checkpoint DIR --mc-resume DIR\n"
      "  serve     host a message-passing DSM with live online verification\n"
      "            --nodes N --port P (certifier on P, node i on P+1+i)\n"
      "            --once (exit after the first completed load session)\n"
      "            --blocks B --words W --seed S --store-buffer DEPTH\n"
      "            --mutant NAME (serve a buggy protocol; caught live)\n"
      "            --heartbeat-pumps H --idle-timeout-ms T\n"
      "            --drain-timeout-ms T (SIGINT graceful-drain budget)\n"
      "            --mem (deterministic single-thread loopback, embedded\n"
      "                   load: --ops K --mix NAME --load-seed S\n"
      "                   --chunk STEPS --window W)\n"
      "  load      drive a running serve and measure throughput/latency\n"
      "            --port P --ops M (total, split across nodes)\n"
      "            --clients C --mix uniform|hot|prodcons|migratory|...\n"
      "            --seed S --chunk STEPS --window W\n\n"
      "global: --version prints the tool and wire-format versions\n\n"
      "exit codes: 0 ok, 1 verification violations, 2 usage error,\n"
      "            3 campaign failures, 4 simulation failed, 5 I/O error,\n"
      "            6 mc stopped at --mem-limit-mb (resumable when\n"
      "              --checkpoint was given)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage(std::cout);
    return kExitOk;
  }
  if (cmd == "version" || cmd == "--version") {
    std::cout << "lcdc " << kVersion << " (wire format v"
              << static_cast<unsigned>(dsm::kWireVersion) << ")\n";
    return kExitOk;
  }
  const auto& specs = optionSpecs();
  const auto spec = specs.find(cmd);
  if (spec == specs.end()) {
    std::cerr << "error: unknown command '" << cmd << "'\n\n";
    usage(std::cerr);
    return kExitUsage;
  }
  try {
    const Args args = parse(argc, argv, 2, cmd, spec->second);
    if (cmd == "run") return cmdRun(args);
    if (cmd == "verify") return cmdVerify(args);
    if (cmd == "mc") return cmdMc(args);
    if (cmd == "serve") return cmdServe(args);
    if (cmd == "load") return cmdLoad(args);
    return cmdCampaign(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n(see 'lcdc help')\n";
    return kExitUsage;
  } catch (const ProtocolError& e) {
    std::cerr << "protocol invariant violated: " << e.what() << '\n';
    return kExitSimFailed;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitIo;
  }
}
