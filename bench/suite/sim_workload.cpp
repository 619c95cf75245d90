// sim-hot: one System (8 procs x 4 dirs x 64 blocks, capacity 4, latency
// [1,40]) running the hot mix with the full checker suite attached and
// reused across reps through System::reset — the long steady-state event
// loop where the calendar queue, NACK/retry and all six checker cores are
// busiest.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "sim/perf.hpp"
#include "sim/system.hpp"
#include "suite.hpp"
#include "workload/generators.hpp"

namespace lcdc::bench_suite {

namespace {

constexpr int kSetups = 3;
constexpr std::uint64_t kOpsPerProc = 50'000;
/// Counts of every rep at --seed 1, full size.
constexpr std::uint64_t kPinnedEvents = 1'934'175;
constexpr std::uint64_t kPinnedOps = 375'832;

SystemConfig simConfig(std::uint64_t seed) {
  SystemConfig sys;
  sys.numProcessors = 8;
  sys.numDirectories = 4;
  sys.numBlocks = 64;
  sys.cacheCapacity = 4;
  sys.minLatency = 1;
  sys.maxLatency = 40;
  sys.seed = seed;
  return sys;
}

workload::WorkloadConfig simLoad(const Options& opt, const SystemConfig& sys) {
  workload::WorkloadConfig w;
  w.numProcessors = sys.numProcessors;
  w.numBlocks = sys.numBlocks;
  w.wordsPerBlock = sys.proto.wordsPerBlock;
  w.opsPerProcessor = opt.smoke ? kOpsPerProc / 50 : kOpsPerProc;
  w.storePercent = 35;
  w.evictPercent = 6;
  w.seed = workload::deriveSeed(opt.seed, 1);
  return w;
}

/// A System wired to its checkers through a TeeSink; address-stable, since
/// the System keeps a reference to the tee.
struct Rig {
  Rig(const SystemConfig& sys, proto::EventSink& checkers)
      : tee{&checkers}, system(sys, tee) {}
  proto::TeeSink tee;
  sim::System system;
};

struct RepRun {
  RunResult result;
  std::uint64_t runNs = 0;  ///< System::run alone
};

/// One rep: rewind (unless the rig is freshly built), load the programs,
/// run to quiescence, flush the checkers.
template <class Checkers>
RepRun runRep(Rig& rig, Checkers& checkers, const verify::VerifyConfig& vc,
              const std::vector<workload::Program>& progs, bool fresh) {
  if (!fresh) {
    rig.system.reset(rig.system.config().seed);
    checkers.reset(vc);
  }
  for (NodeId p = 0; p < rig.system.config().numProcessors; ++p) {
    rig.system.setProgram(p, progs[p]);
  }
  RepRun out;
  const std::uint64_t t0 = nowNs();
  out.result = rig.system.run();
  out.runNs = nowNs() - t0;
  checkers.finish();
  return out;
}

struct Counts {
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
};

/// Gate one rep: it quiesced, the verdict is clean, and its counts equal
/// the expected ones.  A rep failing any gate counts as failed.
void gateRep(Result& res, const RunResult& r, const verify::CheckReport& rep,
             const Counts& expected) {
  res.attempted += 1;
  bool ok = res.gate(r.ok(), "sim.quiesced", toString(r.outcome));
  ok = res.gate(rep.ok(), "sim.verdict", rep.summary()) && ok;
  ok = res.gate(r.eventsProcessed == expected.events &&
                    r.opsBound == expected.ops,
                "sim.counts",
                "events " + std::to_string(r.eventsProcessed) + " ops " +
                    std::to_string(r.opsBound) + ", expected " +
                    std::to_string(expected.events) + " / " +
                    std::to_string(expected.ops)) &&
       ok;
  if (!ok) res.failed += 1;
}

}  // namespace

Result runSimHot(const Options& opt, Tracer* tracer) {
  Result res;
  res.unit = "events";
  const SystemConfig sys = simConfig(workload::deriveSeed(opt.seed, 0));
  const verify::VerifyConfig vc = proto::verifyConfigFor(sys);
  const workload::WorkloadConfig load = simLoad(opt, sys);

  // Set-up, repeated: generate, construct, warm up (pools and slabs grow
  // to their high-water marks).  The last instance is measured.
  std::vector<workload::Program> progs;
  std::unique_ptr<verify::StreamCheckerSet> checkers;
  std::unique_ptr<Rig> rig;
  Counts expected;
  double genS = 0;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    progs = workload::make(workload::Kind::Hot, load);
    genS = secondsSince(t0);
    rig.reset();
    checkers = std::make_unique<verify::StreamCheckerSet>(vc);
    rig = std::make_unique<Rig>(sys, *checkers);
    const RepRun warm = runRep(*rig, *checkers, vc, progs, /*fresh=*/true);
    res.setupS.push_back(secondsSince(t0));
    if (i == 0) {
      expected = {warm.result.eventsProcessed, warm.result.opsBound};
      if (opt.seed == 1 && !opt.smoke) expected = {kPinnedEvents, kPinnedOps};
    }
    gateRep(res, warm.result, checkers->report(), expected);
  }

  std::size_t checkerBytes = 0;
  repeatFor(opt.phaseSeconds(), 3, [&] {
    RepRun run;
    res.reps.push_back(timedRep([&] {
      run = runRep(*rig, *checkers, vc, progs, /*fresh=*/false);
      return static_cast<double>(run.result.eventsProcessed);
    }));
    gateRep(res, run.result, checkers->report(), expected);
    checkerBytes = std::max(checkerBytes, checkers->memoryFootprint());
  });
  if (tracer == nullptr) return res;

  // Traced phase: the six cores attached individually behind timers, on
  // the same warm System.  One rep warms the cores' own pools first, with
  // a fresh StreamCheckerSet beside them: equal footprints and verdicts
  // show that TimedCheckers routes every callback as the set does.
  TimedCheckers timed(vc, *tracer);
  {
    verify::StreamCheckerSet reference(vc);
    rig->tee.clear();
    rig->tee.attach(timed);
    rig->tee.attach(reference);
    gateRep(res, runRep(*rig, timed, vc, progs, false).result,
            timed.report(), expected);
    reference.finish();
    const verify::CheckReport a = timed.report();
    const verify::CheckReport b = reference.report();
    const std::size_t setBytes =
        reference.memoryFootprint() - sizeof(verify::StreamCheckerSet);
    res.attempted += 1;  // the comparison is a unit of its own
    if (!res.gate(timed.memoryFootprint() == setBytes &&
                      a.violations.size() == b.violations.size() &&
                      a.epochsBuilt == b.epochsBuilt,
                  "sim.timed_routing",
                  "timed cores hold " +
                      std::to_string(timed.memoryFootprint()) + " B and " +
                      std::to_string(a.epochsBuilt) +
                      " epochs, the checker set " + std::to_string(setBytes) +
                      " B and " + std::to_string(b.epochsBuilt))) {
      res.failed += 1;
    }
    rig->tee.clear();
    rig->tee.attach(timed);
  }
  tracer->resetAggs();

  const std::uint64_t root = tracer->begin("workload", 0);
  std::uint64_t allocs = 0;
  sim::SimPerfCounters perf;
  std::uint64_t requests = 0;
  std::uint64_t nacks = 0;
  std::uint64_t retries = 0;
  repeatFor(opt.phaseSeconds(), 1, [&] {
    RepRun run;
    const std::uint64_t t0 = nowNs();
    res.tracedReps.push_back(timedRep([&] {
      startAllocCounting();
      run = runRep(*rig, timed, vc, progs, false);
      allocs += stopAllocCounting();
      return static_cast<double>(run.result.eventsProcessed);
    }));
    tracer->span("rep", root, t0, nowNs());
    gateRep(res, run.result, timed.report(), expected);
    perf.note(run.result.eventsProcessed, run.result.opsBound, run.runNs,
              rig->system.network().queueStats());
    const proto::CacheStats c = rig->system.aggregateCacheStats();
    requests += c.requestsIssued;
    nacks += c.nacksReceived;
    for (NodeId p = 0; p < sys.numProcessors; ++p) {
      retries += rig->system.processor(p).stats().retriesIssued;
    }
  });
  tracer->end(root);

  const auto events = static_cast<double>(perf.events);
  const auto runNs = static_cast<double>(perf.wallNanos);
  res.layers["sim.run_self_frac"] =
      ratio(runNs - static_cast<double>(timed.coreNs()), runNs);
  res.layers["sim.allocs_per_event"] =
      ratio(static_cast<double>(allocs), events);
  res.layers["net.queue_ops_per_event"] =
      ratio(static_cast<double>(perf.queue.pushes + perf.queue.pops), events);
  res.layers["net.overflow_push_frac"] = perf.overflowRate();
  res.layers["net.queue_max_depth"] = static_cast<double>(perf.queue.maxDepth);
  res.layers["proto.nack_frac"] =
      ratio(static_cast<double>(nacks), static_cast<double>(requests));
  res.layers["proto.retries_per_op"] =
      ratio(static_cast<double>(retries), static_cast<double>(perf.opsBound));
  res.layers["workload.gen_ns_per_op"] =
      genS * 1e9 / static_cast<double>(load.numProcessors *
                                       load.opsPerProcessor);
  res.layers["verify.checker_bytes"] = static_cast<double>(checkerBytes);
  verifyLayers(*tracer, perf.wallNanos, res);
  return res;
}

}  // namespace lcdc::bench_suite
