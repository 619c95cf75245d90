// mc-3x2-d11 and mc-4x1-sym: mc::explore on 4 workers.  Exploration is
// exhaustive, so --seed does not apply and the counts are pinned for every
// seed.
//
//   mc-3x2-d11  3 procs x 2 blocks, evictions, exact visited set, no
//               reductions, depth 11: frontier-heavy (world save/load).
//   mc-4x1-sym  4 procs x 1 block, symmetry + POR + model data, depth 17:
//               canonical encoding (min over 24 permutations) dominates.
#include <string>

#include "mc/model_checker.hpp"
#include "suite.hpp"

namespace lcdc::bench_suite {

namespace {

constexpr int kSetupsPerRep = 3;
constexpr unsigned kJobs = 4;
/// Depth of the short exploration each set-up sample runs.
constexpr std::uint64_t kSetupDepth = 6;

struct Counts {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t frontierPeak = 0;
};

struct McWorkload {
  mc::McConfig cfg;
  std::uint64_t smokeDepth = 0;
  Counts full;   ///< pinned counts at cfg.maxDepth
  Counts smoke;  ///< pinned counts at smokeDepth
};

void gateRep(Result& res, const mc::McResult& r, const Counts& expected) {
  res.attempted += 1;
  bool ok = res.gate(r.ok(), "mc.verdict",
                     r.violations.empty() ? "deadlock" : r.violations.front());
  ok = res.gate(!r.hitStateLimit && !r.memLimitHit, "mc.complete",
                "stopped at a state or memory limit") &&
       ok;
  ok = res.gate(r.statesExplored == expected.states &&
                    r.transitions == expected.transitions &&
                    r.frontierPeak == expected.frontierPeak,
                "mc.counts",
                "states " + std::to_string(r.statesExplored) +
                    " transitions " + std::to_string(r.transitions) +
                    " frontier " + std::to_string(r.frontierPeak) +
                    ", expected " + std::to_string(expected.states) + " / " +
                    std::to_string(expected.transitions) + " / " +
                    std::to_string(expected.frontierPeak)) &&
       ok;
  if (!ok) res.failed += 1;
}

Result runMc(const Options& opt, Tracer* tracer, McWorkload w) {
  Result res;
  res.unit = "states";
  mc::McConfig cfg = w.cfg;
  if (opt.smoke) cfg.maxDepth = w.smokeDepth;
  const Counts& expected = opt.smoke ? w.smoke : w.full;

  // Set-up samples: a shallow exploration pays pool start-up, codec
  // tables and the first visited-set and arena allocations.  They run
  // before every rep rather than all up front, so their median spans the
  // same stretch of host time as the reps' (host speed shifts within
  // seconds).
  mc::McConfig setupCfg = cfg;
  setupCfg.maxDepth = kSetupDepth;
  repeatFor(opt.phaseSeconds(), 3, [&] {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const Clock::time_point t0 = Clock::now();
      const mc::McResult warm = mc::explore(setupCfg);
      res.setupS.push_back(secondsSince(t0));
      res.gate(warm.ok(), "mc.setup_verdict", "set-up exploration failed");
    }
    mc::McResult r;
    res.reps.push_back(timedRep([&] {
      r = mc::explore(cfg);
      return static_cast<double>(r.statesExplored);
    }));
    gateRep(res, r, expected);
  });
  if (tracer == nullptr) return res;

  // Traced phase: the explorer's own nanosecond timers (McConfig::perf).
  cfg.perf = true;
  const std::uint64_t root = tracer->begin("workload", 0);
  mc::McPerfCounters perf;
  mc::McResult last;
  std::uint64_t states = 0;
  std::uint64_t wallNs = 0;
  repeatFor(opt.phaseSeconds(), 1, [&] {
    const std::uint64_t t0 = nowNs();
    res.tracedReps.push_back(timedRep([&] {
      last = mc::explore(cfg);
      return static_cast<double>(last.statesExplored);
    }));
    const std::uint64_t t1 = nowNs();
    tracer->span("exploration", root, t0, t1);
    gateRep(res, last, expected);
    perf.merge(last.perf);
    states += last.statesExplored;
    wallNs += t1 - t0;
  });
  tracer->end(root);

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double expand = d(perf.expandNanos);
  const double parts = d(perf.encodeNanos + perf.insertNanos +
                         perf.worldSaveNanos + perf.worldLoadNanos);
  const double lastStates = d(last.statesExplored);
  const double lastStored = d(last.perf.storedStates);
  res.layers["mc.encode_ns_per_call"] =
      ratio(d(perf.encodeNanos), d(perf.encodeCalls));
  res.layers["mc.insert_ns_per_call"] =
      ratio(d(perf.insertNanos), d(perf.insertCalls));
  res.layers["mc.world_save_ns_per_state"] =
      ratio(d(perf.worldSaveNanos), d(perf.storedStates));
  res.layers["mc.world_load_ns_per_state"] =
      ratio(d(perf.worldLoadNanos), d(states));
  res.layers["mc.probe_nonzero_frac"] =
      1.0 - ratio(d(perf.probeHist[0]), d(perf.insertCalls));
  res.layers["mc.successor_frac"] = ratio(expand - parts, expand);
  res.layers["mc.worker_busy_frac"] = ratio(expand, d(wallNs) * kJobs);
  res.layers["mc.transitions_per_state"] =
      ratio(d(last.transitions), lastStates);
  res.layers["mc.ample_frac"] = ratio(d(last.ampleStates), lastStates);
  res.layers["mc.enc_bytes_per_state"] =
      ratio(d(last.perf.storedEncodingBytes), lastStored);
  res.layers["mc.visited_bytes_per_state"] =
      ratio(d(last.visitedBytes), lastStored);
  res.layers["mc.frontier_bytes_per_record"] =
      ratio(d(last.frontierBytesPeak), d(last.frontierPeak));
  res.layers["mc.tracked_bytes_per_state"] =
      ratio(d(last.trackedBytesPeak), lastStates);
  return res;
}

}  // namespace

Result runMc3x2(const Options& opt, Tracer* tracer) {
  McWorkload w;
  w.cfg.numProcessors = 3;
  w.cfg.numBlocks = 2;
  w.cfg.jobs = kJobs;
  w.cfg.maxDepth = 11;
  w.smokeDepth = 8;
  w.full = {321'173, 2'662'122, 174'360};
  w.smoke = {27'137, 232'230, 16'404};
  return runMc(opt, tracer, w);
}

Result runMc4x1Sym(const Options& opt, Tracer* tracer) {
  McWorkload w;
  w.cfg.numProcessors = 4;
  w.cfg.numBlocks = 1;
  w.cfg.jobs = kJobs;
  w.cfg.symmetry = true;
  w.cfg.por = true;
  w.cfg.modelData = true;
  w.cfg.maxDepth = 17;
  w.smokeDepth = 12;
  w.full = {70'359, 385'712, 26'294};
  w.smoke = {5'117, 28'711, 2'421};
  return runMc(opt, tracer, w);
}

}  // namespace lcdc::bench_suite
