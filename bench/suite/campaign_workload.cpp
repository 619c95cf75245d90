// campaign-mixed: campaign::run over 1024 mixed-family seeds on 4 pool
// workers, minimization off, the same master seed every rep — many short,
// varied cases, so per-case derivation, System::reset and pool scheduling
// dominate.
#include <algorithm>
#include <string>

#include "campaign/campaign.hpp"
#include "suite.hpp"

namespace lcdc::bench_suite {

namespace {

constexpr unsigned kJobs = 4;
constexpr std::uint64_t kSeeds = 1024;
/// Cases the traced phase times one by one on the calling thread.
constexpr std::uint64_t kProbeCases = 256;

campaign::CampaignConfig campaignConfig(const Options& opt,
                                        std::uint64_t seeds) {
  campaign::CampaignConfig cfg;
  cfg.masterSeed = opt.seed;
  cfg.seeds = seeds;
  cfg.jobs = kJobs;
  cfg.minimize = false;
  return cfg;
}

/// Gate one campaign rep: every seed ran clean and the deterministic
/// report is byte-identical to the first rep's.  Units are cases.
void gateRep(Result& res, const campaign::CampaignResult& r,
             std::uint64_t seeds, std::string& firstReport) {
  const std::string report = r.report();
  if (firstReport.empty()) firstReport = report;
  res.attempted += seeds;
  const bool sameReport = res.gate(report == firstReport,
                                   "campaign.report_identical",
                                   "report() differs from the first rep");
  const bool allRan =
      res.gate(r.seedsRun == seeds, "campaign.seeds_run",
               std::to_string(r.seedsRun) + " of " + std::to_string(seeds));
  res.gate(r.failures.empty(), "campaign.failures",
           std::to_string(r.failures.size()) + " failing seeds");
  res.failed += (sameReport && allRan) ? r.failures.size() : seeds;
}

}  // namespace

Result runCampaignMixed(const Options& opt, Tracer* tracer) {
  Result res;
  res.unit = "cases";
  const std::uint64_t seeds = opt.smoke ? kSeeds / 32 : kSeeds;
  const campaign::CampaignConfig cfg = campaignConfig(opt, seeds);

  // Set-up sample, before every rep: a short campaign pays pool start-up,
  // per-worker engine construction and the first cases' buffer growth.
  // Taken between the reps rather than all up front, so their median spans
  // the same stretch of host time as the reps' (host speed shifts within
  // seconds).
  const campaign::CampaignConfig warmCfg = campaignConfig(opt, seeds / 16);
  std::string firstReport;
  repeatFor(opt.phaseSeconds(), 3, [&] {
    const Clock::time_point t0 = Clock::now();
    const campaign::CampaignResult warm = campaign::run(warmCfg);
    res.setupS.push_back(secondsSince(t0));
    res.gate(warm.ok(), "campaign.warmup", "warm-up campaign failed");
    campaign::CampaignResult r;
    res.reps.push_back(timedRep([&] {
      r = campaign::run(cfg);
      return static_cast<double>(r.seedsRun);
    }));
    gateRep(res, r, seeds, firstReport);
  });
  if (tracer == nullptr) return res;

  // Traced phase: whole campaigns with allocation counting, then the first
  // kProbeCases cases derived and run one by one on this thread.
  const std::uint64_t root = tracer->begin("workload", 0);
  std::uint64_t allocs = 0;
  double seconds = 0;
  sim::SimPerfCounters perf;
  PoolStats pool;
  repeatFor(opt.phaseSeconds(), 1, [&] {
    campaign::CampaignResult r;
    const std::uint64_t t0 = nowNs();
    res.tracedReps.push_back(timedRep([&] {
      startAllocCounting();
      r = campaign::run(cfg);
      allocs += stopAllocCounting();
      return static_cast<double>(r.seedsRun);
    }));
    tracer->span("rep", root, t0, nowNs());
    gateRep(res, r, seeds, firstReport);
    seconds += r.seconds;
    perf.merge(r.perf);
    pool.tasksExecuted += r.pool.tasksExecuted;
    pool.tasksStolen += r.pool.tasksStolen;
  });

  const std::uint64_t probe = tracer->begin("probe", root);
  campaign::CaseSpec spec;
  std::uint64_t deriveNs = 0;
  std::uint64_t runCaseNs = 0;
  std::uint64_t simNs = 0;
  std::uint64_t steps = 0;
  const std::uint64_t probeCases = std::min(kProbeCases, seeds);
  for (std::uint64_t i = 0; i < probeCases; ++i) {
    const std::uint64_t t0 = nowNs();
    campaign::deriveCaseInto(cfg, i, spec);
    const std::uint64_t t1 = nowNs();
    const campaign::CaseOutcome out = campaign::runCase(spec, cfg.maxEventsPerRun);
    const std::uint64_t t2 = nowNs();
    const std::uint64_t id = tracer->span("case", probe, t0, t2);
    tracer->span("derive", id, t0, t1);
    tracer->span("run_case", id, t1, t2);
    deriveNs += t1 - t0;
    runCaseNs += t2 - t1;
    simNs += out.perf.wallNanos;
    for (const workload::Program& p : spec.programs) steps += p.steps.size();
    res.attempted += 1;
    if (!res.gate(out.clean(), "campaign.probe_case", out.signature)) {
      res.failed += 1;
    }
  }
  tracer->end(probe);
  tracer->end(root);

  const auto n = static_cast<double>(probeCases);
  const auto events = static_cast<double>(perf.events);
  res.layers["campaign.derive_us_per_case"] =
      static_cast<double>(deriveNs) / 1e3 / n;
  res.layers["campaign.run_case_us_per_case"] =
      static_cast<double>(runCaseNs) / 1e3 / n;
  res.layers["campaign.sim_frac"] = ratio(static_cast<double>(simNs),
                                          static_cast<double>(runCaseNs));
  res.layers["campaign.worker_busy_frac"] =
      ratio(static_cast<double>(perf.wallNanos), seconds * 1e9 * kJobs);
  res.layers["campaign.steal_frac"] =
      ratio(static_cast<double>(pool.tasksStolen),
            static_cast<double>(pool.tasksExecuted));
  res.layers["sim.allocs_per_event"] =
      ratio(static_cast<double>(allocs), events);
  res.layers["net.queue_ops_per_event"] =
      ratio(static_cast<double>(perf.queue.pushes + perf.queue.pops), events);
  res.layers["net.overflow_push_frac"] = perf.overflowRate();
  res.layers["net.queue_max_depth"] = static_cast<double>(perf.queue.maxDepth);
  res.layers["workload.gen_ns_per_op"] =
      ratio(static_cast<double>(deriveNs), static_cast<double>(steps));
  return res;
}

}  // namespace lcdc::bench_suite
