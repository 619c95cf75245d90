// Experiment S16: executions to first detection on the campaign's PCT
// schedule, against the same derived cases under random latency, with the
// model checker's verdict at 2x1 alongside.
//
// For each seeded mutant (13 rows over the three backends) and master seeds
// 1..5, cases are derived in index order (campaign::deriveCaseInto) and the
// harness reports index + 1 of the first failing case, twice:
//
//   * campaign       — campaign::runCase: the PCT schedule every campaign
//                      case runs on;
//   * random latency — the same case on a system this harness builds with
//                      net::Network::Mode::RandomLatency, the schedule the
//                      campaign ran before PCT.  The bus has no network, so
//                      its two columns agree by construction.
//
// Cases run in waves of 64 on a thread pool; the first failing index is a
// pure function of (row, master seed), however many workers run them.  A miss counts
// as the budget.  The model-checker column is `mc::explore` at 2 procs x
// 1 block (data modelled on the directory, Tardis capped at 150,000
// states): its first finding, waves and states, or "not refuted".
//
// Exit 0 iff the campaign detects every row in every trial and random
// latency never beats the campaign's median by 10x or more.  --quick (the
// Release-only ctest contract) runs 3 master seeds with a 2,000-case budget
// and skips the model checker.  Cases run on 4 pool workers.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "campaign/campaign.hpp"
#include "common/expect.hpp"
#include "common/thread_pool.hpp"
#include "mc/model_checker.hpp"
#include "verify/stream.hpp"

using namespace lcdc;

namespace {

struct Row {
  ProtocolKind protocol;
  Mutant mutant;
};

const Row kRows[] = {
    {ProtocolKind::Directory, Mutant::SkipInvAckWait},
    {ProtocolKind::Directory, Mutant::StaleDataFromHome},
    {ProtocolKind::Directory, Mutant::IgnoreInvalidation},
    {ProtocolKind::Directory, Mutant::ForwardStaleValue},
    {ProtocolKind::Directory, Mutant::NoBusyNack},
    {ProtocolKind::Directory, Mutant::NoDeadlockDetection},
    {ProtocolKind::Directory, Mutant::SkipWbClockAbsorb},
    {ProtocolKind::Directory, Mutant::StaleWbForward},
    {ProtocolKind::Bus, Mutant::IgnoreInvalidation},
    {ProtocolKind::Tardis, Mutant::DropLeaseBump},
    {ProtocolKind::Tardis, Mutant::FlushStaleEpoch},
    {ProtocolKind::Tardis, Mutant::CompleteStaleEpoch},
    {ProtocolKind::Tardis, Mutant::DisplaceParkedFlush},
};

constexpr std::uint64_t kWave = 64;

/// Run `spec` on a freshly built random-latency system under the streaming
/// checkers; true when the run fails the way runCase would flag it.
bool failsUnderRandomLatency(const campaign::CaseSpec& spec,
                             std::uint64_t maxEvents) {
  verify::StreamCheckerSet checkers(proto::verifyConfigFor(spec.sys));
  const auto system = proto::backendFor(spec.sys.protocol)
                          .makeSystem(spec.sys, checkers,
                                      net::Network::Mode::RandomLatency);
  for (NodeId p = 0; p < spec.sys.numProcessors; ++p) {
    system->setProgram(p, spec.programs[p]);
  }
  try {
    if (!system->run(maxEvents).ok()) return true;
  } catch (const ProtocolError&) {
    return true;
  }
  checkers.finish();
  return !checkers.report().ok();
}

/// Index + 1 of the first failing case of (row, masterSeed) within
/// `budget`, 0 on a miss.
std::uint64_t firstDetection(const Row& row, std::uint64_t masterSeed,
                             std::uint64_t budget, bool randomLatency,
                             ThreadPool& pool) {
  campaign::CampaignConfig cfg;
  cfg.protocol = row.protocol;
  cfg.mutant = row.mutant;
  cfg.masterSeed = masterSeed;
  std::vector<char> failed(kWave);
  for (std::uint64_t base = 0; base < budget; base += kWave) {
    const std::uint64_t end = std::min(budget, base + kWave);
    for (std::uint64_t i = base; i < end; ++i) {
      pool.submit([&, i] {
        thread_local campaign::CaseSpec spec;
        campaign::deriveCaseInto(cfg, i, spec);
        failed[i - base] =
            randomLatency
                ? failsUnderRandomLatency(spec, cfg.maxEventsPerRun)
                : !campaign::runCase(spec, cfg.maxEventsPerRun).clean();
      });
    }
    pool.wait();
    for (std::uint64_t i = base; i < end; ++i) {
      if (failed[i - base]) return i + 1;
    }
  }
  return 0;
}

/// "median (min-max)" of per-trial detections; a miss prints as ">budget".
struct Column {
  std::vector<std::uint64_t> hits;  ///< budget + 1 stands for a miss
  std::uint64_t budget = 0;

  void add(std::uint64_t h) { hits.push_back(h == 0 ? budget + 1 : h); }
  [[nodiscard]] std::uint64_t median() const {
    std::vector<std::uint64_t> v = hits;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }
  [[nodiscard]] bool allDetected() const {
    return std::all_of(hits.begin(), hits.end(),
                       [&](std::uint64_t h) { return h <= budget; });
  }
  [[nodiscard]] std::string text() const {
    const auto show = [&](std::uint64_t h) {
      return h > budget ? ">" + std::to_string(budget) : std::to_string(h);
    };
    const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
    if (*lo > budget) return "missed in all " + std::to_string(hits.size());
    std::ostringstream os;
    os << show(median()) << " (" << show(*lo) << "-" << show(*hi) << ")";
    return os.str();
  }
};

std::string modelCheck(const Row& row) {
  if (!proto::backendFor(row.protocol).supportsModelChecking()) return "n/a";
  mc::McConfig cfg;
  cfg.protocol = row.protocol;
  cfg.numProcessors = 2;
  cfg.numBlocks = 1;
  cfg.proto.mutant = row.mutant;
  if (row.protocol == ProtocolKind::Tardis) {
    cfg.maxStates = 150'000;
  } else {
    cfg.modelData = true;
  }
  const mc::McResult r = mc::explore(cfg);
  if (r.ok()) return "not refuted";
  // The finding's name: an invariant's message (its text after the source
  // location), else a violation's text up to its details.
  std::string finding = r.violations.empty() ? "deadlock"
                                             : r.violations.front();
  const std::string dash = " — ";  // failExpect's separator
  if (const auto at = finding.find(dash); at != std::string::npos) {
    finding = "invariant: " + finding.substr(at + dash.size());
  } else if (const auto colon = finding.find(": ");
             colon != std::string::npos) {
    finding.resize(colon);
  }
  std::ostringstream os;
  os << finding << ", " << r.wavesCompleted << " waves, "
     << r.statesExplored << " states";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc == 2 && std::string(argv[1]) == "--quick";
  if (argc > 1 && !quick) {
    std::cerr << "usage: detection [--quick]\n";
    return 2;
  }
  const std::uint64_t trials = quick ? 3 : 5;
  const std::uint64_t budget = quick ? 2'000 : 10'000;
  ThreadPool pool(4);

  std::cout << "S16: executions to first detection, median (range) over "
               "master seeds 1-"
            << trials << ", budget " << budget << "\n\n"
            << std::left << std::setw(30) << "row" << std::setw(22)
            << "campaign (PCT)" << std::setw(22) << "random latency"
            << (quick ? "" : "mc 2x1") << '\n';

  bool ok = true;
  for (const Row& row : kRows) {
    Column pct{{}, budget};
    Column random{{}, budget};
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      pct.add(firstDetection(row, seed, budget, false, pool));
      random.add(firstDetection(row, seed, budget, true, pool));
    }
    const bool detected = pct.allDetected();
    const bool notBeaten = random.median() * 10 > pct.median();
    ok = ok && detected && notBeaten;
    std::cout << std::setw(30)
              << std::string(toString(row.protocol)) + " " +
                     toString(row.mutant)
              << std::setw(22) << pct.text() << std::setw(22) << random.text()
              << (quick ? "" : modelCheck(row))
              << (detected ? "" : "  CAMPAIGN MISSED")
              << (notBeaten ? "" : "  RANDOM LATENCY 10x FASTER") << std::endl;
  }
  std::cout << '\n'
            << (ok ? "campaign detects every row in every trial; random "
                     "latency never beats it by 10x"
                   : "FAILED: see the flagged rows")
            << '\n';
  return ok ? 0 : 1;
}
