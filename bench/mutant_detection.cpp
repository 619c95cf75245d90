// Experiment S3: does the verification technique actually catch bugs?
//
// Each row injects one realistic coherence bug (Mutant) into the protocol
// and hunts for it with the Lamport-clock checkers over randomized
// contended runs.  Reported: which detector fires first, after how many
// seeds, and how many bound operations the failing run had — i.e. the
// technique's bug-finding latency.  The directory rows run sim::System;
// the Tardis rows (its lease bug and its three ownership races, DESIGN.md
// §12) run the same hunt on the Tardis backend.
#include <iostream>
#include <string>

#include "backend/backend.hpp"
#include "bench_util.hpp"
#include "common/expect.hpp"
#include "trace/trace.hpp"
#include "verify/checkers.hpp"
#include "workload/generators.hpp"

using namespace lcdc;

namespace {

struct Hunt {
  bool caught = false;
  std::string how = "-";
  std::string lamportView = "-";  ///< what the checkers say about the
                                  ///  failing run's (possibly partial) trace
  std::uint64_t seedsTried = 0;
  std::uint64_t opsInFailingRun = 0;
  double seconds = 0;
};

Hunt hunt(ProtocolKind protocol, Mutant mutant) {
  Hunt h;
  bench::Stopwatch timer;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    h.seedsTried = seed;
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.numProcessors = 6;
    cfg.numDirectories = 2;
    cfg.numBlocks = 6;
    cfg.cacheCapacity = 2;
    cfg.seed = seed;
    cfg.proto.mutant = mutant;

    workload::WorkloadConfig w;
    w.numProcessors = cfg.numProcessors;
    w.numBlocks = cfg.numBlocks;
    w.wordsPerBlock = cfg.proto.wordsPerBlock;
    w.opsPerProcessor = 800;
    w.storePercent = 50;
    w.evictPercent = 12;
    w.seed = seed * 31 + 7;
    const auto programs = workload::hotBlock(w, 85, 3);

    trace::Trace trace;
    const auto system = proto::backendFor(protocol).makeSystem(cfg, trace);
    for (NodeId p = 0; p < cfg.numProcessors; ++p) {
      system->setProgram(p, programs[p]);
    }
    const verify::VerifyConfig full = proto::verifyConfigFor(cfg);
    const auto lamportOnPartial = [&] {
      verify::VerifyConfig vc = full;
      vc.expectComplete = false;  // the run was cut short
      const auto partial = verify::checkAll(trace, vc);
      return partial.ok() ? std::string("clean so far")
                          : "flags " + partial.violations.front().check;
    };
    try {
      const RunResult result = system->run(20'000'000);
      h.opsInFailingRun = result.opsBound;
      if (result.outcome == RunResult::Outcome::Deadlock ||
          result.outcome == RunResult::Outcome::Livelock) {
        h.caught = true;
        h.how = std::string("watchdog: ") + toString(result.outcome);
        h.lamportView = lamportOnPartial();
        break;
      }
      const auto report = verify::checkAll(trace, full);
      if (!report.ok()) {
        h.caught = true;
        h.how = "checker: " + report.violations.front().check;
        h.lamportView = "flags " + report.violations.front().check;
        break;
      }
    } catch (const ProtocolError&) {
      h.caught = true;
      h.how = "Appendix-B invariant";
      h.lamportView = lamportOnPartial();
      break;
    }
  }
  h.seconds = timer.seconds();
  return h;
}

}  // namespace

int main() {
  bench::banner("S3 — fault injection: Lamport-clock checkers vs protocol bugs");

  // `mustCatch` is false only for the two Tardis races this one fixed
  // random-latency shape misses in 50 seeds; the campaign's PCT schedule
  // finds them (S16).
  struct Row {
    ProtocolKind protocol;
    Mutant mutant;
    bool mustCatch;
  };
  const Row rows[] = {
      {ProtocolKind::Directory, Mutant::None, false},
      {ProtocolKind::Directory, Mutant::SkipInvAckWait, true},
      {ProtocolKind::Directory, Mutant::StaleDataFromHome, true},
      {ProtocolKind::Directory, Mutant::IgnoreInvalidation, true},
      {ProtocolKind::Directory, Mutant::ForwardStaleValue, true},
      {ProtocolKind::Directory, Mutant::NoBusyNack, true},
      {ProtocolKind::Directory, Mutant::NoDeadlockDetection, true},
      {ProtocolKind::Directory, Mutant::SkipWbClockAbsorb, true},
      {ProtocolKind::Directory, Mutant::StaleWbForward, true},
      {ProtocolKind::Tardis, Mutant::None, false},
      {ProtocolKind::Tardis, Mutant::DropLeaseBump, true},
      {ProtocolKind::Tardis, Mutant::FlushStaleEpoch, false},
      {ProtocolKind::Tardis, Mutant::CompleteStaleEpoch, true},
      {ProtocolKind::Tardis, Mutant::DisplaceParkedFlush, false},
  };

  bench::Table t({"backend", "injected bug", "caught", "first detector",
                  "Lamport checkers on failing trace", "seeds tried",
                  "time (s)"});
  bool allGood = true;
  for (const auto& [protocol, m, mustCatch] : rows) {
    const Hunt h = hunt(protocol, m);
    if (m == Mutant::None ? h.caught : mustCatch && !h.caught) {
      allGood = false;
    }
    t.row(toString(protocol), toString(m),
          h.caught ? "yes" : (m == Mutant::None ? "no (correct)" : "NO"),
          h.how, h.lamportView, h.seedsTried, h.seconds);
  }
  t.print();
  std::cout << "\nTwo detection layers work together: the always-on "
               "Appendix-B impossibility\nchecks trip the moment the "
               "protocol deviates structurally, and the\nLamport-clock "
               "checkers flag the trace (sequential consistency, epochs,\n"
               "claims) even when the run is cut short — while the faithful "
               "protocols are\nnever flagged (no false positives).  A "
               "mutant this fixed hot shape misses\nis S16's to find.\n";
  return allGood ? 0 : 1;
}
