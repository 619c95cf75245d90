// Experiment S17: out-of-core model checking (DESIGN.md §14).
//
// Three questions, each answered on the full 3-proc x 1-block space with
// evictions (the largest space this suite explores to exhaustion):
//
//   S17a  what does spilling the frontier to disk cost?  Segments in the
//         in-RAM arenas vs in files, at --jobs 1 and 4: same counts
//         (pinned), throughput, tracked-bytes peak, and the spill traffic
//         itself.
//   S17b  what do the lossy visited modes buy?  exact vs hash-compaction
//         vs bitstate: bytes/state retained and the measured omission
//         bound each mode reports.
//   S17c  what does checkpoint/resume cost, and does a resumed run land
//         on the uninterrupted counts?  A mem-limited run that stops
//         resumably, then its resume to exhaustion.
//
// The headline disk-scale run (>= 10^8 states under a fixed
// --mem-limit-mb) is driven through the CLI — see EXPERIMENTS.md S17 for
// the command lines and recorded numbers; this binary keeps the
// repeatable, minutes-scale slice of the experiment.
#include <stdlib.h>  // mkdtemp (POSIX)

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "mc/model_checker.hpp"

using namespace lcdc;
namespace fs = std::filesystem;

namespace {

/// A scratch directory named by mkdtemp, so two runs on one host never
/// share (and delete) each other's spill files.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    std::string name =
        (fs::temp_directory_path() / ("lcdc_s17_" + tag + "_XXXXXX")).string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("cannot create scratch directory '" + name +
                               "': " + std::strerror(errno));
    }
    path = name;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

mc::McConfig baseConfig(bool quick) {
  mc::McConfig cfg;
  cfg.numProcessors = 3;
  cfg.numBlocks = 1;
  cfg.allowEvictions = true;
  cfg.maxStates = 2'000'000;
  // Quick mode bounds by depth, which keeps the full S17c mem-limit stop
  // mid-run.  (A state cap would pin the counts as well: a capped wave
  // picks its records by canonical fingerprint, so its totals are the
  // same for any --jobs, in RAM or spilled.)
  if (quick) cfg.maxDepth = 14;
  cfg.perf = true;
  return cfg;
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::uint64_t rate(std::uint64_t states, double secs) {
  return secs > 0
             ? static_cast<std::uint64_t>(static_cast<double>(states) / secs)
             : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  // ---- S17a: frontier segments in RAM vs on disk ------------------------
  bench::banner("S17a — frontier residence: in-RAM arenas vs disk segments");
  std::uint64_t ramStates = 0;
  std::uint64_t ramTransitions = 0;
  {
    bench::Table t({"frontier", "jobs", "states", "waves", "time (s)",
                    "states/sec", "tracked peak MiB", "spill MiB",
                    "segments"});
    for (const unsigned jobs : {1u, 4u}) {
      for (const bool spill : {false, true}) {
        TempDir dir("spill");
        mc::McConfig cfg = baseConfig(quick);
        cfg.jobs = jobs;
        if (spill) cfg.spillDir = dir.path.string();
        bench::Stopwatch timer;
        const mc::McResult r = mc::explore(cfg);
        const double secs = timer.seconds();
        if (jobs == 1 && !spill) {
          ramStates = r.statesExplored;
          ramTransitions = r.transitions;
        } else if (r.statesExplored != ramStates ||
                   r.transitions != ramTransitions) {
          std::cerr << "FAIL: counts diverge from the in-RAM --jobs 1 run\n";
          return 1;
        }
        t.row(spill ? "spill" : "ram", jobs, r.statesExplored,
              r.wavesCompleted, secs, rate(r.statesExplored, secs),
              mib(r.trackedBytesPeak), mib(r.perf.spillBytesWritten),
              r.perf.spillSegments);
      }
    }
    t.print();
    std::cout << "\nSame counts by construction: a wave is cut into record "
                 "ranges and expanded\nby the same code whether its "
                 "segments sit in the arenas or in files\n"
                 "(tests/mc_outofcore_test pins it across --jobs).  The "
                 "tracked peak drops\nbecause the frontier leaves the "
                 "arenas; what remains is the visited set —\nthe part the "
                 "lossy modes below shrink.\n";
  }

  // ---- S17b: visited-set representations --------------------------------
  bench::banner("S17b — visited modes: exact vs compact vs bitstate");
  {
    struct Mode {
      const char* name;
      mc::VisitedMode mode;
      std::uint64_t bitstateMb;
    };
    const Mode modes[] = {
        {"exact", mc::VisitedMode::Exact, 0},
        {"compact", mc::VisitedMode::Compact, 0},
        {"bitstate 8 MiB", mc::VisitedMode::Bitstate, 8},
        {"bitstate 1 MiB", mc::VisitedMode::Bitstate, 1},
    };
    bench::Table t({"visited", "states", "visited B/state", "P(omission) <=",
                    "time (s)"});
    for (const Mode& m : modes) {
      mc::McConfig cfg = baseConfig(quick);
      cfg.visited = m.mode;
      if (m.bitstateMb != 0) cfg.bitstateMb = m.bitstateMb;
      if (m.mode == mc::VisitedMode::Bitstate) cfg.por = false;
      bench::Stopwatch timer;
      const mc::McResult r = mc::explore(cfg);
      const std::uint64_t states =
          std::max<std::uint64_t>(r.statesExplored, 1);
      t.row(m.name, r.statesExplored, r.visitedBytes / states,
            r.omissionBound, timer.seconds());
    }
    t.print();
    std::cout << "\nCompact keeps 64-bit fingerprints only (no canonical "
                 "encodings, no parent\nedges); bitstate keeps k bits per "
                 "state in a fixed array.  Both report the\nomission bound "
                 "they actually incurred — shrink the bitstate array and "
                 "the\nbound degrades in plain sight.\n";
  }

  // ---- S17c: checkpoint at the mem limit, then resume --------------------
  bench::banner("S17c — resumable stop: checkpoint at --mem-limit-mb, resume");
  {
    TempDir dir("ckpt");
    mc::McConfig stopCfg = baseConfig(quick);
    // Both budgets stop mid-run: the quick depth-14 run at wave 12, the
    // full run at wave 18 (the 2 MiB spill-writer allowance included).
    stopCfg.memLimitMb = quick ? 6 : 12;
    stopCfg.checkpointDir = dir.path.string();

    bench::Table t({"phase", "states", "waves", "time (s)",
                    "checkpoint MiB", "verdict"});
    bench::Stopwatch stopTimer;
    const mc::McResult stopped = mc::explore(stopCfg);
    const double stopSecs = stopTimer.seconds();
    t.row("mem-limited", stopped.statesExplored, stopped.wavesCompleted,
          stopSecs, mib(stopped.perf.checkpointBytes),
          stopped.memLimitHit ? "stopped, checkpointed" : "ran to the end");

    mc::McConfig resumeCfg = baseConfig(quick);
    resumeCfg.memLimitMb = 0;  // lift the cap; the digest ignores limits
    resumeCfg.resumeDir = dir.path.string();
    bench::Stopwatch resumeTimer;
    const mc::McResult resumed = mc::explore(resumeCfg);
    const double resumeSecs = resumeTimer.seconds();
    t.row("resumed", resumed.statesExplored, resumed.wavesCompleted,
          resumeSecs, mib(resumed.perf.checkpointBytes),
          resumed.ok() ? "clean" : "VIOLATION");
    t.print();

    if (stopped.memLimitHit &&
        (resumed.statesExplored != ramStates ||
         resumed.transitions != ramTransitions)) {
      std::cerr << "FAIL: resumed totals diverge from the uninterrupted "
                   "run\n";
      return 1;
    }
    std::cout << "\nThe resumed totals are cumulative and equal the "
                 "uninterrupted run's —\nexit code 6 now means 'out of "
                 "budget, state saved', not 'start over'.\n";
  }
  return 0;
}
