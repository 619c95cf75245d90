// Experiment S2: the state-space explosion of the baseline technique the
// paper argues against (Section 1: model checking "does not scale well to
// systems of a practical size"; Section 4 lists verifications limited to
// ~4 nodes and one cache block).
//
// The model checker explores the *same* protocol transition code as the
// simulator, exhaustively, for growing (processors x blocks); reachable
// state counts and wall time explode where the Lamport-clock checker
// (bench/scaling_checker) stays linear.
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "mc/model_checker.hpp"

using namespace lcdc;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  bench::banner("S2 — explicit-state model checking: reachable states");

  struct Cfg {
    NodeId procs;
    BlockId blocks;
    bool evictions;
  };
  const Cfg cfgs[] = {
      {2, 1, false}, {2, 1, true},  {3, 1, false}, {2, 2, false},
      {3, 1, true},  {2, 2, true},  {4, 1, false}, {3, 2, false},
  };

  bench::Table t({"procs", "blocks", "evictions", "states", "transitions",
                  "peak frontier", "time (s)", "result"});
  for (const Cfg& c : cfgs) {
    if (quick && (c.procs + c.blocks > 4)) continue;
    mc::McConfig cfg;
    cfg.numProcessors = c.procs;
    cfg.numBlocks = c.blocks;
    cfg.allowEvictions = c.evictions;
    cfg.maxStates = quick ? 200'000 : 1'000'000;

    bench::Stopwatch timer;
    const mc::McResult r = mc::explore(cfg);
    std::string verdict = r.ok() ? "safe" : "VIOLATION";
    std::string states = std::to_string(r.statesExplored);
    if (r.hitStateLimit) {
      states = "> " + states;
      verdict = "exploded (limit hit)";
    }
    t.row(c.procs, c.blocks, c.evictions ? "yes" : "no", states,
          r.transitions, r.frontierPeak, timer.seconds(), verdict);
  }
  t.print();
  std::cout << "\nEach extra processor or block multiplies the space; with "
               "evictions enabled\n(the full protocol of Section 2.5) even "
               "3 processors x 1 block is already in\nthe millions — the "
               "scale wall the paper's related work (Origin 2000 verified\n"
               "for 4 clusters x 1 block, S3.mp for 1 block) ran into.\n";

  // ---- S11a: parallel wave BFS — throughput vs worker count -------------
  // The wave-synchronous design makes states/transitions identical for any
  // --jobs; only wall time changes.  On a single-core host the sweep shows
  // the (small) coordination overhead instead of speedup — record core
  // count alongside the numbers.
  bench::banner("S11a — parallel exploration: states/sec vs jobs");
  {
    mc::McConfig cfg;
    cfg.numProcessors = 3;
    cfg.numBlocks = 1;
    cfg.allowEvictions = true;
    cfg.maxStates = quick ? 60'000 : 400'000;

    bench::Table jt({"jobs", "states", "transitions", "time (s)",
                     "states/sec"});
    for (const unsigned jobs : {1u, 2u, 4u}) {
      cfg.jobs = jobs;
      bench::Stopwatch timer;
      const mc::McResult r = mc::explore(cfg);
      const double secs = timer.seconds();
      jt.row(jobs, r.statesExplored, r.transitions, secs,
             secs > 0 ? static_cast<std::uint64_t>(
                            static_cast<double>(r.statesExplored) / secs)
                      : 0);
    }
    jt.print();
    std::cout << "\nhardware threads available: "
              << std::thread::hardware_concurrency() << '\n';
  }

  // ---- S11b: reductions — symmetry and ample-set POR --------------------
  // Equal-depth comparison: configs where the full space is out of reach
  // on this host are cut at a fixed BFS depth, so reduced and unreduced
  // counts cover the same schedule prefix tree.  depth 0 = full space.
  bench::banner("S11b — symmetry + POR: reduced state counts");
  {
    struct RCfg {
      NodeId procs;
      BlockId blocks;
      std::uint64_t depth;  // 0 = explore to exhaustion
    };
    const RCfg rcfgs[] = {{2, 1, 0}, {3, 1, 0}, {3, 2, quick ? 8u : 10u}};
    struct Mode {
      const char* name;
      bool sym;
      bool por;
    };
    const Mode modes[] = {{"none", false, false},
                          {"sym", true, false},
                          {"por", false, true},
                          {"sym+por", true, true}};

    bench::Table rt({"procs", "blocks", "depth", "reduction", "states",
                     "ample states", "time (s)", "result"});
    for (const RCfg& c : rcfgs) {
      if (quick && c.procs + c.blocks > 4 && c.depth == 0) continue;
      std::uint64_t baseline = 0;
      for (const Mode& m : modes) {
        mc::McConfig cfg;
        cfg.numProcessors = c.procs;
        cfg.numBlocks = c.blocks;
        cfg.allowEvictions = true;
        cfg.maxStates = quick ? 200'000 : 2'000'000;
        cfg.maxDepth = c.depth;
        cfg.symmetry = m.sym;
        cfg.por = m.por;

        bench::Stopwatch timer;
        const mc::McResult r = mc::explore(cfg);
        if (baseline == 0) baseline = r.statesExplored;
        std::string label = m.name;
        if (baseline > 0 && r.statesExplored > 0 &&
            std::string(m.name) != "none") {
          char buf[32];
          std::snprintf(buf, sizeof buf, " (%.1fx)",
                        static_cast<double>(baseline) /
                            static_cast<double>(r.statesExplored));
          label += buf;
        }
        rt.row(c.procs, c.blocks,
               c.depth == 0 ? std::string("full") : std::to_string(c.depth),
               label, r.statesExplored, r.ampleStates, timer.seconds(),
               r.ok() ? "safe" : "VIOLATION");
      }
    }
    rt.print();
    std::cout << "\nBoth reductions preserve every verdict (tests pin this "
                 "per mutant); together\nthey push the same depth-bounded "
                 "space down ~6x at 3 procs x 2 blocks.\n";
  }

  // ---- S12: binary encoding + flat visited set — where the time goes ----
  // The binary engine's perf counters, per jobs count, on the S11a
  // workload: throughput, stored bytes per state, per-call encode/insert
  // cost, and the visited-set probe-length histogram (collisions are the
  // price of open addressing; >8-probe inserts should be vanishingly
  // rare at <=50% load).
  bench::banner("S12 — binary state codec + flat visited set: perf counters");
  {
    mc::McConfig cfg;
    cfg.numProcessors = 3;
    cfg.numBlocks = 1;
    cfg.allowEvictions = true;
    cfg.maxStates = quick ? 60'000 : 400'000;
    cfg.perf = true;  // opt into nanosecond timers

    bench::Table pt({"jobs", "states/sec", "enc B/state", "visited B/state",
                     "encode ns", "insert ns", "probe 0/1/2/3-4/5-8/>8"});
    for (const unsigned jobs : {1u, 2u, 4u}) {
      cfg.jobs = jobs;
      bench::Stopwatch timer;
      const mc::McResult r = mc::explore(cfg);
      const double secs = timer.seconds();
      const mc::McPerfCounters& p = r.perf;
      const std::uint64_t states = std::max<std::uint64_t>(
          r.statesExplored, 1);
      std::string hist;
      for (std::size_t i = 0; i < p.probeHist.size(); ++i) {
        if (i != 0) hist += '/';
        hist += std::to_string(p.probeHist[i]);
      }
      pt.row(jobs,
             secs > 0 ? static_cast<std::uint64_t>(
                            static_cast<double>(r.statesExplored) / secs)
                      : 0,
             p.storedStates > 0 ? p.storedEncodingBytes / p.storedStates : 0,
             r.visitedBytes / states,
             p.encodeCalls > 0 ? p.encodeNanos / p.encodeCalls : 0,
             p.insertCalls > 0 ? p.insertNanos / p.insertCalls : 0, hist);
    }
    pt.print();
    std::cout << "\n'visited B/state' counts everything the checker retains "
                 "per distinct state\n(flat-set slots, canonical encodings, "
                 "per-id parent edges) — the quantity\n--mem-limit-mb "
                 "bounds.  The string-keyed engine this replaced held "
                 "~1 KiB/state\non the same workload (EXPERIMENTS.md S12).\n";
  }
  return 0;
}
