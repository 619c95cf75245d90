// Reproduction of Figure 2: the deadlock produced by allowing Put-Shared
// with buffered invalidations, and its Section 2.5 resolution.
//
// Two rows per network mode: with the deadlock detection disabled the
// scripted scenario wedges (and, under a random network, the watchdog
// reports deadlock); with the paper's fix the same schedule completes and
// passes full verification.
#include <iostream>

#include "bench_util.hpp"
#include "sim/system.hpp"
#include "trace/trace.hpp"
#include "verify/checkers.hpp"
#include "workload/program.hpp"

using namespace lcdc;

namespace {

struct Outcome {
  std::string status;
  std::uint64_t deadlocksResolved = 0;
  std::uint64_t invsDropped = 0;
  bool verified = false;
};

/// The scripted Figure 2 schedule on a manual network.
Outcome scripted(Mutant mutant) {
  using workload::evict;
  using workload::load;
  using workload::store;
  using proto::MsgType;

  trace::Trace trace;
  SystemConfig cfg;
  cfg.numProcessors = 2;
  cfg.numDirectories = 1;
  cfg.numBlocks = 1;
  cfg.proto.mutant = mutant;
  sim::System sys(cfg, trace, net::Network::Mode::Manual);
  const NodeId n1 = 0, n2 = 1;
  const BlockId A = 0;

  sys.setProgram(n1, {{load(A, 0), evict(A), load(A, 0)}});
  sys.setProgram(n2, {{store(A, 0, 0xA2)}});

  auto deliver = [&](MsgType type, NodeId dst) {
    return sys.deliverManualFirst([&](const net::Envelope& e) {
      return e.msg.type == type && e.dst == dst;
    });
  };

  // 1. N1 reads A, silently evicts it, re-requests it (steps 2/4 in the
  //    figure).  2. N2's Get-Exclusive (step 1) beats the re-request; the
  //    home invalidates N1 (step 3).  3. N1's Get-Shared is forwarded to
  //    N2; the forward and N2's reply arrive in the worst order.
  sys.kick(n1);
  deliver(MsgType::GetS, sys.home(A));
  deliver(MsgType::DataShared, n1);
  sys.kick(n2);
  deliver(MsgType::GetX, sys.home(A));
  deliver(MsgType::GetS, sys.home(A));
  deliver(MsgType::FwdGetS, n2);
  deliver(MsgType::DataExclusive, n2);
  while (!sys.network().empty()) sys.deliverManual(0);

  Outcome out;
  out.deadlocksResolved = sys.processor(1).cache().stats().deadlocksResolved;
  out.invsDropped = sys.processor(0).cache().stats().invsDropped;
  if (!sys.allProgramsDone()) {
    out.status = "DEADLOCK (N1 waits for data, N2 waits for N1's ack)";
    return out;
  }
  const auto report = verify::checkAll(trace, verify::VerifyConfig{2});
  out.verified = report.ok();
  out.status = "completed";
  return out;
}

/// The same programs under a randomly-reordering network (many seeds): the
/// buggy protocol eventually hits the race; the fixed one never wedges.
Outcome randomized(Mutant mutant, std::uint64_t seeds) {
  Outcome out;
  out.status = "completed (all seeds)";
  out.verified = true;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    using workload::evict;
    using workload::load;
    using workload::store;
    trace::Trace trace;
    SystemConfig cfg;
    cfg.numProcessors = 3;
    cfg.numDirectories = 1;
    cfg.numBlocks = 1;
    cfg.proto.mutant = mutant;
    cfg.seed = seed;
    cfg.minLatency = 1;
    cfg.maxLatency = 60;  // aggressive reordering
    sim::System sys(cfg, trace);
    // Everyone cycles: read, silently evict, read again / write.
    for (NodeId p = 0; p < 2; ++p) {
      workload::Program prog;
      for (int i = 0; i < 30; ++i) {
        prog.steps.push_back(load(0, 0));
        prog.steps.push_back(evict(0));
      }
      sys.setProgram(p, std::move(prog));
    }
    workload::Program writer;
    for (std::uint64_t i = 0; i < 30; ++i) {
      writer.steps.push_back(store(0, 0, workload::makeStoreValue(2, i)));
      writer.steps.push_back(evict(0));
    }
    sys.setProgram(2, std::move(writer));

    const sim::RunResult r = sys.run(5'000'000);
    out.deadlocksResolved +=
        sys.aggregateCacheStats().deadlocksResolved;
    out.invsDropped += sys.aggregateCacheStats().invsDropped;
    if (!r.ok()) {
      out.status = "DEADLOCK at seed " + std::to_string(seed) + " (" +
                   toString(r.outcome) + ")";
      out.verified = false;
      return out;
    }
    const auto report = verify::checkAll(trace, verify::VerifyConfig{3});
    if (!report.ok()) {
      out.status = "verification failed at seed " + std::to_string(seed);
      out.verified = false;
      return out;
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Figure 2 — Put-Shared deadlock and the Section 2.5 fix");

  bench::Table t({"network", "deadlock detection", "outcome",
                  "implicit acks", "invs dropped", "verified"});

  const Outcome s0 = scripted(Mutant::NoDeadlockDetection);
  t.row("scripted (fig. 2 order)", "off", s0.status, s0.deadlocksResolved,
        s0.invsDropped, s0.verified ? "yes" : "-");
  const Outcome s1 = scripted(Mutant::None);
  t.row("scripted (fig. 2 order)", "on", s1.status, s1.deadlocksResolved,
        s1.invsDropped, s1.verified ? "yes" : "NO");

  const Outcome r0 = randomized(Mutant::NoDeadlockDetection, 60);
  t.row("random x60 seeds", "off", r0.status, r0.deadlocksResolved,
        r0.invsDropped, r0.verified ? "yes" : "-");
  const Outcome r1 = randomized(Mutant::None, 60);
  t.row("random x60 seeds", "on", r1.status, r1.deadlocksResolved,
        r1.invsDropped, r1.verified ? "yes" : "NO");
  t.print();

  std::cout << "\nWith detection off, the very message order of Figure 2 "
               "wedges both nodes;\nwith the paper's implicit-ack "
               "resolution the same order (and every random\nschedule) "
               "completes and passes the full Section 3 property suite.\n";
  // Exit status reflects the expected shape.
  const bool shapeHolds = s0.status.find("DEADLOCK") == 0 && s1.verified &&
                          r0.status.find("DEADLOCK") == 0 && r1.verified;
  return shapeHolds ? 0 : 1;
}
