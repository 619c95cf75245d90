// serve-tcp and serve-mem: the live-certified DSM.
//
//   serve-tcp  dsm::serveTcp on ephemeral loopback ports (2 nodes + the
//              certifier) driven by this file's one-thread client: HELLO,
//              1024-step ProgramFrame chunks, window 2, chunk RTT timed in
//              ns from send to CHUNK_DONE.  dsm::runLoad is not reused: it
//              times RTT in whole ms, generates programs inside its timed
//              section and takes the seed itself.
//   serve-mem  dsm::serveMem, 3 nodes: the same NodeEngine/CertifierEngine
//              with no sockets, deterministic.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "backend/backend.hpp"
#include "common/expect.hpp"
#include "dsm/serve.hpp"
#include "dsm/transport.hpp"
#include "suite.hpp"

namespace lcdc::bench_suite {

namespace {

constexpr std::uint32_t kMemNodes = 3;
constexpr std::uint64_t kMemOps = 1'000'000;
constexpr std::uint32_t kTcpNodes = 2;
constexpr std::uint64_t kTcpOps = 500'000;
constexpr int kTcpSetUpsPerSession = 2;
constexpr std::uint32_t kChunkSteps = 1024;
constexpr std::uint32_t kWindow = 2;
/// A session that completes no chunk for this long has stalled.
constexpr std::uint64_t kStallNs = 30'000'000'000;

struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
};
/// serve-mem counts at --seed 1, full size (= `lcdc serve --mem --nodes 3
/// --ops 1000000 --mix hot --seed 1`).
constexpr Counts kMemPinned = {950'083, 2'262'545, 696'339};
/// serve-tcp ops bound at --seed 1, full size (= `lcdc load --ops 500000
/// --mix hot --seed 1` against a 2-node serve).
constexpr std::uint64_t kTcpPinnedOps = 474'968;

dsm::ServeConfig serveConfig(const Options& opt, std::uint32_t nodes) {
  dsm::ServeConfig cfg;
  cfg.nodes = nodes;
  cfg.system.seed = opt.seed;
  cfg.once = true;
  cfg.drainTimeoutMs = 5'000;
  return cfg;
}

/// The checker configuration the certifier derives for this serve.
verify::VerifyConfig certifierConfig(const dsm::ServeConfig& cfg) {
  SystemConfig sys = cfg.system;
  sys.numProcessors = cfg.nodes;
  sys.numDirectories = cfg.nodes;
  return proto::verifyConfigFor(sys);
}

Counts countsOf(const dsm::ServeResult& r) {
  Counts c;
  c.ops = r.opsBound;
  c.events = r.certStats.eventsMerged;
  for (const dsm::NodeStats& n : r.nodeStats) c.msgs += n.msgsSent;
  return c;
}

/// Verdict and event conservation: every event a node emitted was merged.
bool gateServe(Result& res, const dsm::ServeResult& r) {
  std::uint64_t emitted = 0;
  for (const dsm::NodeStats& n : r.nodeStats) emitted += n.eventsEmitted;
  bool ok = res.gate(r.ok(), "serve.verdict",
                     r.drained ? r.report.summary() : "drain timed out");
  ok = res.gate(r.certStats.eventsMerged == emitted, "serve.events_conserved",
                std::to_string(r.certStats.eventsMerged) + " merged of " +
                    std::to_string(emitted) + " emitted") &&
       ok;
  return ok;
}

/// The dsm.* layer counts, tallied over the untraced serves: the traced
/// phase re-verifies on the certifier thread, which slows the certifier
/// and so skews its lag, the heartbeats and the client's waits.
struct DsmTally {
  double ops = 0;
  double msgs = 0;
  double events = 0;
  double beats = 0;
  double lag = 0;
  double bytes = 0;

  void add(const dsm::ServeResult& r) {
    ops += static_cast<double>(r.opsBound);
    events += static_cast<double>(r.certStats.eventsMerged);
    for (const dsm::NodeStats& n : r.nodeStats) {
      msgs += static_cast<double>(n.msgsSent);
      beats += static_cast<double>(n.heartbeats);
    }
    lag = std::max(lag, static_cast<double>(r.certStats.peakLag));
    bytes = std::max(bytes, static_cast<double>(r.certStats.checkerBytes()));
  }

  void write(Result& res) const {
    res.layers["dsm.msgs_per_op"] = ratio(msgs, ops);
    res.layers["dsm.events_per_op"] = ratio(events, ops);
    res.layers["dsm.heartbeats_per_op"] = ratio(beats, ops);
    res.layers["dsm.cert_peak_lag_events"] = lag;
    res.layers["dsm.cert_checker_bytes"] = bytes;
  }
};

// -- serve-tcp ----------------------------------------------------------------

/// dsm::serveTcp on its own thread.  The destructor asks an unfinished
/// serve (a failed session) to stop through the API's SIGINT flag, as
/// tests/dsm_tcp_test.cpp does, and joins it.
class ServeThread {
 public:
  explicit ServeThread(const dsm::ServeConfig& cfg) : cfg_(cfg) {
    cfg_.portsReady = &ready_;
    thread_ = std::thread([this] {
      try {
        result_ = dsm::serveTcp(cfg_, &stop_, &ports_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
      done_.store(true, std::memory_order_release);
    });
  }
  ~ServeThread() {
    if (!thread_.joinable()) return;
    stop_ = 1;
    thread_.join();
  }
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;

  /// Bound ports, once every listener is up.
  const dsm::ServePorts& ports() const {
    while (!ready_.load(std::memory_order_acquire)) {
      if (done_.load(std::memory_order_acquire)) {
        throw SimError("serve failed to start: " + error_);
      }
      std::this_thread::yield();
    }
    return ports_;
  }

  /// Wait for the verdict.
  dsm::ServeResult join() {
    thread_.join();
    if (!error_.empty()) throw SimError("serve failed: " + error_);
    return result_;
  }
 private:
  dsm::ServeConfig cfg_;
  std::atomic<bool> ready_{false};
  std::atomic<bool> done_{false};
  volatile std::sig_atomic_t stop_ = 0;
  dsm::ServePorts ports_;
  dsm::ServeResult result_;
  std::string error_;
  std::thread thread_;  // last: started after every member it uses
};

/// The bench client's view of one node.
struct ClientNode {
  std::unique_ptr<dsm::Conn> conn;
  std::vector<dsm::ProgramFrame> chunks;
  std::size_t sent = 0;
  std::size_t done = 0;
  std::uint64_t finalOps = 0;
  std::deque<std::uint64_t> sendNs;  ///< send times of outstanding chunks
};

struct Session {
  dsm::ServeResult result;
  double setupS = 0;
  Rep rep;                        ///< first send to verdict
  std::uint64_t expectedOps = 0;  ///< LD/ST steps sent
  std::uint64_t chunks = 0;
  std::uint64_t chunksSent = 0;
  std::uint64_t chunksDone = 0;
  std::uint64_t clientOps = 0;  ///< sum of the nodes' last CHUNK_DONE counts
  std::uint64_t genNs = 0;
  std::uint64_t genSteps = 0;
  std::uint64_t pollNs = 0;  ///< client time blocked in poll
  std::vector<double> rttMs;
};

dsm::HelloFrame awaitHello(dsm::Conn& conn) {
  std::vector<dsm::Frame> frames;
  const std::uint64_t t0 = nowNs();
  for (;;) {
    if (conn.wantWrite() && !conn.writePending()) {
      throw SimError("connection failed during the hello exchange");
    }
    if (!conn.readFrames(frames)) {
      throw SimError("serve closed the connection during the hello exchange");
    }
    for (const dsm::Frame& f : frames) {
      if (const auto* h = std::get_if<dsm::HelloFrame>(&f)) return *h;
    }
    if (nowNs() - t0 > kStallNs) throw SimError("no hello reply from a node");
    pollfd p{conn.fd(), POLLIN, 0};
    (void)::poll(&p, 1, 10);
  }
}

/// Stream every node's chunks, `kWindow` outstanding per node, until each
/// node has acknowledged its last chunk.
void drive(std::vector<ClientNode>& nodes, Session& s, Tracer* tracer,
           std::uint64_t sessionSpan) {
  std::vector<pollfd> pfds(nodes.size());
  std::vector<dsm::Frame> frames;
  const auto push = [&](ClientNode& n) {
    while (n.sent < n.chunks.size() && n.sendNs.size() < kWindow) {
      n.conn->queue(dsm::Frame{n.chunks[n.sent]});
      n.sendNs.push_back(nowNs());
      n.sent += 1;
      s.chunksSent += 1;
    }
    if (n.conn->wantWrite() && !n.conn->writePending()) {
      throw SimError("node connection failed during the session");
    }
  };
  for (ClientNode& n : nodes) push(n);

  std::size_t finished = 0;
  std::uint64_t lastProgress = nowNs();
  while (finished < nodes.size()) {
    bool wantWrite = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      dsm::Conn& c = *nodes[i].conn;
      if (c.wantWrite()) {
        wantWrite = true;
        if (!c.writePending()) throw SimError("node connection failed");
      }
      pfds[i] = pollfd{c.fd(), POLLIN, 0};
    }
    const std::uint64_t p0 = nowNs();
    (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                 wantWrite ? 0 : 10);
    const std::uint64_t p1 = nowNs();
    s.pollNs += p1 - p0;
    if (p1 - lastProgress > kStallNs) throw SimError("session stalled");

    for (ClientNode& n : nodes) {
      if (n.done == n.chunks.size()) continue;
      frames.clear();
      if (!n.conn->readFrames(frames)) {
        throw SimError("serve closed a node connection mid-session");
      }
      for (const dsm::Frame& f : frames) {
        const auto* d = std::get_if<dsm::ChunkDoneFrame>(&f);
        if (d == nullptr || n.sendNs.empty()) {
          throw SimError("unexpected frame from a node");
        }
        const std::uint64_t now = nowNs();
        s.rttMs.push_back(static_cast<double>(now - n.sendNs.front()) / 1e6);
        if (tracer != nullptr) {
          tracer->span("chunk", sessionSpan, n.sendNs.front(), now);
        }
        n.sendNs.pop_front();
        n.done += 1;
        n.finalOps = d->opsBound;
        s.chunksDone += 1;
        lastProgress = now;
        if (n.done == n.chunks.size()) finished += 1;
        push(n);
      }
    }
  }
}

/// One load session against a fresh serve: set-up (listeners, dials,
/// HELLO, program generation) then the measured section, first chunk sent
/// to verdict.  With `setUpOnly`, the session ends once set up, sending no
/// steps; only setupS and the (empty) verdict are meaningful.
Session runSession(const Options& opt, proto::EventSink* archive,
                   Tracer* tracer, std::uint64_t parent,
                   bool setUpOnly = false) {
  Session s;
  const std::uint64_t t0 = nowNs();
  dsm::ServeConfig cfg = serveConfig(opt, kTcpNodes);
  cfg.archive = archive;
  ServeThread serve(cfg);
  const dsm::ServePorts& ports = serve.ports();

  std::vector<ClientNode> nodes(kTcpNodes);
  dsm::HelloFrame hello;
  hello.role = dsm::Role::Client;
  for (std::uint32_t i = 0; i < kTcpNodes; ++i) {
    nodes[i].conn =
        std::make_unique<dsm::Conn>(dsm::dial(ports.node[i], 100, 10).fd);
    nodes[i].conn->queue(dsm::Frame{hello});
  }
  SystemConfig served;
  for (ClientNode& n : nodes) {
    const dsm::HelloFrame reply = awaitHello(*n.conn);
    if (reply.nodes != kTcpNodes) throw SimError("unexpected serve topology");
    served = reply.config;
  }

  // The programs `lcdc load` would send for this seed and shape.
  const std::uint64_t g0 = nowNs();
  workload::WorkloadConfig w;
  w.seed = opt.seed;
  w.numProcessors = kTcpNodes;
  w.numBlocks = served.numBlocks;
  w.wordsPerBlock = served.proto.wordsPerBlock;
  w.opsPerProcessor = (opt.smoke ? kTcpOps / 50 : kTcpOps) / kTcpNodes;
  const std::vector<workload::Program> programs =
      workload::make(workload::Kind::Hot, w);
  s.genNs = nowNs() - g0;
  for (std::uint32_t i = 0; i < kTcpNodes; ++i) {
    const std::vector<workload::Step>& steps = programs[i].steps;
    s.genSteps += steps.size();
    for (const workload::Step& st : steps) {
      if (st.kind == workload::StepKind::Load ||
          st.kind == workload::StepKind::Store) {
        s.expectedOps += 1;
      }
    }
    for (std::size_t at = 0; at < steps.size(); at += kChunkSteps) {
      dsm::ProgramFrame f;
      f.chunk = nodes[i].chunks.size();
      const std::size_t end = std::min(steps.size(), at + kChunkSteps);
      f.steps.assign(steps.begin() + static_cast<std::ptrdiff_t>(at),
                     steps.begin() + static_cast<std::ptrdiff_t>(end));
      f.last = end == steps.size();
      nodes[i].chunks.push_back(std::move(f));
    }
    s.chunks += nodes[i].chunks.size();
  }
  const std::uint64_t t1 = nowNs();
  s.setupS = static_cast<double>(t1 - t0) / 1e9;
  if (setUpOnly) {
    // End through the `once` path, as an empty program does: one empty
    // last chunk per node.
    for (ClientNode& n : nodes) {
      n.chunks.assign(1, dsm::ProgramFrame{});
      n.chunks.front().last = true;
    }
    drive(nodes, s, nullptr, 0);
    s.result = serve.join();
    return s;
  }

  const std::uint64_t span =
      tracer != nullptr ? tracer->span("session", parent, t0, t0) : 0;
  if (tracer != nullptr) tracer->span("setup", span, t0, t1);
  s.rep = timedRep([&] {
    drive(nodes, s, tracer, span);
    s.result = serve.join();
    return static_cast<double>(s.result.opsBound);
  });
  if (tracer != nullptr) tracer->end(span);
  for (const ClientNode& n : nodes) s.clientOps += n.finalOps;
  return s;
}

/// Gate a session; failed units are chunks.
void gateSession(Result& res, const Session& s, const Options& opt) {
  res.attempted += s.chunks;
  const std::uint64_t pinned =
      opt.seed == 1 && !opt.smoke ? kTcpPinnedOps : s.expectedOps;
  bool ok = gateServe(res, s.result);
  ok = res.gate(s.result.opsBound == s.expectedOps &&
                    s.clientOps == s.expectedOps && s.expectedOps == pinned,
                "serve.ops_bound",
                "bound " + std::to_string(s.result.opsBound) + ", client saw " +
                    std::to_string(s.clientOps) + ", programs hold " +
                    std::to_string(s.expectedOps) + ", pinned " +
                    std::to_string(pinned)) &&
       ok;
  const bool allDone = res.gate(
      s.chunksSent == s.chunks && s.chunksDone == s.chunks,
      "serve.chunks_done",
      std::to_string(s.chunksDone) + " CHUNK_DONE for " +
          std::to_string(s.chunksSent) + " sent of " +
          std::to_string(s.chunks));
  if (!ok) {
    res.failed += s.chunks;
  } else if (!allDone) {
    res.failed += s.chunks - s.chunksDone;
  }
}

}  // namespace

Result runServeTcp(const Options& opt, Tracer* tracer) {
  Result res;
  res.unit = "ops";
  std::vector<double> rtt;
  std::uint64_t genNs = 0;
  std::uint64_t genSteps = 0;
  DsmTally tally;
  std::uint64_t pollNs = 0;
  double wallS = 0;
  repeatFor(opt.phaseSeconds(), 3, [&] {
    // Set-up-only sessions before each measured one: a run fits 4-5
    // sessions, too few set-ups for a steady median on their own.
    for (int i = 0; i < kTcpSetUpsPerSession; ++i) {
      const Session warm = runSession(opt, nullptr, nullptr, 0, true);
      res.setupS.push_back(warm.setupS);
      res.gate(warm.result.ok(), "serve.setup_verdict",
               warm.result.report.summary());
    }
    const Session s = runSession(opt, nullptr, nullptr, 0);
    gateSession(res, s, opt);
    res.setupS.push_back(s.setupS);
    res.reps.push_back(s.rep);
    rtt.insert(rtt.end(), s.rttMs.begin(), s.rttMs.end());
    genNs += s.genNs;
    genSteps += s.genSteps;
    tally.add(s.result);
    pollNs += s.pollNs;
    wallS += s.rep.wallS;
  });
  res.extra["chunks"] = static_cast<double>(rtt.size());
  res.extra["chunk_rtt_p50_ms"] = percentile(rtt, 0.50);
  res.extra["chunk_rtt_p99_ms"] = percentile(rtt, 0.99);
  if (tracer == nullptr) return res;

  // Traced phase: a second checker suite, timed core by core, re-verifies
  // the certifier's merged stream.  It runs on the certifier thread, so
  // only the verify.* timings come from here.
  const dsm::ServeConfig cfg = serveConfig(opt, kTcpNodes);
  const verify::VerifyConfig vc = certifierConfig(cfg);
  TimedCheckers timed(vc, *tracer);
  const std::uint64_t root = tracer->begin("workload", 0);
  double tracedWallS = 0;
  repeatFor(opt.phaseSeconds(), 1, [&] {
    timed.reset(vc);
    const Session s = runSession(opt, &timed, tracer, root);
    timed.finish();
    gateSession(res, s, opt);
    res.gate(timed.report().ok(), "serve.traced_verdict",
             timed.report().summary());
    res.tracedReps.push_back(s.rep);
    tracedWallS += s.rep.wallS;
  });
  tracer->end(root);

  tally.write(res);
  verifyLayers(*tracer, static_cast<std::uint64_t>(tracedWallS * 1e9), res);
  res.layers["dsm.client_wait_frac"] =
      ratio(static_cast<double>(pollNs) / 1e9, wallS);
  res.layers["dsm.chunk_rtt_p50_ms"] = res.extra["chunk_rtt_p50_ms"];
  res.layers["dsm.chunk_rtt_p99_ms"] = res.extra["chunk_rtt_p99_ms"];
  res.layers["workload.gen_ns_per_op"] =
      ratio(static_cast<double>(genNs), static_cast<double>(genSteps));
  return res;
}

// -- serve-mem ----------------------------------------------------------------

Result runServeMem(const Options& opt, Tracer* tracer) {
  Result res;
  res.unit = "ops";
  dsm::ServeConfig cfg = serveConfig(opt, kMemNodes);
  dsm::MemLoadSpec load;
  load.kind = workload::Kind::Hot;
  load.seed = opt.seed;
  load.chunkSteps = kChunkSteps;
  load.window = kWindow;

  // Set-up sample, before every rep: a 1/50-size serve pays engine
  // construction, program generation and the certifier's first checker
  // growth.  Between the reps, as in campaign-mixed and mc-*, so the set-up
  // median spans the same stretch of host time as the reps'.
  dsm::MemLoadSpec warmLoad = load;
  warmLoad.totalOps = kMemOps / 50;
  load.totalOps = opt.smoke ? kMemOps / 50 : kMemOps;
  Counts expected;
  const auto gateRep = [&](const dsm::ServeResult& r) {
    const Counts c = countsOf(r);
    if (res.attempted == 0) {
      expected = opt.seed == 1 && !opt.smoke ? kMemPinned : c;
    }
    res.attempted += 1;
    bool ok = gateServe(res, r);
    ok = res.gate(c.ops == expected.ops && c.events == expected.events &&
                      c.msgs == expected.msgs,
                  "serve.counts",
                  "ops " + std::to_string(c.ops) + " events " +
                      std::to_string(c.events) + " msgs " +
                      std::to_string(c.msgs) + ", expected " +
                      std::to_string(expected.ops) + " / " +
                      std::to_string(expected.events) + " / " +
                      std::to_string(expected.msgs)) &&
         ok;
    if (!ok) res.failed += 1;
  };
  DsmTally tally;
  repeatFor(opt.phaseSeconds(), 3, [&] {
    const Clock::time_point t0 = Clock::now();
    const dsm::ServeResult warm = dsm::serveMem(cfg, warmLoad);
    res.setupS.push_back(secondsSince(t0));
    res.gate(warm.ok(), "serve.setup_verdict", warm.report.summary());
    dsm::ServeResult r;
    res.reps.push_back(timedRep([&] {
      r = dsm::serveMem(cfg, load);
      return static_cast<double>(r.opsBound);
    }));
    gateRep(r);
    tally.add(r);
  });
  if (tracer == nullptr) return res;

  // Traced phase: as for serve-tcp, only the verify.* timings.
  const verify::VerifyConfig vc = certifierConfig(cfg);
  TimedCheckers timed(vc, *tracer);
  cfg.archive = &timed;
  const std::uint64_t root = tracer->begin("workload", 0);
  std::uint64_t wallNs = 0;
  repeatFor(opt.phaseSeconds(), 1, [&] {
    timed.reset(vc);
    dsm::ServeResult r;
    const std::uint64_t t0 = nowNs();
    res.tracedReps.push_back(timedRep([&] {
      r = dsm::serveMem(cfg, load);
      return static_cast<double>(r.opsBound);
    }));
    const std::uint64_t t1 = nowNs();
    tracer->span("rep", root, t0, t1);
    timed.finish();
    gateRep(r);
    res.gate(timed.report().ok(), "serve.traced_verdict",
             timed.report().summary());
    wallNs += t1 - t0;
  });
  tracer->end(root);
  tally.write(res);
  verifyLayers(*tracer, wallNs, res);
  return res;
}

}  // namespace lcdc::bench_suite
