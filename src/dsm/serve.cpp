#include "dsm/serve.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <poll.h>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/expect.hpp"
#include "dsm/transport.hpp"

namespace lcdc::dsm {

namespace {

SystemConfig normalized(const ServeConfig& cfg) {
  LCDC_EXPECT(cfg.nodes >= 1, "serve needs at least one node");
  SystemConfig sys = cfg.system;
  sys.numProcessors = cfg.nodes;
  sys.numDirectories = cfg.nodes;
  LCDC_EXPECT(sys.numBlocks >= 1, "serve needs at least one block");
  return sys;
}

/// Split one generated program into ProgramFrame chunks.
std::vector<ProgramFrame> chunkProgram(const workload::Program& prog,
                                       std::uint32_t chunkSteps) {
  LCDC_EXPECT(chunkSteps >= 1, "chunks need at least one step");
  std::vector<ProgramFrame> chunks;
  std::size_t at = 0;
  std::uint64_t idx = 0;
  do {
    ProgramFrame f;
    f.chunk = idx++;
    const std::size_t n = std::min<std::size_t>(chunkSteps,
                                                prog.steps.size() - at);
    f.steps.assign(prog.steps.begin() + static_cast<std::ptrdiff_t>(at),
                   prog.steps.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
    f.last = at >= prog.steps.size();
    chunks.push_back(std::move(f));
  } while (at < prog.steps.size());
  return chunks;
}

// ---------------------------------------------------------------------------
// Deterministic loopback runtime
// ---------------------------------------------------------------------------

class MemHub;

/// Per-node FrameShip that routes through the hub, remembering the sender.
struct MemShip final : FrameShip {
  MemHub* hub = nullptr;
  std::uint32_t src = 0;
  void ship(const Endpoint& to, const Frame& f) override;
};

/// Single-threaded round-robin hub: node inboxes + an embedded load
/// client, the certifier fed synchronously.  Every queue drains in a
/// fixed order each round, so the whole serve is a deterministic function
/// of (ServeConfig, MemLoadSpec).
class MemHub {
 public:
  MemHub(const ServeConfig& cfg, const MemLoadSpec& load)
      : cfg_(cfg), sys_(normalized(cfg)), load_(load), cert_(cfg.nodes) {
    if (cfg_.archive != nullptr) cert_.attachExtra(*cfg_.archive);
    ships_.resize(cfg_.nodes);
    inbox_.resize(cfg_.nodes);
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
      ships_[i].hub = this;
      ships_[i].src = i;
      nodes_.push_back(std::make_unique<NodeEngine>(
          i, sys_, ships_[i], cfg_.heartbeatEveryPumps));
    }
  }

  void route(std::uint32_t src, const Endpoint& to, const Frame& f) {
    switch (to.kind) {
      case Endpoint::Kind::Certifier:
        if (const auto* e = std::get_if<EventFrame>(&f)) {
          cert_.onEvent(src, *e);
        } else if (const auto* hb = std::get_if<HeartbeatFrame>(&f)) {
          cert_.onHeartbeat(src, *hb);
        } else {
          cert_.onFin(src, std::get<FinFrame>(f));
        }
        break;
      case Endpoint::Kind::Peer:
        inbox_[to.id].push_back(std::get<MsgFrame>(f));
        break;
      case Endpoint::Kind::Client:
        chunkDones_.emplace_back(src, std::get<ChunkDoneFrame>(f));
        break;
    }
  }

  ServeResult run() {
    const std::uint64_t t0 = monotonicMs();

    HelloFrame hello;
    hello.role = Role::Events;
    hello.sender = 0;
    hello.nodes = cfg_.nodes;
    hello.config = sys_;
    cert_.onHello(hello);

    // Embedded load: generate every node's program up front, feed it in
    // windowed chunks exactly as `lcdc load` would.
    workload::WorkloadConfig wcfg;
    wcfg.seed = load_.seed;
    wcfg.numProcessors = sys_.numProcessors;
    wcfg.numBlocks = sys_.numBlocks;
    wcfg.wordsPerBlock = sys_.proto.wordsPerBlock;
    wcfg.opsPerProcessor = std::max<std::uint64_t>(
        1, load_.totalOps / cfg_.nodes);
    const std::vector<workload::Program> programs =
        workload::make(load_.kind, wcfg);
    std::vector<std::vector<ProgramFrame>> chunks(cfg_.nodes);
    std::vector<std::size_t> sent(cfg_.nodes, 0);
    for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
      chunks[i] = chunkProgram(programs[i], load_.chunkSteps);
      const std::size_t w = std::min<std::size_t>(
          std::max<std::uint32_t>(1, load_.window), chunks[i].size());
      for (std::size_t k = 0; k < w; ++k) {
        nodes_[i]->onFrame(Frame{chunks[i][k]});
        sent[i] += 1;
      }
    }

    // Round-robin until every node finished its load and drained.
    std::uint64_t lastOps = 0;
    std::uint64_t idleRounds = 0;
    for (;;) {
      bool moved = false;
      for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
        std::deque<MsgFrame>& in = inbox_[i];
        while (!in.empty()) {
          MsgFrame m = std::move(in.front());
          in.pop_front();
          nodes_[i]->onFrame(Frame{std::move(m)});
          moved = true;
        }
        nodes_[i]->pump();
      }
      while (!chunkDones_.empty()) {
        const auto [node, done] = std::move(chunkDones_.front());
        chunkDones_.pop_front();
        moved = true;
        if (sent[node] < chunks[node].size()) {
          nodes_[node]->onFrame(Frame{chunks[node][sent[node]]});
          sent[node] += 1;
        }
      }

      bool allIdle = true;
      std::uint64_t ops = 0;
      for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
        ops += nodes_[i]->stats().opsBound;
        if (!nodes_[i]->loadDone() || !nodes_[i]->quiet() ||
            !inbox_[i].empty()) {
          allIdle = false;
        }
      }
      if (allIdle) break;
      if (moved || ops != lastOps) {
        lastOps = ops;
        idleRounds = 0;
      } else if (++idleRounds > 5'000'000) {
        throw SimError("mem serve made no progress (protocol stalled)");
      }
    }

    for (auto& n : nodes_) n->finishEvents();

    ServeResult r;
    for (auto& n : nodes_) {
      r.nodeStats.push_back(n->stats());
      r.opsBound += n->stats().opsBound;
    }
    r.report = cert_.finish(r.opsBound);
    r.certStats = cert_.stats();
    r.seconds =
        static_cast<double>(monotonicMs() - t0) / 1000.0;
    return r;
  }

 private:
  ServeConfig cfg_;
  SystemConfig sys_;
  MemLoadSpec load_;
  CertifierEngine cert_;
  std::vector<MemShip> ships_;
  std::vector<std::unique_ptr<NodeEngine>> nodes_;
  std::vector<std::deque<MsgFrame>> inbox_;
  std::deque<std::pair<std::uint32_t, ChunkDoneFrame>> chunkDones_;
};

void MemShip::ship(const Endpoint& to, const Frame& f) {
  hub->route(src, to, f);
}

// ---------------------------------------------------------------------------
// TCP runtime
// ---------------------------------------------------------------------------

/// Supervisor -> worker-thread control plane (monotone flags).
struct Control {
  std::atomic<bool> stopNewWork{false};  ///< abandon queued chunks
  std::atomic<bool> sendFin{false};      ///< FIN once locally quiet
  std::atomic<bool> forceFin{false};     ///< FIN even if not quiet (drain timed out)
  std::atomic<bool> exitNow{false};
};

/// Worker-thread -> supervisor state (published every loop iteration).
struct NodeShared {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> recv{0};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> quiet{false};
  std::atomic<bool> loadDone{false};
  std::atomic<bool> finSent{false};
  std::atomic<bool> failed{false};
};

/// An accepted connection plus what its HELLO told us.
struct Accepted {
  std::unique_ptr<Conn> conn;
  Role role = Role::Peer;
  bool helloSeen = false;
};

struct TcpShip final : FrameShip {
  std::vector<std::unique_ptr<Conn>>* peerOut = nullptr;  // by node id
  Conn* certConn = nullptr;
  Conn** session = nullptr;  // active load client, may be null
  void ship(const Endpoint& to, const Frame& f) override {
    switch (to.kind) {
      case Endpoint::Kind::Peer:
        (*peerOut)[to.id]->queue(f);
        break;
      case Endpoint::Kind::Certifier:
        certConn->queue(f);
        break;
      case Endpoint::Kind::Client:
        if (*session != nullptr) (*session)->queue(f);
        break;
    }
  }
};

void nodeThread(std::uint32_t i, const ServeConfig& cfg,
                const SystemConfig& sys, const ServePorts& ports,
                Listener& listener, Control& ctl, NodeShared& shared,
                std::atomic<std::uint64_t>& dialRetries,
                NodeStats& statsOut, std::string& errorOut) {
  try {
    const std::uint32_t n = cfg.nodes;

    const DialResult certDial = dial(ports.cert, 200, 5);
    dialRetries.fetch_add(certDial.retries, std::memory_order_relaxed);
    auto certConn = std::make_unique<Conn>(certDial.fd);
    HelloFrame hello;
    hello.role = Role::Events;
    hello.sender = i;
    hello.nodes = n;
    hello.config = sys;
    certConn->queue(Frame{hello});

    std::vector<std::unique_ptr<Conn>> peerOut(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const DialResult d = dial(ports.node[j], 200, 5);
      dialRetries.fetch_add(d.retries, std::memory_order_relaxed);
      peerOut[j] = std::make_unique<Conn>(d.fd);
      HelloFrame ph = hello;
      ph.role = Role::Peer;
      peerOut[j]->queue(Frame{ph});
    }

    Conn* session = nullptr;
    TcpShip ship;
    ship.peerOut = &peerOut;
    ship.certConn = certConn.get();
    ship.session = &session;
    NodeEngine engine(i, sys, ship, cfg.heartbeatEveryPumps);

    std::vector<Accepted> accepted;
    std::vector<pollfd> pfds;
    std::vector<Frame> frames;
    bool abandoned = false;
    bool finSent = false;

    while (!ctl.exitNow.load(std::memory_order_relaxed)) {
      // Poll for readability; writes are attempted every iteration.
      pfds.clear();
      pfds.push_back(pollfd{listener.fd(), POLLIN, 0});
      for (const Accepted& a : accepted) {
        pfds.push_back(pollfd{a.conn->fd(), POLLIN, 0});
      }
      const bool busy = !engine.quiet() || certConn->wantWrite();
      (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   busy ? 0 : 2);

      for (int fd = listener.acceptOne(); fd >= 0;
           fd = listener.acceptOne()) {
        Accepted a;
        a.conn = std::make_unique<Conn>(fd);
        accepted.push_back(std::move(a));
      }

      for (std::size_t c = 0; c < accepted.size();) {
        Accepted& a = accepted[c];
        frames.clear();
        const bool alive = a.conn->readFrames(frames);
        for (Frame& f : frames) {
          if (const auto* h = std::get_if<HelloFrame>(&f)) {
            LCDC_EXPECT(h->version == kWireVersion, "wire version mismatch");
            a.helloSeen = true;
            a.role = h->role;
            if (h->role == Role::Client) {
              // Reply so the client learns the topology and config.
              HelloFrame reply;
              reply.role = Role::Peer;
              reply.sender = i;
              reply.nodes = n;
              reply.config = sys;
              a.conn->queue(Frame{reply});
            }
          } else if (std::holds_alternative<MsgFrame>(f)) {
            engine.onFrame(f);
          } else if (std::holds_alternative<ProgramFrame>(f)) {
            if (!ctl.stopNewWork.load(std::memory_order_relaxed)) {
              session = a.conn.get();
              engine.onFrame(f);
            }
          } else {
            throw SimError("unexpected frame kind on a node connection");
          }
        }
        // Reap: dead peers, or clients (outside the active session) idle
        // past the timeout.
        const bool idleClient =
            a.helloSeen && a.role == Role::Client &&
            a.conn.get() != session &&
            a.conn->idleMs() > cfg.idleTimeoutMs;
        const bool neverSpoke =
            !a.helloSeen && a.conn->idleMs() > cfg.idleTimeoutMs;
        if (!alive || idleClient || neverSpoke) {
          if (a.conn.get() == session) session = nullptr;
          accepted.erase(accepted.begin() +
                         static_cast<std::ptrdiff_t>(c));
          continue;
        }
        ++c;
      }

      engine.pump();

      if (ctl.stopNewWork.load(std::memory_order_relaxed) && !abandoned) {
        engine.abandonQueuedChunks();
        abandoned = true;
      }
      if (!finSent && ctl.sendFin.load(std::memory_order_relaxed) &&
          (engine.quiet() || ctl.forceFin.load(std::memory_order_relaxed))) {
        engine.finishEvents();
        finSent = true;
      }

      for (std::uint32_t j = 0; j < n; ++j) {
        if (peerOut[j] && peerOut[j]->wantWrite() &&
            !peerOut[j]->writePending()) {
          throw SimError("peer connection failed");
        }
      }
      if (certConn->wantWrite() && !certConn->writePending()) {
        throw SimError("certifier connection failed");
      }
      for (Accepted& a : accepted) {
        if (a.conn->wantWrite() && !a.conn->writePending()) {
          // Client went away mid-reply; reaped next iteration.
        }
      }
      if (finSent && !shared.finSent.load(std::memory_order_relaxed) &&
          !certConn->wantWrite()) {
        shared.finSent.store(true, std::memory_order_release);
      }

      shared.sent.store(engine.stats().msgsSent, std::memory_order_relaxed);
      shared.recv.store(engine.stats().msgsReceived,
                        std::memory_order_relaxed);
      shared.ops.store(engine.stats().opsBound, std::memory_order_relaxed);
      shared.quiet.store(engine.quiet(), std::memory_order_relaxed);
      shared.loadDone.store(engine.loadDone(), std::memory_order_relaxed);
    }

    statsOut = engine.stats();
  } catch (const std::exception& e) {
    errorOut = e.what();
    shared.failed.store(true, std::memory_order_release);
  }
}

void certifierThread(std::uint32_t nodes, Listener& listener,
                     CertifierEngine& cert, Control& ctl,
                     std::atomic<bool>& allFins,
                     std::atomic<bool>& failed, std::string& errorOut) {
  try {
    std::vector<Accepted> conns;
    std::vector<std::uint32_t> connNode;  // parallel to conns; nodes_ = none
    std::vector<pollfd> pfds;
    std::vector<Frame> frames;
    const std::uint32_t kNone = ~std::uint32_t{0};

    while (!ctl.exitNow.load(std::memory_order_relaxed) &&
           !cert.allFinished()) {
      pfds.clear();
      pfds.push_back(pollfd{listener.fd(), POLLIN, 0});
      for (const Accepted& a : conns) {
        pfds.push_back(pollfd{a.conn->fd(), POLLIN, 0});
      }
      (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 2);

      for (int fd = listener.acceptOne(); fd >= 0;
           fd = listener.acceptOne()) {
        Accepted a;
        a.conn = std::make_unique<Conn>(fd);
        conns.push_back(std::move(a));
        connNode.push_back(kNone);
      }

      for (std::size_t c = 0; c < conns.size();) {
        frames.clear();
        const bool alive = conns[c].conn->readFrames(frames);
        for (const Frame& f : frames) {
          if (const auto* h = std::get_if<HelloFrame>(&f)) {
            LCDC_EXPECT(h->role == Role::Events,
                        "non-event connection at the certifier");
            LCDC_EXPECT(h->sender < nodes, "event stream from unknown node");
            connNode[c] = h->sender;
            cert.onHello(*h);
          } else if (const auto* e = std::get_if<EventFrame>(&f)) {
            LCDC_EXPECT(connNode[c] != kNone, "EVENT before HELLO");
            cert.onEvent(connNode[c], *e);
          } else if (const auto* hb = std::get_if<HeartbeatFrame>(&f)) {
            LCDC_EXPECT(connNode[c] != kNone, "HEARTBEAT before HELLO");
            cert.onHeartbeat(connNode[c], *hb);
          } else if (const auto* fin = std::get_if<FinFrame>(&f)) {
            LCDC_EXPECT(connNode[c] != kNone, "FIN before HELLO");
            cert.onFin(connNode[c], *fin);
          } else {
            throw SimError("unexpected frame kind at the certifier");
          }
        }
        if (!alive) {
          conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(c));
          connNode.erase(connNode.begin() + static_cast<std::ptrdiff_t>(c));
          continue;
        }
        ++c;
      }
    }
    if (cert.allFinished()) allFins.store(true, std::memory_order_release);
  } catch (const std::exception& e) {
    errorOut = e.what();
    failed.store(true, std::memory_order_release);
  }
}

}  // namespace

ServeResult serveMem(const ServeConfig& cfg, const MemLoadSpec& load) {
  MemHub hub(cfg, load);
  return hub.run();
}

ServeResult serveTcp(const ServeConfig& cfg,
                     const volatile std::sig_atomic_t* stop,
                     ServePorts* portsOut) {
  const std::uint64_t t0 = monotonicMs();
  const SystemConfig sys = normalized(cfg);
  const std::uint32_t n = cfg.nodes;

  // Bind every listener up front so (a) ephemeral ports are known before
  // any thread dials and (b) peers can dial in any order.
  Listener certListener(cfg.port);
  std::vector<std::unique_ptr<Listener>> nodeListeners;
  ServePorts ports;
  ports.cert = certListener.port();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t p =
        cfg.port == 0 ? std::uint16_t{0}
                      : static_cast<std::uint16_t>(cfg.port + 1 + i);
    nodeListeners.push_back(std::make_unique<Listener>(p));
    ports.node.push_back(nodeListeners.back()->port());
  }
  if (portsOut != nullptr) *portsOut = ports;
  if (cfg.portsReady != nullptr) {
    cfg.portsReady->store(true, std::memory_order_release);
  }

  CertifierEngine cert(n);
  if (cfg.archive != nullptr) cert.attachExtra(*cfg.archive);

  Control ctl;
  std::deque<NodeShared> shared(n);
  std::vector<NodeStats> nodeStats(n);
  std::vector<std::string> errors(n + 1);
  std::atomic<std::uint64_t> dialRetries{0};
  std::atomic<bool> certAllFins{false};
  std::atomic<bool> certFailed{false};

  std::vector<std::thread> threads;
  threads.emplace_back(certifierThread, n, std::ref(certListener),
                       std::ref(cert), std::ref(ctl), std::ref(certAllFins),
                       std::ref(certFailed), std::ref(errors[n]));
  for (std::uint32_t i = 0; i < n; ++i) {
    threads.emplace_back(nodeThread, i, std::cref(cfg), std::cref(sys),
                         std::cref(ports), std::ref(*nodeListeners[i]),
                         std::ref(ctl), std::ref(shared[i]),
                         std::ref(dialRetries), std::ref(nodeStats[i]),
                         std::ref(errors[i]));
  }

  const auto anyFailed = [&] {
    if (certFailed.load(std::memory_order_acquire)) return true;
    for (const NodeShared& s : shared) {
      if (s.failed.load(std::memory_order_acquire)) return true;
    }
    return false;
  };
  const auto quietAndBalanced = [&] {
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    for (const NodeShared& s : shared) {
      if (!s.quiet.load(std::memory_order_relaxed)) return false;
      sent += s.sent.load(std::memory_order_relaxed);
      recv += s.recv.load(std::memory_order_relaxed);
    }
    return sent == recv;
  };
  const auto allLoadDone = [&] {
    for (const NodeShared& s : shared) {
      if (!s.loadDone.load(std::memory_order_relaxed)) return false;
    }
    return true;
  };
  const auto sleepMs = [](std::uint64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  const auto joinAll = [&] {
    ctl.exitNow.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  };
  const auto failIfBroken = [&] {
    if (!anyFailed()) return;
    joinAll();
    std::string detail = "dsm serve failed:";
    for (const std::string& e : errors) {
      if (!e.empty()) detail += " [" + e + "]";
    }
    throw SimError(detail);
  };

  // Serve until the session completes (--once), SIGINT, or a failure.
  for (;;) {
    sleepMs(5);
    failIfBroken();
    // The flag may be set from another thread, not only from a signal
    // handler on this one, so it is read as a (relaxed) atomic.
    if (stop != nullptr && __atomic_load_n(stop, __ATOMIC_RELAXED) != 0) {
      break;
    }
    if (cfg.once && allLoadDone() && quietAndBalanced()) {
      sleepMs(10);
      if (allLoadDone() && quietAndBalanced()) break;  // stable sample
    }
  }

  // Graceful shutdown: drop queued work, drain, FIN, certify.
  ServeResult r;
  ctl.stopNewWork.store(true, std::memory_order_release);
  const std::uint64_t drainStart = monotonicMs();
  while (!quietAndBalanced()) {
    failIfBroken();
    if (monotonicMs() - drainStart > cfg.drainTimeoutMs) {
      r.drained = false;  // verdict may contain shutdown artifacts
      break;
    }
    sleepMs(5);
  }
  if (quietAndBalanced()) {
    sleepMs(10);
    if (!quietAndBalanced()) r.drained = false;
  }
  ctl.sendFin.store(true, std::memory_order_release);
  if (!r.drained) ctl.forceFin.store(true, std::memory_order_release);
  const std::uint64_t finStart = monotonicMs();
  for (;;) {
    failIfBroken();
    bool all = true;
    for (const NodeShared& s : shared) {
      if (!s.finSent.load(std::memory_order_acquire)) all = false;
    }
    if (all) break;
    if (monotonicMs() - finStart > cfg.drainTimeoutMs) {
      ctl.forceFin.store(true, std::memory_order_release);
      r.drained = false;
    }
    sleepMs(2);
  }
  const std::uint64_t certStart = monotonicMs();
  while (!certAllFins.load(std::memory_order_acquire)) {
    failIfBroken();
    if (monotonicMs() - certStart > 30'000) {
      joinAll();
      throw SimError("certifier did not receive every FIN");
    }
    sleepMs(2);
  }
  joinAll();
  failIfBroken();

  r.nodeStats = std::move(nodeStats);
  for (const NodeStats& s : r.nodeStats) r.opsBound += s.opsBound;
  r.report = cert.finish(r.opsBound);
  r.certStats = cert.stats();
  r.dialRetries = dialRetries.load(std::memory_order_relaxed);
  r.seconds = static_cast<double>(monotonicMs() - t0) / 1000.0;
  return r;
}

}  // namespace lcdc::dsm
