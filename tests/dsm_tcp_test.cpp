// The real TCP serving runtime, in-process: serveTcp on ephemeral
// loopback ports (one thread per node + certifier), driven by runLoad on
// another thread — the full `lcdc serve` / `lcdc load` pair minus the
// process boundary.  Checks the end-to-end contract: a completed load
// session with a clean live verdict, conservation between what the nodes
// shipped and what the certifier merged, and the SIGINT path draining to
// an honest final verdict.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "common/expect.hpp"
#include "dsm/load.hpp"
#include "dsm/serve.hpp"

namespace lcdc {
namespace {

/// Spin until serveTcp publishes its bound ephemeral ports.  Throws (so
/// the caller's catch still stops the serve and joins) on timeout.
void awaitPorts(const std::atomic<bool>& ready) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (ready.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw SimError("serve did not publish its ports");
}

dsm::ServeConfig tcpConfig(std::uint32_t nodes) {
  dsm::ServeConfig cfg;
  cfg.nodes = nodes;
  cfg.system.numBlocks = 16;
  cfg.system.seed = 3;
  cfg.port = 0;  // ephemeral everywhere
  cfg.once = true;
  return cfg;
}

TEST(ServeTcp, ThreeNodeServeWithLoadCertifiesClean) {
  std::atomic<bool> portsReady{false};
  dsm::ServeConfig cfg = tcpConfig(3);
  cfg.portsReady = &portsReady;
  static volatile std::sig_atomic_t stop = 0;
  stop = 0;
  dsm::ServePorts ports;
  dsm::ServeResult serveResult;
  std::thread server([&] { serveResult = dsm::serveTcp(cfg, &stop, &ports); });

  dsm::LoadResult loadResult;
  std::string loadError;
  try {
    awaitPorts(portsReady);
    LCDC_EXPECT(ports.node.size() == 3, "expected three node ports");
    dsm::LoadConfig load;
    load.nodePorts = ports.node;
    load.totalOps = 9'000;
    load.clients = 2;
    load.kind = workload::Kind::Hot;
    load.seed = 21;
    load.chunkSteps = 512;
    loadResult = dsm::runLoad(load);
  } catch (const std::exception& e) {
    loadError = e.what();
    stop = 1;  // --once alone would wait forever for a load session
  }
  server.join();
  ASSERT_TRUE(loadError.empty()) << loadError;

  EXPECT_TRUE(serveResult.ok()) << serveResult.report.summary();
  EXPECT_TRUE(serveResult.drained);
  EXPECT_EQ(loadResult.nodes, 3u);
  EXPECT_EQ(serveResult.opsBound, loadResult.opsBound)
      << "serve and load disagree on the bound-operation count";
  EXPECT_GT(loadResult.chunksDone, 3u);
  std::uint64_t emitted = 0;
  for (const dsm::NodeStats& s : serveResult.nodeStats) {
    emitted += s.eventsEmitted;
  }
  EXPECT_EQ(serveResult.certStats.eventsMerged, emitted)
      << "certifier lost or duplicated events crossing the wire";
}

TEST(ServeTcp, SigintStopDrainsToCleanVerdict) {
  // No load at all: stop a freshly started serve via the sig_atomic_t
  // flag.  The shutdown path must still FIN every stream and produce a
  // clean (trivially empty) drained verdict.
  dsm::ServeConfig cfg = tcpConfig(2);
  cfg.once = false;
  static volatile std::sig_atomic_t stop = 0;
  stop = 0;
  dsm::ServePorts ports;
  dsm::ServeResult r;
  std::thread server([&] { r = dsm::serveTcp(cfg, &stop, &ports); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  __atomic_store_n(&stop, 1, __ATOMIC_RELAXED);  // serveTcp reads it atomically
  server.join();
  EXPECT_TRUE(r.ok()) << r.report.summary();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.certStats.eventsMerged, 0u);
}

}  // namespace
}  // namespace lcdc
