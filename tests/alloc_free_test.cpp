// The zero-allocation contract of the simulate-and-verify hot path.
//
// A campaign worker reuses one System and one StreamCheckerSet across
// sub-runs (System::reset), and from the second run on the whole event
// path — message fields, the network's key heap and envelope slots, the
// checkers' pooled containers and merge queues — must stay off the heap.
// This binary replaces global operator new to count heap allocations
// exactly, so the ceiling is the same on every machine, and reads the
// count only around System::run: setting programs, reset and finish() are
// outside the contract.  The first rep is a warm-up that grows pools and
// slabs to their high-water marks; every later rep must allocate
// nothing.  Each workload runs under both timed schedules: random latency
// and PCT (the schedule every campaign case runs on), which share the
// network's one key heap.
//
// 40,000 ops per processor over 8 reps is the size at which the SC merge
// queue's deque map used to be reallocated on some hot reps (EXPERIMENTS.md
// S13); smaller runs never reached it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "backend/backend.hpp"
#include "sim/system.hpp"
#include "verify/stream.hpp"
#include "workload/generators.hpp"

namespace {
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

void* operator new(std::size_t n) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lcdc {
namespace {

constexpr std::uint64_t kOpsPerProcessor = 40'000;
constexpr int kReps = 8;

/// The steady-state shape of the campaign's unit of work: 8 processors,
/// 4 directories, 64 blocks, 4-line caches, latency 1..40.
SystemConfig hotPathConfig() {
  SystemConfig sys;
  sys.numProcessors = 8;
  sys.numDirectories = 4;
  sys.numBlocks = 64;
  sys.cacheCapacity = 4;
  sys.minLatency = 1;
  sys.maxLatency = 40;
  sys.seed = 0xBE1ULL;
  return sys;
}

void expectSteadyRepsAllocFree(workload::Kind kind, net::Network::Mode mode) {
  SCOPED_TRACE(mode == net::Network::Mode::Pct ? "pct" : "random latency");
  const SystemConfig sys = hotPathConfig();
  workload::WorkloadConfig w;
  w.numProcessors = sys.numProcessors;
  w.numBlocks = sys.numBlocks;
  w.wordsPerBlock = sys.proto.wordsPerBlock;
  w.opsPerProcessor = kOpsPerProcessor;
  w.storePercent = 35;
  w.evictPercent = 6;
  w.seed = 0xB0B1ULL;
  const auto programs = workload::make(kind, w);

  verify::StreamCheckerSet checkers(proto::verifyConfigFor(sys));
  proto::TeeSink tee{&checkers};
  sim::System system(sys, tee, mode);
  for (int rep = 0; rep < kReps; ++rep) {
    system.reset(sys.seed);
    checkers.reset(proto::verifyConfigFor(sys));
    for (NodeId p = 0; p < sys.numProcessors; ++p) {
      system.setProgram(p, programs[p]);
    }
    const std::uint64_t before = gAllocs.load(std::memory_order_relaxed);
    const sim::RunResult r = system.run();
    const std::uint64_t allocs =
        gAllocs.load(std::memory_order_relaxed) - before;
    checkers.finish();
    ASSERT_TRUE(r.ok()) << toString(r.outcome) << ": " << r.detail;
    EXPECT_TRUE(checkers.report().ok()) << checkers.report().summary();
    if (rep > 0) {
      EXPECT_EQ(allocs, 0u) << workload::toString(kind) << " rep " << rep
                            << " allocated during System::run ("
                            << r.eventsProcessed << " events)";
    }
  }
}

void expectSteadyRepsAllocFree(workload::Kind kind) {
  expectSteadyRepsAllocFree(kind, net::Network::Mode::RandomLatency);
  expectSteadyRepsAllocFree(kind, net::Network::Mode::Pct);
}

TEST(AllocFree, HotSteadyRepsAllocateNothing) {
  expectSteadyRepsAllocFree(workload::Kind::Hot);
}

TEST(AllocFree, UniformSteadyRepsAllocateNothing) {
  expectSteadyRepsAllocFree(workload::Kind::Uniform);
}

TEST(AllocFree, MigratorySteadyRepsAllocateNothing) {
  expectSteadyRepsAllocFree(workload::Kind::Migratory);
}

}  // namespace
}  // namespace lcdc
