// Exact heap-allocation counting, as bench/sim_throughput does it: global
// operator new is replaced for the whole binary.  Counting is switched on
// only for traced phases, so untraced timing pays one relaxed load.
#include <atomic>
#include <cstdlib>
#include <new>

#include "suite.hpp"

namespace {
std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lcdc::bench_suite {

void startAllocCounting() {
  gAllocs.store(0, std::memory_order_relaxed);
  gCounting.store(true, std::memory_order_seq_cst);
}

std::uint64_t stopAllocCounting() {
  gCounting.store(false, std::memory_order_seq_cst);
  return gAllocs.load(std::memory_order_relaxed);
}

}  // namespace lcdc::bench_suite
