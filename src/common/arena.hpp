// Bump allocation for the model checker's hot path.
//
// The explorer allocates two kinds of short-lived-or-append-only byte
// blobs at very high rate: canonical state encodings (append-only, live
// until exploration ends) and serialized frontier worlds (live for exactly
// one BFS wave).  Going through malloc for each would cost a lock + ~16
// bytes of header per blob; instead an `Arena` hands out large blocks
// under a mutex (rare) and each worker bumps a thread-private cursor
// through its current block (`ArenaRef`, lock-free).
//
// Contract:
//   * `ArenaRef::alloc` is unsynchronized and must only be used from one
//     thread at a time (the explorer creates one per frontier chunk).
//   * Blobs are raw bytes with no alignment guarantee — callers store
//     byte streams, not objects.
//   * `reset()` frees every block; all pointers previously handed out
//     become invalid.  The caller must quiesce all ArenaRefs first (the
//     explorer resets only at wave boundaries).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace lcdc {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 20;

  explicit Arena(std::size_t blockBytes = kDefaultBlockBytes)
      : blockBytes_(blockBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Hand out a fresh block of at least `atLeast` bytes; `usable` reports
  /// the block's actual size.  Thread-safe (one mutex acquisition per
  /// block, i.e. per ~1 MiB of blob data, not per blob).
  std::byte* grabBlock(std::size_t atLeast, std::size_t& usable) {
    const std::size_t size = atLeast > blockBytes_ ? atLeast : blockBytes_;
    auto block = std::make_unique<std::byte[]>(size);
    std::byte* p = block.get();
    {
      const std::lock_guard<std::mutex> lk(mu_);
      blocks_.push_back(std::move(block));
    }
    bytesReserved_.fetch_add(size, std::memory_order_relaxed);
    usable = size;
    return p;
  }

  /// Free every block.  All outstanding pointers become dangling; callers
  /// must have dropped their ArenaRefs.
  void reset() {
    std::vector<std::unique_ptr<std::byte[]>> gone;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      gone.swap(blocks_);
    }
    bytesReserved_.store(0, std::memory_order_relaxed);
  }

  /// Total bytes of blocks currently held (reserved, not necessarily
  /// bump-allocated yet) — the number the --mem-limit-mb accounting sums.
  [[nodiscard]] std::size_t bytesReserved() const {
    return bytesReserved_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t blockBytes_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::atomic<std::size_t> bytesReserved_{0};
};

/// A single-threaded bump cursor over blocks grabbed from a shared Arena.
class ArenaRef {
 public:
  explicit ArenaRef(Arena& arena) : arena_(&arena) {}

  /// Would `alloc(n)` continue the current block (rather than grab one)?
  [[nodiscard]] bool fits(std::size_t n) const { return n <= left_; }

  std::byte* alloc(std::size_t n) {
    if (n > left_) {
      std::size_t usable = 0;
      cur_ = arena_->grabBlock(n, usable);
      left_ = usable;
    }
    std::byte* p = cur_;
    cur_ += n;
    left_ -= n;
    return p;
  }

 private:
  Arena* arena_;
  std::byte* cur_ = nullptr;
  std::size_t left_ = 0;
};

}  // namespace lcdc
