#include "mc/model_checker.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <type_traits>

#include "common/arena.hpp"
#include "common/expect.hpp"
#include "common/flat_set.hpp"
#include "common/thread_pool.hpp"
#include "mc/dir_model.hpp"
#include "mc/spill.hpp"
#include "mc/tardis_model.hpp"

namespace lcdc::mc {

// -- packed parent edges -----------------------------------------------------
//
// 4-byte parent id + the action in one 64-bit word: kind(2) |
// flightIndex(16) | dst(8) | msgType bits 0-3 (4) | proc(8) | block(16) |
// req(2) | msgType bit 4 (1).  The fifth type bit sits in the word's top
// byte, so words packed before it existed (types below 16) decode
// unchanged.  Node ids use 255 as the "no node" code; the explored
// configurations are orders of magnitude below every field's range
// (asserted on pack).

static_assert(proto::kNumMsgTypes <= 32, "packed actions hold 5 type bits");

std::uint64_t packAction(const Action& a) {
  const auto node8 = [](NodeId n) -> std::uint64_t {
    if (n == kNoNode) return 0xFF;
    LCDC_EXPECT(n < 0xFF, "node id exceeds packed-action range");
    return n;
  };
  LCDC_EXPECT(a.flightIndex < 0xFFFF, "flight index exceeds packed range");
  LCDC_EXPECT(a.block < 0xFFFF, "block id exceeds packed range");
  const auto type = static_cast<std::uint64_t>(a.msgType);
  return static_cast<std::uint64_t>(a.kind) |
         (static_cast<std::uint64_t>(a.flightIndex) << 2) |
         (node8(a.dst) << 18) | ((type & 0xF) << 26) |
         (node8(a.proc) << 30) |
         (static_cast<std::uint64_t>(a.block) << 38) |
         (static_cast<std::uint64_t>(a.req) << 54) | ((type >> 4) << 56);
}

Action unpackAction(std::uint64_t v) {
  const auto node = [](std::uint64_t b) -> NodeId {
    return b == 0xFF ? kNoNode : static_cast<NodeId>(b);
  };
  Action a;
  a.kind = static_cast<Action::Kind>(v & 0x3);
  a.flightIndex = static_cast<std::uint32_t>((v >> 2) & 0xFFFF);
  a.dst = node((v >> 18) & 0xFF);
  a.msgType = static_cast<proto::MsgType>(((v >> 26) & 0xF) |
                                          (((v >> 56) & 0x1) << 4));
  a.proc = node((v >> 30) & 0xFF);
  a.block = static_cast<BlockId>((v >> 38) & 0xFFFF);
  a.req = static_cast<ReqType>((v >> 54) & 0x3);
  return a;
}

namespace {

// -- paged per-id storage ----------------------------------------------------
//
// Per-id data lives in fixed pages that are appended only at wave
// boundaries (single-threaded) and never moved or copied, so workers write
// the slots of freshly claimed ids without locks.  Pages are allocated
// uninitialized, so resident memory follows the ids actually assigned, not
// the successor bound a wave reserved them for.

template <typename T>
class IdPages {
  static_assert(std::is_trivially_default_constructible_v<T>);

 public:
  /// Small pages keep each boundary's growth step small next to tight
  /// `--mem-limit-mb` budgets (96 KiB per page of 24-byte records).
  static constexpr std::size_t kIdsPerPage = 4096;

  /// Single-threaded: make every id below `ids` addressable.
  void growTo(std::size_t ids) {
    while (capacity() < ids) {
      pages_.push_back(std::make_unique_for_overwrite<T[]>(kIdsPerPage));
    }
  }

  [[nodiscard]] std::size_t capacity() const {
    return pages_.size() * kIdsPerPage;
  }

  /// Page bytes once every id below `ids` is addressable.
  [[nodiscard]] std::uint64_t bytesFor(std::size_t ids) const {
    const std::size_t pages =
        std::max(pages_.size(), (ids + kIdsPerPage - 1) / kIdsPerPage);
    return static_cast<std::uint64_t>(pages) * kIdsPerPage * sizeof(T);
  }

  T& operator[](std::size_t id) {
    return pages_[id / kIdsPerPage][id % kIdsPerPage];
  }
  const T& operator[](std::size_t id) const {
    return pages_[id / kIdsPerPage][id % kIdsPerPage];
  }

 private:
  std::vector<std::unique_ptr<T[]>> pages_;
};

/// Exact mode's record of a visited state: where its canonical encoding
/// lives (in the encoding arena) and its packed parent edge.  Trivially
/// constructible, so nothing writes a page before an id lands in it.
struct IdRecord {
  const std::byte* enc;
  std::uint32_t len;
  std::uint32_t parent;
  std::uint64_t action;
};
static_assert(sizeof(IdRecord) == 24);

/// Optional steady-clock span accumulator (perf timing is opt-in).
class ScopedNanos {
 public:
  ScopedNanos(std::uint64_t& dst, bool enabled)
      : dst_(dst), enabled_(enabled) {
    if (enabled_) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedNanos() {
    if (enabled_) {
      dst_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count());
    }
  }

 private:
  std::uint64_t& dst_;
  bool enabled_;
  std::chrono::steady_clock::time_point t0_;
};

// -- the wave-parallel explorer ----------------------------------------------

/// The wave engine over one protocol model (DESIGN.md §8).  `Model`
/// supplies the world type, its successor actions and their application,
/// the per-state checks, and the canonical key and frontier blob codecs;
/// everything else — visited modes, spill, checkpoints, caps, parent
/// edges — is shared.
template <typename Model>
class ParallelExplorer {
  using World = typename Model::World;

 public:
  explicit ParallelExplorer(const McConfig& cfg)
      : cfg_(cfg),
        mode_(cfg.visited),
        digest_(configDigest(cfg)),
        model_(cfg_, txns_),
        visited_(1u << 16, cfg.visited == VisitedMode::Compact
                               ? FlatFingerprintSet::Mode::Compact
                               : FlatFingerprintSet::Mode::Exact) {
    // `--checkpoint` (and `--resume`, which keeps checkpointing in
    // place) implies spilling the frontier into the checkpoint dir so
    // the manifest's segment list is self-contained.
    checkpointing_ = !cfg_.checkpointDir.empty() || !cfg_.resumeDir.empty();
    ckptDir_ =
        !cfg_.checkpointDir.empty() ? cfg_.checkpointDir : cfg_.resumeDir;
    spillPath_ = checkpointing_ ? ckptDir_ : cfg_.spillDir;
    spill_ = !spillPath_.empty();
    // A resumed run needs its directory to exist already (the manifest
    // is read from it), so only a fresh run creates one.
    if (spill_ && cfg_.resumeDir.empty()) {
      if (::mkdir(spillPath_.c_str(), 0777) != 0 && errno != EEXIST) {
        throw SimError("cannot create spill directory '" + spillPath_ +
                       "': " + std::strerror(errno));
      }
    }
    if (mode_ == VisitedMode::Bitstate) {
      bloom_ = std::make_unique<BitstateFilter>(
          std::max<std::uint64_t>(1, cfg_.bitstateMb));
      waveClaim_ = std::make_unique<FlatFingerprintSet>(
          1u << 16, FlatFingerprintSet::Mode::Compact);
    }
  }

  McResult run();

 private:
  /// A deserialized frontier state under expansion.
  struct Node {
    World w;
    std::uint32_t id = 0;
    std::uint32_t bound = 0;
  };

  /// Seed of a counterexample: the leaf state plus (for violations thrown
  /// while generating successors) the action that triggered the throw.
  struct CexSeed {
    std::uint32_t leaf = 0;
    std::optional<Action> extra;
    std::string kind;
    std::string detail;
  };

  /// Chunk-local expansion output; merged at the wave barrier in chunk
  /// order so every result field is independent of worker scheduling.
  /// Successor records go through `writer` into sealed segments (`segs`,
  /// files named after `segBase` when spilling); the in-order
  /// concatenation of `segs` across chunks is the next wave.
  struct ChunkOut {
    std::string segBase;
    std::unique_ptr<SegmentWriter> writer;
    std::vector<SegmentInfo> segs;
    std::vector<std::string> violations;
    std::uint64_t transitions = 0;
    std::uint64_t ampleStates = 0;
    bool deadlock = false;
    std::optional<CexSeed> cex;
    McPerfCounters perf;
    /// First exception raised inside the chunk (SimError from a corrupt
    /// spill file, the 2^32-id guard, ...), rethrown at the barrier so
    /// failures surface as exceptions instead of terminating a worker.
    std::exception_ptr error;
    /// An id or claim went past what the wave's bounds allow (see
    /// kNoIdSlot); the set's id-space error is then reported as the bound
    /// overrun it is.
    bool boundOverrun = false;
  };

  /// Per-worker state: codecs, bump cursors into the shared arenas (the
  /// next wave's segments are bumped through `nextRef`), and reused
  /// scratch buffers.  Strictly single-threaded while checked out.
  /// Contexts are pooled and reused across chunks and waves — a fresh
  /// context per chunk would abandon the tail of its current arena block
  /// every chunk, and for the persistent encoding arena that waste
  /// accumulates for the whole run (~1 MiB per chunk).  Pooling bounds
  /// the abandonment to at most one partial block per live context.
  struct WorkerCtx {
    WorkerCtx(const McConfig& cfg, proto::TxnCounter& txns, Arena& encArena,
              bool timingOn)
        : m(cfg, txns),
          encRef(encArena),
          nextRef(encArena),  // rebound to the next wave's arena on checkout
          timing(timingOn) {}

    typename Model::Ctx m;  ///< the model's codecs and scratch
    ArenaRef encRef;
    ArenaRef nextRef;
    std::uint64_t waveEpoch = ~std::uint64_t{0};
    bool timing;
    std::vector<std::byte> enc;      ///< canonical-encoding scratch
    std::vector<std::byte> candEnc;  ///< a POR candidate's encoding
    std::vector<std::byte> blob;     ///< world-blob scratch
  };

  /// Check a context out of the pool, rebinding its frontier-blob cursor
  /// when the wave (and thus the target ping-pong arena) changed since its
  /// last use.  A wave with C chunks touches at most min(C, jobs)
  /// contexts, so the pool never exceeds the worker count.
  std::unique_ptr<WorkerCtx> acquireCtx(std::uint64_t epoch,
                                        Arena& nextArena) {
    std::unique_ptr<WorkerCtx> ctx;
    {
      const std::lock_guard<std::mutex> lk(ctxMu_);
      if (!ctxPool_.empty()) {
        ctx = std::move(ctxPool_.back());
        ctxPool_.pop_back();
      }
    }
    if (!ctx) {
      ctx = std::make_unique<WorkerCtx>(cfg_, txns_, encArena_, cfg_.perf);
    }
    if (ctx->waveEpoch != epoch) {
      ctx->nextRef = ArenaRef(nextArena);
      ctx->waveEpoch = epoch;
    }
    return ctx;
  }

  void releaseCtx(std::unique_ptr<WorkerCtx> ctx) {
    const std::lock_guard<std::mutex> lk(ctxMu_);
    ctxPool_.push_back(std::move(ctx));
  }

  static constexpr std::uint32_t kNoParent = 0xFFFFFFFEu;

  /// Grow the per-id pages (single-threaded, wave boundary only) so every
  /// id this wave can assign has a slot; workers then write their freshly
  /// claimed slots without further synchronization.  Exact mode keeps an
  /// `IdRecord` per id; compact mode keeps only the per-id fingerprint,
  /// and only while checkpointing (the visited log needs fingerprints in
  /// id order); bitstate keeps nothing per id.
  void growIdPages(std::size_t needed) {
    if (mode_ == VisitedMode::Exact) {
      records_.growTo(needed);
    } else if (mode_ == VisitedMode::Compact && checkpointing_) {
      fpsById_.growTo(needed);
    }
  }

  /// Bytes of the per-id pages once they address `ids` ids.
  [[nodiscard]] std::uint64_t idPageBytes(std::size_t ids) const {
    if (mode_ == VisitedMode::Exact) return records_.bytesFor(ids);
    if (mode_ == VisitedMode::Compact && checkpointing_) {
      return fpsById_.bytesFor(ids);
    }
    return 0;
  }

  [[nodiscard]] bool encEquals(std::uint32_t payload,
                               const std::vector<std::byte>& enc) const {
    // The placeholder a refused insert publishes (kNoIdSlot) names no
    // record; a concurrent prober of that slot just keeps probing.
    if (payload >= records_.capacity()) return false;
    const IdRecord& r = records_[payload];
    return r.len == enc.size() &&
           std::memcmp(r.enc, enc.data(), r.len) == 0;
  }

  /// An id past the pages grown for this wave, or a bitstate claim past
  /// the size the claim table was reserved for (an understated successor
  /// bound; only a corrupt checkpoint can carry one), is never granted.
  /// `assign` hands the set an out-of-range payload instead, and the set
  /// publishes a placeholder before throwing SimError, so concurrent
  /// probers of the slot never spin on an unpublished payload.
  static constexpr std::uint32_t kNoIdSlot =
      FlatFingerprintSet::kPendingPayload;

  /// Insert a state already canonically encoded in `enc`; on winning,
  /// remember it according to the visited mode and, unless this is the
  /// terminal wave, append the world's frontier record to the chunk's
  /// segments.
  void recordEncoded(const World& s, std::uint32_t parent, const Action& a,
                     WorkerCtx& ctx, ChunkOut& out) {
    const std::uint64_t fp =
        fingerprintHash(ctx.enc.data(), ctx.enc.size());
    out.perf.insertCalls += 1;
    bool fresh = false;
    std::uint32_t id = 0;
    {
      ScopedNanos t(out.perf.insertNanos, ctx.timing);
      if (mode_ == VisitedMode::Exact) {
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp,
            [&](std::uint32_t payload) { return encEquals(payload, ctx.enc); },
            [&]() {
              const std::uint32_t nid =
                  nextId_.fetch_add(1, std::memory_order_relaxed);
              if (nid >= records_.capacity()) {
                out.boundOverrun = true;
                return kNoIdSlot;
              }
              std::byte* p = ctx.encRef.alloc(ctx.enc.size());
              std::memcpy(p, ctx.enc.data(), ctx.enc.size());
              records_[nid] =
                  IdRecord{p, static_cast<std::uint32_t>(ctx.enc.size()),
                           parent, packAction(a)};
              return nid;
            });
        out.perf.noteProbes(res.probes);
        fresh = res.inserted;
        id = res.payload;
      } else if (mode_ == VisitedMode::Compact) {
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp, [](std::uint32_t) { return true; },  // never called (Compact)
            [&]() {
              const std::uint32_t nid =
                  nextId_.fetch_add(1, std::memory_order_relaxed);
              if (checkpointing_) {
                if (nid >= fpsById_.capacity()) {
                  out.boundOverrun = true;
                  return kNoIdSlot;
                }
                fpsById_[nid] = fp;
              }
              return nid;
            });
        out.perf.noteProbes(res.probes);
        fresh = res.inserted;
        id = res.payload;
      } else {
        // Bitstate: membership against the wave-start Bloom snapshot
        // (bits are published only at the barrier, so the answer never
        // depends on in-wave interleaving); in-wave newness arbitrated
        // by the per-wave claim table, which is what keeps counts
        // jobs-independent even for this lossy mode.
        if (bloom_->testAll(fp)) {
          out.perf.noteProbes(0);
        } else {
          const FlatFingerprintSet::InsertResult res = waveClaim_->insert(
              fp, [](std::uint32_t) { return true; },
              [&]() {
                const std::uint32_t claim =
                    claimNext_.fetch_add(1, std::memory_order_relaxed);
                if (claim >= claimLimit_) {
                  out.boundOverrun = true;
                  return kNoIdSlot;
                }
                return claim;
              });
          out.perf.noteProbes(res.probes);
          fresh = res.inserted;
        }
      }
    }
    if (!fresh) return;
    out.perf.storedStates += 1;
    out.perf.storedEncodingBytes += ctx.enc.size();
    if (!keepSuccessors_) return;  // terminal wave: nothing loads the world
    const std::uint32_t bound = successorBound(s);
    {
      ScopedNanos t(out.perf.worldSaveNanos, ctx.timing);
      model_.save(ctx.m, s, ctx.blob);
    }
    out.writer->add(id, bound, ctx.blob.data(), ctx.blob.size());
  }

  void record(const World& s, std::uint32_t parent, const Action& a,
              WorkerCtx& ctx, ChunkOut& out) {
    out.perf.encodeCalls += 1;
    {
      ScopedNanos t(out.perf.encodeNanos, ctx.timing);
      model_.encode(ctx.m, s, ctx.enc);
    }
    recordEncoded(s, parent, a, ctx, out);
  }

  /// Was this canonical encoding inserted in a wave *before* the current
  /// one?  The POR proviso consults this frozen horizon (`idWatermark_`:
  /// ids are allocated monotonically, so "id < watermark" ⇔ "discovered
  /// before this wave began") instead of the live set, keeping the ample
  /// decision a pure function of the per-wave state sets, not of worker
  /// timing.
  [[nodiscard]] bool visitedBeforeWave(const std::vector<std::byte>& enc) {
    const std::uint64_t fp = fingerprintHash(enc.data(), enc.size());
    const auto found = visited_.find(
        fp, [&](std::uint32_t payload) { return encEquals(payload, enc); });
    return found.has_value() && *found < idWatermark_;
  }

  Schedule reconstructSchedule(const CexSeed& seed) {
    Schedule rev;
    std::uint32_t cur = seed.leaf;
    while (records_[cur].parent != kNoParent) {
      rev.push_back(unpackAction(records_[cur].action));
      cur = records_[cur].parent;
    }
    std::reverse(rev.begin(), rev.end());
    if (seed.extra) rev.push_back(*seed.extra);
    return rev;
  }

  void noteCex(ChunkOut& out, std::uint32_t leaf, std::optional<Action> extra,
               std::string kind, std::string detail) {
    if (out.cex) return;
    out.cex = CexSeed{leaf, std::move(extra), std::move(kind),
                      std::move(detail)};
  }

  /// Run the model's per-state checks and record what they find.
  /// Returns true when this state itself violated an invariant (its
  /// successors are then not generated).
  bool checkState(const Node& n, ChunkOut& out) {
    return model_.check(n.w, [&](bool deadlock, std::string detail) {
      if (deadlock) {
        out.deadlock = true;
      } else {
        out.violations.push_back(detail);
      }
      noteCex(out, n.id, std::nullopt, deadlock ? "deadlock" : "violation",
              std::move(detail));
    });
  }

  /// The POR safety test's control projection: do caches `a` and `b`
  /// agree on everything the protocol branches on (line presence, states,
  /// MSHR request/phase/txn, pending forward, buffered messages, drop
  /// bookkeeping)?  Pure-accounting fields (ack sets, stamps, data
  /// payloads) are left out: their updates commute.
  bool sameControl(const proto::CacheController& a,
                   const proto::CacheController& b) const {
    const auto sameMsg = [](const proto::Message& x, const proto::Message& y) {
      return x.type == y.type && x.requester == y.requester && x.txn == y.txn;
    };
    for (BlockId blk = 0; blk < cfg_.numBlocks; ++blk) {
      const proto::Line* x = a.findLine(blk);
      const proto::Line* y = b.findLine(blk);
      if (x == nullptr || y == nullptr) {
        if (x != y) return false;
        continue;
      }
      if (x->cstate != y->cstate || x->astate != y->astate ||
          x->ignoreFwdTxn != y->ignoreFwdTxn ||
          x->dropInvTxn != y->dropInvTxn ||
          x->mshr.has_value() != y->mshr.has_value()) {
        return false;
      }
      if (!x->mshr) continue;
      const proto::Mshr& m = *x->mshr;
      const proto::Mshr& o = *y->mshr;
      if (m.req != o.req || m.replySeen != o.replySeen ||
          m.invListKnown != o.invListKnown || m.txn != o.txn ||
          m.pendingFwd.has_value() != o.pendingFwd.has_value() ||
          (m.pendingFwd && !sameMsg(*m.pendingFwd, *o.pendingFwd)) ||
          !std::equal(m.buffered.begin(), m.buffered.end(),
                      o.buffered.begin(), o.buffered.end(), sameMsg)) {
        return false;
      }
    }
    return true;
  }

  /// Ample-set attempt: find a "safe" delivery — destined to a cache, the
  /// only in-flight message for that (cache, block), raising no error,
  /// emitting nothing, and leaving the cache's control projection
  /// untouched — and expand only it.  A candidate whose successor was
  /// already visited in an earlier wave is passed over (the proviso that
  /// defeats the ignoring problem); of the rest, the one with the
  /// bytewise-least canonical encoding wins, the lowest flight index on a
  /// tie, so the choice is a function of the state alone.  With no
  /// eligible candidate the caller falls back to full expansion.
  bool expandAmple(const Node& n, WorkerCtx& ctx, ChunkOut& out) {
    const World& w = n.w;
    std::optional<World> best;
    std::size_t bestIdx = 0;
    for (std::size_t i = 0; i < w.flight.size(); ++i) {
      const Flight& f = w.flight[i];
      if (f.dst >= cfg_.numProcessors) continue;
      bool exclusive = true;
      for (std::size_t j = 0; j < w.flight.size(); ++j) {
        if (j != i && w.flight[j].dst == f.dst &&
            w.flight[j].msg.block == f.msg.block) {
          exclusive = false;
          break;
        }
      }
      if (!exclusive) continue;
      World s = w;
      s.flight.erase(s.flight.begin() + static_cast<std::ptrdiff_t>(i));
      proto::Outbox ob;
      try {
        s.caches[f.dst].handle(f.msg, ob);
      } catch (const ProtocolError&) {
        continue;  // not safe: full expansion will surface the violation
      }
      if (!ob.msgs.empty() || !sameControl(w.caches[f.dst], s.caches[f.dst])) {
        continue;
      }
      out.perf.encodeCalls += 1;
      {
        ScopedNanos t(out.perf.encodeNanos, ctx.timing);
        model_.encode(ctx.m, s, ctx.candEnc);
      }
      if (visitedBeforeWave(ctx.candEnc)) continue;
      if (!best || ctx.candEnc < ctx.enc) {
        best = std::move(s);
        bestIdx = i;
        ctx.enc.swap(ctx.candEnc);
      }
    }
    if (!best) return false;
    const Flight& f = w.flight[bestIdx];
    Action a;
    a.kind = Action::Kind::Deliver;
    a.flightIndex = static_cast<std::uint32_t>(bestIdx);
    a.dst = f.dst;
    a.msgType = f.msg.type;
    a.block = f.msg.block;
    out.transitions += 1;
    recordEncoded(*best, n.id, a, ctx, out);
    return true;
  }

  /// The exact number of successors a full expansion of `w` generates.
  [[nodiscard]] std::uint32_t successorBound(const World& w) const {
    std::uint32_t n = 0;
    model_.forEachAction(w, [&](const Action&) { n += 1; });
    return n;
  }

  /// Apply one enumerated action to a copy of `w` and record the
  /// successor (an action that raises a protocol violation is counted as
  /// a transition but records nothing).
  void applyAction(const World& w, const Action& a, std::uint32_t parent,
                   WorkerCtx& ctx, ChunkOut& out) {
    World s = w;
    out.transitions += 1;
    try {
      model_.apply(s, a);
    } catch (const ProtocolError& e) {
      const std::string v = std::string("protocol invariant: ") + e.what();
      out.violations.push_back(v);
      noteCex(out, parent, a, "violation", v);
      return;
    }
    record(s, parent, a, ctx, out);
  }

  void expandState(const Node& n, WorkerCtx& ctx, ChunkOut& out) {
    if constexpr (Model::kReductions) {
      if (cfg_.por && expandAmple(n, ctx, out)) {
        out.ampleStates += 1;
        return;
      }
    }
    const std::uint64_t before = out.transitions;
    model_.forEachAction(n.w, [&](const Action& a) {
      applyAction(n.w, a, n.id, ctx, out);
    });
    // The stored bound sized this wave's visited table and id pages; a
    // full expansion that generated anything else would outrun them.
    LCDC_EXPECT(out.transitions - before == n.bound,
                "full expansion disagrees with the stored successor bound");
  }

  /// A record read back from a file is input: its successor bound must
  /// describe its world, and its id name a stored state, before the
  /// expansion invariant and the capped-wave order may rely on them.
  void checkFileRecord(const World& w, const FrontierRecord& r) const {
    if (successorBound(w) != r.bound ||
        (mode_ == VisitedMode::Exact &&
         r.id >= nextId_.load(std::memory_order_relaxed))) {
      throw SimError(
          "spill record disagrees with its world or the visited set "
          "(corrupt segment)");
    }
  }

  /// The segments one chunk writes: files under the spill directory, or
  /// runs of the next wave's arena bumped through the worker's cursor.
  [[nodiscard]] std::unique_ptr<SegmentWriter> makeWriter(
      const std::string& segBase, ArenaRef& arena) const {
    if (spill_) return std::make_unique<SegmentWriter>(segBase, digest_);
    return std::make_unique<SegmentWriter>(arena);
  }

  /// Run `body` as one chunk on a pooled worker context, its successors
  /// written to `out.segs`.  Exceptions land in `out.error`.
  template <typename Body>
  void runChunk(std::uint64_t epoch, Arena& nextArena, ChunkOut& out,
                Body&& body) {
    std::unique_ptr<WorkerCtx> ctxOwner = acquireCtx(epoch, nextArena);
    WorkerCtx& ctx = *ctxOwner;
    try {
      ScopedNanos whole(out.perf.expandNanos, ctx.timing);
      out.writer = makeWriter(out.segBase, ctx.nextRef);
      body(ctx);
      out.segs = out.writer->finish();
    } catch (...) {
      out.error = std::current_exception();
    }
    out.writer.reset();
    releaseCtx(std::move(ctxOwner));
  }

  /// The engine's one expansion task: records [begin, end) of `wave`, in
  /// frontier order, wherever their segments live.
  void expandRecords(const Wave& wave, std::uint64_t begin, std::uint64_t end,
                     std::uint64_t epoch, Arena& nextArena, ChunkOut& out) {
    runChunk(epoch, nextArena, out, [&](WorkerCtx& ctx) {
      wave.forEach(begin, end, digest_,
                   [&](const FrontierRecord& r, bool onDisk) {
                     Node n;
                     {
                       ScopedNanos t(out.perf.worldLoadNanos, ctx.timing);
                       n.w = model_.load(ctx.m, r.blob, r.len);
                     }
                     n.id = static_cast<std::uint32_t>(r.id);
                     n.bound = r.bound;
                     if (onDisk) {
                       checkFileRecord(n.w, r);
                       out.perf.spillBytesRead += r.len;
                     }
                     if (!checkState(n, out)) expandState(n, ctx, out);
                   });
    });
  }

  /// A state-capped wave expands the `keep` frontier records with the
  /// smallest canonical fingerprints, in that order; ties (only exact mode
  /// keeps two states with one fingerprint) go by encoding bytes.  The
  /// frontier's own order depends on which worker won each insert race,
  /// so this is what makes capped counts independent of `jobs` and of
  /// spilling.  The picked records are copied into segments of their own
  /// (files when spilling; otherwise the next wave's arena, which a capped
  /// wave, being terminal, writes no successors to), and the wave then
  /// expands those like any other.
  Wave pickCapped(const Wave& wave, std::uint64_t keep, std::uint64_t epoch,
                  Arena& nextArena) {
    std::unique_ptr<WorkerCtx> ctx = acquireCtx(epoch, nextArena);
    std::vector<std::unique_ptr<SegmentBytes>> spans;
    std::vector<std::pair<std::uint64_t, FrontierRecord>> keys;
    for (const SegmentInfo& seg : wave.segs) {
      spans.push_back(std::make_unique<SegmentBytes>(seg, digest_));
      const SegmentBytes& bytes = *spans.back();
      std::size_t pos = 0;
      for (std::uint64_t i = 0; i < seg.records; ++i) {
        const FrontierRecord r = readRecord(bytes.data(), bytes.size(), pos);
        const World w = model_.load(ctx->m, r.blob, r.len);
        if (bytes.onDisk()) checkFileRecord(w, r);
        model_.encode(ctx->m, w, ctx->enc);
        keys.emplace_back(fingerprintHash(ctx->enc.data(), ctx->enc.size()),
                          r);
      }
    }
    std::sort(keys.begin(), keys.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first || mode_ != VisitedMode::Exact) {
        return a.first < b.first;
      }
      const IdRecord& x = records_[a.second.id];
      const IdRecord& y = records_[b.second.id];
      const int c = std::memcmp(x.enc, y.enc, std::min(x.len, y.len));
      return c != 0 ? c < 0 : x.len < y.len;
    });
    const std::unique_ptr<SegmentWriter> writer =
        makeWriter(segBasePath(epoch, "cap"), ctx->nextRef);
    for (std::uint64_t k = 0; k < keep; ++k) {
      const FrontierRecord& r = keys[static_cast<std::size_t>(k)].second;
      writer->add(r.id, r.bound, r.blob, r.len);
    }
    Wave picked;
    for (SegmentInfo& seg : writer->finish()) picked.add(std::move(seg));
    releaseCtx(std::move(ctx));
    return picked;
  }

  /// Bytes currently committed to the structures the explorer owns — the
  /// quantity `--mem-limit-mb` bounds.  (Transient per-chunk worlds and
  /// scratch are not tracked; they are small and wave-independent.)
  [[nodiscard]] std::uint64_t trackedBytesBase() const {
    std::uint64_t b = visited_.bytes() + encArena_.bytesReserved() +
                      waveArenas_[0].bytesReserved() +
                      waveArenas_[1].bytesReserved() + idPageBytes(0);
    if (bloom_) b += bloom_->bytes();
    if (waveClaim_) b += waveClaim_->bytes();
    return b;
  }

  /// Per-worker spill write-buffer allowance charged while a wave runs
  /// (flush threshold plus one oversized record of slack).
  static constexpr std::uint64_t kSpillWriterBudget = std::uint64_t{2} << 20;

  /// What the tracked bytes will be AFTER this wave's boundary growth:
  /// visited-slab rehash (old + new slab live during the copy), bitstate
  /// claim growth, id-page growth, and the spill write buffers the
  /// workers are about to fill.  The memory-limit verdict tests this
  /// projection BEFORE reserving, so the growth transient itself can no
  /// longer overshoot `--mem-limit-mb` (it used to: only post-growth
  /// arena bytes were counted).
  [[nodiscard]] std::uint64_t projectedTrackedBytes(std::uint64_t waveBound,
                                                    unsigned jobs) const {
    std::uint64_t b = trackedBytesBase();
    b -= visited_.bytes();
    b += visited_.bytesAfterReserve(static_cast<std::size_t>(waveBound));
    if (waveClaim_) {
      b -= waveClaim_->bytes();
      b += waveClaim_->bytesAfterReserve(static_cast<std::size_t>(waveBound));
    }
    b -= idPageBytes(0);
    b += idPageBytes(static_cast<std::size_t>(
        nextId_.load(std::memory_order_relaxed) + waveBound));
    if (spill_) b += static_cast<std::uint64_t>(jobs) * kSpillWriterBudget;
    return b;
  }

  static std::string fileBase(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }

  /// Name stem of the segment files one writer of wave `epoch` creates.
  [[nodiscard]] std::string segBasePath(std::uint64_t epoch,
                                        const std::string& writer) const {
    return spillPath_ + "/w" + std::to_string(epoch) + "-" + writer;
  }

  /// Bitstate barrier publication: fold the wave's claimed fingerprints
  /// into the Bloom array (single-threaded; queries resume next wave).
  void publishClaims() {
    waveClaim_->forEachFingerprint(
        [&](std::uint64_t fp) { bloom_->setAll(fp); });
  }

  void absorbSegs(ChunkOut& o, Wave& next) {
    for (SegmentInfo& s : o.segs) {
      if (!s.path.empty()) {
        result_.perf.spillSegments += 1;
        result_.perf.spillBytesWritten += s.payloadBytes;
      }
      next.add(std::move(s));
    }
    o.segs.clear();
  }

  /// Drop a drained wave, removing its segment files but sparing any
  /// referenced by the latest checkpoint manifest (a resume needs them
  /// intact).  Spared files are remembered so the next checkpoint, once
  /// its manifest no longer references them, can reclaim the disk —
  /// otherwise every checkpointed wave's segments would accumulate for
  /// the whole run.  (Arena runs go with their arena's reset.)
  void deleteSegs(Wave& w) {
    for (SegmentInfo& s : w.segs) {
      if (s.path.empty()) continue;
      if (protected_.count(fileBase(s.path)) == 0) {
        std::remove(s.path.c_str());
      } else {
        retiredSegs_.push_back(std::move(s.path));
      }
    }
    w = Wave{};
  }

  /// Checkpoint at a wave boundary: append the not-yet-logged visited
  /// records (id order), rewrite the bitstate dump, then atomically
  /// publish a manifest pinning the pending wave's segments.  A kill at
  /// any point leaves either the old manifest (with its files intact —
  /// deletion spares them) or the new one; the manifest's visited-log
  /// byte length truncates torn tails on resume.
  void writeCheckpoint(const Wave& pending) {
    if (!visitedLog_ && mode_ != VisitedMode::Bitstate) {
      visitedLog_ = std::make_unique<VisitedLogWriter>(
          ckptDir_ + "/visited.log", visitedLogBytes_);
    }
    const std::uint64_t nid = nextId_.load(std::memory_order_relaxed);
    if (mode_ == VisitedMode::Exact) {
      for (std::uint64_t id = loggedRecords_; id < nid; ++id) {
        const IdRecord& r = records_[id];
        visitedLog_->appendExact(r.enc, r.len, r.parent, r.action);
      }
    } else if (mode_ == VisitedMode::Compact) {
      for (std::uint64_t id = loggedRecords_; id < nid; ++id) {
        visitedLog_->appendFp(fpsById_[id]);
      }
    }
    if (mode_ != VisitedMode::Bitstate) {
      const std::uint64_t before = visitedLogBytes_;
      visitedLogBytes_ = visitedLog_->flush();
      loggedRecords_ = nid;
      result_.perf.checkpointBytes += visitedLogBytes_ - before;
    } else {
      writeBitstateFile(ckptDir_ + "/bitstate.bits", digest_,
                        bloom_->hashCount(), bloom_->words());
      result_.perf.checkpointBytes += bloom_->bytes();
    }
    CheckpointManifest m;
    m.configDigest = digest_;
    m.visitedMode = toString(mode_);
    m.wavesCompleted = result_.wavesCompleted;
    m.statesExplored = result_.statesExplored;
    m.transitions = result_.transitions;
    m.frontierPeak = result_.frontierPeak;
    m.ampleStates = result_.ampleStates;
    m.nextId = nid;
    m.txnNext = txns_.next.load(std::memory_order_relaxed);
    m.encodeCalls = result_.perf.encodeCalls;
    m.insertCalls = result_.perf.insertCalls;
    m.storedStates = result_.perf.storedStates;
    m.storedEncodingBytes = result_.perf.storedEncodingBytes;
    m.probeHist = result_.perf.probeHist;
    m.visitedLogBytes = visitedLogBytes_;
    m.visitedLogRecords = loggedRecords_;
    if (mode_ == VisitedMode::Bitstate) {
      m.bitstateWords = bloom_->words().size();
      m.bitstateHashes = bloom_->hashCount();
    }
    m.frontier = pending.segs;
    writeManifest(ckptDir_, m);
    protected_.clear();
    for (const SegmentInfo& s : pending.segs) {
      protected_.insert(fileBase(s.path));
    }
    // The new manifest is durably in place; segments only the superseded
    // manifest referenced are dead weight now.  (A kill before this point
    // merely leaks files; it never invalidates a checkpoint.)
    for (const std::string& path : retiredSegs_) {
      if (protected_.count(fileBase(path)) == 0) std::remove(path.c_str());
    }
    retiredSegs_.clear();
  }

  /// Rebuild the explorer from `--resume DIR`: counters, the transaction
  /// counter (frontier blobs hold raw txn ids — freshly minted ids must
  /// stay unique within any world they meet), the visited structures,
  /// and the pending wave's segment list.
  void restoreFromCheckpoint(Wave& wave) {
    const CheckpointManifest m = readManifest(cfg_.resumeDir);
    if (m.configDigest != digest_) {
      throw SimError(
          "checkpoint was written for a different configuration "
          "(config digest mismatch) — topology, protocol switches, "
          "reductions, and visited mode must match the checkpointed run");
    }
    if (m.visitedMode != toString(mode_)) {
      throw SimError("checkpoint visited mode is '" + m.visitedMode +
                     "' but this run asked for '" + toString(mode_) + "'");
    }
    result_.resumed = true;
    result_.statesExplored = m.statesExplored;
    result_.transitions = m.transitions;
    result_.frontierPeak = m.frontierPeak;
    result_.ampleStates = m.ampleStates;
    result_.wavesCompleted = m.wavesCompleted;
    result_.perf.encodeCalls = m.encodeCalls;
    result_.perf.insertCalls = m.insertCalls;
    result_.perf.storedStates = m.storedStates;
    result_.perf.storedEncodingBytes = m.storedEncodingBytes;
    result_.perf.probeHist = m.probeHist;
    txns_.next.store(m.txnNext, std::memory_order_relaxed);
    nextId_.store(static_cast<std::uint32_t>(m.nextId),
                  std::memory_order_relaxed);
    if (mode_ == VisitedMode::Bitstate) {
      std::uint32_t hashes = 0;
      std::vector<std::uint64_t> words =
          readBitstateFile(cfg_.resumeDir + "/bitstate.bits", digest_, hashes);
      bloom_->loadWords(std::move(words), hashes);
    } else {
      if (m.visitedLogRecords != m.nextId) {
        throw SimError(
            "checkpoint manifest inconsistent: visited-log record count "
            "does not match nextId");
      }
      visited_.reserveFor(static_cast<std::size_t>(m.visitedLogRecords));
      growIdPages(static_cast<std::size_t>(m.nextId));
      VisitedLogReader rd(cfg_.resumeDir + "/visited.log", m.visitedLogBytes);
      const bool exact = mode_ == VisitedMode::Exact;
      ArenaRef encRef(encArena_);
      std::vector<std::byte> buf;
      std::uint32_t parent = 0;
      std::uint64_t action = 0;
      std::uint64_t fp = 0;
      std::uint64_t id = 0;
      while (exact ? rd.nextExact(buf, parent, action) : rd.nextFp(fp)) {
        if (id >= m.nextId) {
          throw SimError(
              "checkpoint visited log holds more records than nextId");
        }
        if (exact) {
          std::byte* p = encRef.alloc(buf.size());
          std::memcpy(p, buf.data(), buf.size());
          records_[id] = IdRecord{p, static_cast<std::uint32_t>(buf.size()),
                                  parent, action};
          fp = fingerprintHash(buf.data(), buf.size());
        } else if (checkpointing_) {
          fpsById_[id] = fp;
        }
        const FlatFingerprintSet::InsertResult res = visited_.insert(
            fp,
            [&](std::uint32_t payload) {
              return !exact || encEquals(payload, buf);
            },
            [&]() { return static_cast<std::uint32_t>(id); });
        if (!res.inserted) {
          throw SimError(exact
                             ? "checkpoint visited log holds a duplicate state"
                             : "checkpoint visited log holds a duplicate "
                               "fingerprint");
        }
        id += 1;
      }
      if (id != m.nextId) {
        throw SimError(
            "checkpoint visited log truncated: fewer records than nextId");
      }
    }
    for (SegmentInfo s : m.frontier) {
      indexSegment(s, digest_);
      protected_.insert(fileBase(s.path));
      wave.add(std::move(s));
    }
    loggedRecords_ = m.visitedLogRecords;
    visitedLogBytes_ = m.visitedLogBytes;
  }

  McConfig cfg_;
  VisitedMode mode_ = VisitedMode::Exact;
  std::uint64_t digest_ = 0;
  proto::TxnCounter txns_;
  Model model_;
  std::mutex ctxMu_;
  std::vector<std::unique_ptr<WorkerCtx>> ctxPool_;
  FlatFingerprintSet visited_;
  Arena encArena_;        ///< canonical encodings of visited states
  Arena waveArenas_[2];   ///< ping-pong frontier-segment arenas
  std::atomic<std::uint32_t> nextId_{0};
  std::uint32_t idWatermark_ = 0;  ///< POR proviso horizon (wave start)
  IdPages<IdRecord> records_;      ///< exact mode, one per state id
  /// False for a terminal wave (state cap taken, or a depth stop that
  /// writes no checkpoint): its successors are still deduplicated and
  /// counted, but no world blob is saved, since no wave will load one.
  bool keepSuccessors_ = true;
  McResult result_;

  // -- out-of-core state -------------------------------------------------
  bool spill_ = false;
  bool checkpointing_ = false;
  std::string spillPath_;
  std::string ckptDir_;
  std::unique_ptr<BitstateFilter> bloom_;        ///< bitstate mode
  std::unique_ptr<FlatFingerprintSet> waveClaim_;  ///< bitstate, per wave
  std::atomic<std::uint32_t> claimNext_{0};
  /// Claims this wave's bound allows (the claim table was sized for it).
  std::uint64_t claimLimit_ = ~std::uint64_t{0};
  /// Compact + checkpointing: fingerprint per id, feeding the visited
  /// log in id order.
  IdPages<std::uint64_t> fpsById_;
  std::unique_ptr<VisitedLogWriter> visitedLog_;
  std::uint64_t loggedRecords_ = 0;
  std::uint64_t visitedLogBytes_ = 0;
  /// Basenames of segment files referenced by the latest manifest —
  /// deletion must spare them for resume.
  std::set<std::string> protected_;
  /// Drained-but-spared segment files from superseded checkpoints,
  /// reclaimed once a newer manifest stops referencing them.
  std::vector<std::string> retiredSegs_;
};

template <typename Model>
McResult ParallelExplorer<Model>::run() {
  const unsigned jobs = std::max(1u, cfg_.jobs);
  ThreadPool pool(jobs);
  std::optional<CexSeed> cexSeed;

  std::size_t cur = 0;
  Wave wave;

  if (!cfg_.resumeDir.empty()) {
    restoreFromCheckpoint(wave);
  } else {
    // Seed the root (wave arena 0 / segment w0-c0 holds the first
    // frontier).
    growIdPages(1);
    ChunkOut rootOut;
    rootOut.segBase = segBasePath(0, "c0");
    runChunk(0, waveArenas_[0], rootOut, [&](WorkerCtx& ctx) {
      record(model_.initial(), kNoParent, Action{}, ctx, rootOut);
    });
    if (rootOut.error) std::rethrow_exception(rootOut.error);
    result_.perf.merge(rootOut.perf);
    if (mode_ == VisitedMode::Bitstate) {
      publishClaims();
      waveClaim_->clear();
    }
    absorbSegs(rootOut, wave);
  }

  while (wave.records != 0) {
    result_.frontierPeak = std::max(result_.frontierPeak, wave.records);
    const std::uint64_t remaining =
        cfg_.maxStates > result_.statesExplored
            ? cfg_.maxStates - result_.statesExplored
            : 0;
    std::uint64_t expandCount = wave.records;
    if (remaining < wave.records) {
      expandCount = remaining;
      result_.hitStateLimit = true;
    }
    if (expandCount == 0) {
      deleteSegs(wave);
      break;
    }
    const std::uint64_t epoch = result_.wavesCompleted + 1;
    Arena& nextArena = waveArenas_[1 - cur];

    // A capped wave expands only its picked records, copied into segments
    // of their own; the full wave stays for a memory-limit checkpoint.
    Wave capped;
    if (result_.hitStateLimit) {
      capped = pickCapped(wave, expandCount, epoch, nextArena);
    }
    const Wave& front = result_.hitStateLimit ? capped : wave;

    // This wave's successor bound, the sum of its records' exact bounds:
    // the visited table and the id pages may not grow mid-wave (the flat
    // set must not rehash under concurrent inserts; workers index the id
    // pages without locks).
    const std::uint64_t waveBound = front.boundSum;

    // Memory-limit verdict — decided only at wave boundaries (counts
    // stay exact and jobs-independent for every completed wave), and
    // tested against the PROJECTED post-growth footprint, so the
    // boundary growth itself can't overshoot the limit.  With
    // checkpointing the stop is resumable: the pending wave was either
    // just checkpointed or is checkpointed right here.
    if (cfg_.memLimitMb != 0 &&
        projectedTrackedBytes(waveBound, jobs) >
            cfg_.memLimitMb * 1024 * 1024) {
      result_.memLimitHit = true;
      if (checkpointing_) writeCheckpoint(wave);
      deleteSegs(capped);
      break;
    }

    visited_.reserveFor(static_cast<std::size_t>(waveBound));
    if (mode_ == VisitedMode::Bitstate) {
      waveClaim_->reserveFor(static_cast<std::size_t>(waveBound));
      claimNext_.store(0, std::memory_order_relaxed);
      claimLimit_ = waveBound;
    }
    const std::uint32_t baseId = nextId_.load(std::memory_order_relaxed);
    growIdPages(static_cast<std::size_t>(baseId) +
                static_cast<std::size_t>(waveBound));

    // Freeze the POR proviso horizon at the wave boundary.
    idWatermark_ = baseId;

    // Whether this wave is the last is known before it runs: the state
    // cap was just taken, or it reaches `maxDepth`.  Its successors are
    // loaded again only when a depth stop checkpoints them for a resume
    // (a state-capped stop is terminal and writes no checkpoint).
    const bool depthStop = cfg_.maxDepth != 0 && epoch >= cfg_.maxDepth;
    keepSuccessors_ =
        !result_.hitStateLimit && (!depthStop || checkpointing_);

    // Record ranges, not segments, are the unit of work: large ranges on
    // small frontiers so oversubscribed hosts don't pay merge cost for
    // nothing, bounded below at 64 records.  Each worker claims the next
    // range until none is left, so a lone worker expands them in frontier
    // order and its run repeats to the byte; the barrier merges in range
    // order whatever the claim order was.
    const auto ranges = cutWave(front.records, jobs);
    std::vector<ChunkOut> outs(ranges.size());
    std::atomic<std::size_t> nextRange{0};
    for (std::size_t w = 0; w < std::min<std::size_t>(jobs, ranges.size());
         ++w) {
      pool.submit([&] {
        for (std::size_t c = nextRange++; c < ranges.size(); c = nextRange++) {
          outs[c].segBase = segBasePath(epoch, "c" + std::to_string(c));
          expandRecords(front, ranges[c].first, ranges[c].second, epoch,
                        nextArena, outs[c]);
        }
      });
    }
    pool.wait();
    for (ChunkOut& o : outs) {
      if (o.boundOverrun) {
        throw SimError(
            "a wave generated more successors than its records' stored "
            "bounds allow (corrupt checkpoint segment or manifest)");
      }
      if (o.error) std::rethrow_exception(o.error);
    }
    if (mode_ == VisitedMode::Bitstate) {
      publishClaims();
      waveClaim_->clear();
    }

    result_.statesExplored += expandCount;
    Wave nextWave;
    std::vector<std::string> waveViolations;
    for (ChunkOut& o : outs) {
      result_.transitions += o.transitions;
      result_.ampleStates += o.ampleStates;
      result_.deadlockFound = result_.deadlockFound || o.deadlock;
      result_.perf.merge(o.perf);
      for (std::string& v : o.violations) {
        waveViolations.push_back(std::move(v));
      }
      if (!cexSeed && o.cex) cexSeed = std::move(o.cex);
      absorbSegs(o, nextWave);
    }
    result_.frontierBytesPeak = std::max<std::uint64_t>(
        result_.frontierBytesPeak,
        waveArenas_[0].bytesReserved() + waveArenas_[1].bytesReserved());
    result_.trackedBytesPeak =
        std::max<std::uint64_t>(result_.trackedBytesPeak, trackedBytesBase());
    std::sort(waveViolations.begin(), waveViolations.end());
    waveViolations.erase(
        std::unique(waveViolations.begin(), waveViolations.end()),
        waveViolations.end());
    for (std::string& v : waveViolations) {
      if (result_.violations.size() < cfg_.maxViolations) {
        result_.violations.push_back(std::move(v));
      }
    }
    result_.wavesCompleted += 1;
    // Stop decisions live at wave boundaries only, so counts and verdicts
    // are identical for any jobs value.
    if (!result_.violations.empty() || result_.deadlockFound ||
        result_.hitStateLimit) {
      // Terminal verdict: nothing to resume; drop unprotected segments.
      deleteSegs(wave);
      deleteSegs(capped);
      deleteSegs(nextWave);
      break;
    }
    if (cfg_.maxDepth != 0 && result_.wavesCompleted >= cfg_.maxDepth) {
      // Depth-capped stop is resumable (rerun with a larger --max-depth).
      if (checkpointing_) writeCheckpoint(nextWave);
      deleteSegs(wave);
      if (!checkpointing_) deleteSegs(nextWave);
      break;
    }
    if (checkpointing_ &&
        result_.wavesCompleted %
                std::max<std::uint64_t>(1, cfg_.checkpointEvery) ==
            0) {
      writeCheckpoint(nextWave);
    }
    deleteSegs(wave);
    wave = std::move(nextWave);
    // The expanded wave's segments are dead; recycle its arena for the
    // wave after next.
    waveArenas_[cur].reset();
    cur = 1 - cur;
  }

  if (cexSeed) {
    Counterexample cex;
    cex.kind = cexSeed->kind;
    cex.detail = cexSeed->detail;
    // Only exact mode keeps parent edges; lossy modes report the failing
    // state without a schedule (DESIGN.md §14).
    if (mode_ == VisitedMode::Exact) {
      cex.schedule = reconstructSchedule(*cexSeed);
    }
    result_.counterexample = std::move(cex);
  }
  result_.visitedBytes = visited_.bytes() + encArena_.bytesReserved() +
                         idPageBytes(0) + (bloom_ ? bloom_->bytes() : 0);
  if (mode_ == VisitedMode::Compact) {
    const double n = static_cast<double>(result_.perf.storedStates);
    result_.omissionBound =
        std::min(1.0, n * (n - 1.0) / 2.0 / std::pow(2.0, 64));
  } else if (mode_ == VisitedMode::Bitstate) {
    const double fill = static_cast<double>(bloom_->onesCount()) /
                        static_cast<double>(bloom_->bitCount());
    result_.omissionBound =
        std::min(1.0, static_cast<double>(result_.perf.insertCalls) *
                          std::pow(fill, static_cast<double>(
                                             bloom_->hashCount())));
  }
  result_.perf.omissionBound = result_.omissionBound;
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB.
    result_.peakRssBytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
  return result_;
}

}  // namespace

const char* toString(VisitedMode m) {
  switch (m) {
    case VisitedMode::Exact: return "exact";
    case VisitedMode::Compact: return "compact";
    case VisitedMode::Bitstate: return "bitstate";
  }
  return "?";
}

std::string toString(const Action& a) {
  std::ostringstream os;
  switch (a.kind) {
    case Action::Kind::Deliver:
      os << "deliver #" << a.flightIndex << ' ' << proto::toString(a.msgType)
         << " -> node " << a.dst << " (block " << a.block << ')';
      break;
    case Action::Kind::Issue:
      os << "node " << a.proc << " issues " << lcdc::toString(a.req)
         << " on block " << a.block;
      break;
    case Action::Kind::Evict:
      os << "node " << a.proc << " evicts block " << a.block;
      break;
    case Action::Kind::Store:
      os << "node " << a.proc << " stores to block " << a.block;
      break;
  }
  return os.str();
}

void validate(const McConfig& cfg) {
  LCDC_EXPECT(cfg.numProcessors >= 1, "need at least one processor");
  LCDC_EXPECT(cfg.numBlocks >= 1, "need at least one block");
  if (cfg.protocol == ProtocolKind::Bus) {
    throw SimError(
        "the bus backend is not model-checkable: its only nondeterminism is "
        "the snoop-queue order already covered by seeded 'lcdc run "
        "--protocol bus'");
  }
  requireMutant(cfg.protocol, cfg.proto.mutant);
  if (cfg.visited == VisitedMode::Bitstate && cfg.por) {
    throw SimError(
        "--visited bitstate cannot combine with --por: the ample-set "
        "proviso compares state discovery ids, which bitstate mode does "
        "not assign");
  }
  if (!cfg.resumeDir.empty() && !cfg.checkpointDir.empty() &&
      cfg.resumeDir != cfg.checkpointDir) {
    throw SimError(
        "--resume and --checkpoint name different directories; a resumed "
        "run continues checkpointing into the resume directory, so drop "
        "--checkpoint or point both at the same place");
  }
  const std::string& ckpt =
      cfg.checkpointDir.empty() ? cfg.resumeDir : cfg.checkpointDir;
  if (!cfg.spillDir.empty() && !ckpt.empty() && cfg.spillDir != ckpt) {
    throw SimError(
        "--spill and --checkpoint/--resume name different directories; "
        "checkpoints reference the spill segments by basename, so they "
        "must live in one directory");
  }
  if (cfg.protocol == ProtocolKind::Tardis &&
      (cfg.symmetry || cfg.por || cfg.modelData)) {
    throw SimError(
        "--symmetry, --por and --model-data are directory-only (--protocol "
        "dir)");
  }
}

McResult explore(const McConfig& cfg) {
  validate(cfg);
  if (cfg.protocol == ProtocolKind::Tardis) {
    return ParallelExplorer<TardisModel>(cfg).run();
  }
  return ParallelExplorer<DirectoryModel>(cfg).run();
}

}  // namespace lcdc::mc
