// The full target multiprocessor of Figure 1: processing nodes (processor +
// cache + network interface) and directory nodes (directory slice + memory)
// joined by an unordered interconnect, driven as a deterministic
// discrete-event simulation.
//
// Node numbering: processors are 0..P-1, directory nodes P..P+D-1 (the
// co-located configuration the paper mentions is just D == P with both
// roles sharing a chassis; keeping the id spaces disjoint keeps processor
// clocks and directory-entry clocks separate, as Section 3.2 requires).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/run_result.hpp"
#include "net/event_loop.hpp"
#include "net/network.hpp"
#include "proto/directory.hpp"
#include "proto/events.hpp"
#include "sim/processor.hpp"
#include "workload/program.hpp"

namespace lcdc::sim {

// RunResult lives in common/run_result.hpp (the observer API uses it).
using lcdc::RunResult;
using lcdc::toString;

/// network(), now(), start(), stepEvent(), run() and deliverManual() come
/// from the shared event loop.
class System : public net::EventLoop<System> {
 public:
  System(const SystemConfig& config, proto::EventSink& sink,
         net::Network::Mode mode = net::Network::Mode::RandomLatency);

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] Processor& processor(NodeId i);
  [[nodiscard]] proto::DirectoryController& directory(std::size_t idx);
  [[nodiscard]] NodeId home(BlockId b) const { return homeOf(b, config_); }

  /// Lvalue programs are copy-assigned into the processor's retained
  /// buffer (no allocation at steady state); rvalues are moved.
  void setProgram(NodeId proc, const workload::Program& program);
  void setProgram(NodeId proc, workload::Program&& program);

  /// Rewind the whole system to the freshly constructed state under a new
  /// seed, in place: same topology and network mode, every component back
  /// at time zero with re-derived RNG streams (identical to constructing
  /// System with `seed`), but all container capacity, pool slabs, and
  /// envelope free lists retained.  Campaign workers reuse one System per
  /// thread across thousands of sub-runs this way; a reset-then-run is
  /// byte-identical to a construct-then-run with the same seed.
  void reset(std::uint64_t seed);

  // -- manual-mode scripting (tests, scripted scenarios) ---------------------

  /// Deliver the first pending message satisfying `pred`; false if none.
  bool deliverManualFirst(
      const std::function<bool(const net::Envelope&)>& pred);
  /// Let one processor progress (bind ops / issue requests) right now.
  void kick(NodeId proc);
  /// Advance simulated time (retry pacing in manual mode).
  void advanceTime(net::Tick ticks);

  // -- model-checker replay hooks ---------------------------------------------
  // Drive the protocol directly, bypassing programs: the MC replay bridge
  // (mc/replay.hpp) re-executes an exploration schedule step by step.

  /// Issue a coherence request from `proc` right now (no retry pacing).
  void injectRequest(NodeId proc, BlockId block, ReqType req);
  /// Evict: write back a read-write line / put-shared a read-only line.
  void injectEvict(NodeId proc, BlockId block);
  /// Bind one operation directly when the cache permits (emitting it to
  /// the sink); false when the line has no permission.
  bool injectBind(NodeId proc, BlockId block, OpKind kind, WordIdx word,
                  Word value);

  // -- state inspection -------------------------------------------------------

  [[nodiscard]] bool allProgramsDone() const;
  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] std::uint64_t totalOpsBound() const;
  [[nodiscard]] proto::DirStats aggregateDirStats() const;
  [[nodiscard]] proto::CacheStats aggregateCacheStats() const;

 private:
  friend class net::EventLoop<System>;
  void dispatch(const net::Envelope& env);
  void progress(NodeId proc);
  void describeStall(std::ostream& os) const;

  SystemConfig config_;
  Rng rng_;
  proto::TxnCounter txns_;
  std::vector<std::unique_ptr<Processor>> procs_;
  std::vector<std::unique_ptr<proto::DirectoryController>> dirs_;
  /// Scratch outbox reused across every dispatch/progress so spill
  /// capacity (bursts wider than the inline entries) is paid for once.
  proto::Outbox outbox_;
};

}  // namespace lcdc::sim
