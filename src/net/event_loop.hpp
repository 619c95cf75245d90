// The discrete-event core of the two message-passing simulators,
// `sim::System` and `tardis::TardisSystem`: the unordered network, the
// processors' retry timers, and the loop that steps them until every
// program is done, the run stalls (deadlock) or it stops binding
// operations (livelock).  The derived system (CRTP) supplies config(),
// dispatch(envelope), progress(proc), totalOpsBound(), allProgramsDone(),
// quiescent() and describeStall(os); node numbering is the same in both:
// processors 0..P-1, homes P..P+D-1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <vector>

#include "common/expect.hpp"
#include "common/run_result.hpp"
#include "net/network.hpp"
#include "proto/directory.hpp"

namespace lcdc::net {

template <typename Derived>
class EventLoop {
 public:
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] Tick now() const { return now_; }

  /// Kick every processor once (issue the first round of requests).
  void start() {
    for (NodeId p = 0; p < self().config().numProcessors; ++p) {
      self().progress(p);
    }
  }

  /// Deliver the next due event (timed modes).  False when nothing is
  /// pending.
  bool stepEvent() {
    const Tick tNet = net_.empty() ? kNever : net_.nextDeliveryTime();
    if (!timers_.empty() && timers_.top().at <= now_) {
      // Stale timers (the processor already progressed) fire immediately.
      const Timer t = timers_.top();
      timers_.pop();
      self().progress(t.proc);
      return true;
    }
    const Tick tTimer = timers_.empty() ? kNever : timers_.top().at;
    if (tNet == kNever && tTimer == kNever) return false;
    if (tNet <= tTimer) {
      now_ = std::max(now_, tNet);
      self().dispatch(net_.popNext());
    } else {
      const Timer t = timers_.top();
      timers_.pop();
      now_ = std::max(now_, t.at);
      self().progress(t.proc);
    }
    return true;
  }

  /// Run to quiescence / deadlock / livelock, or until maxEvents.
  RunResult run(std::uint64_t maxEvents = 200'000'000) {
    sink_->onRunBegin(self().config());
    RunResult result = runLoop(maxEvents);
    sink_->onRunEnd(result);
    return result;
  }

  /// Deliver the i-th pending message (Manual network mode), dispatching it
  /// and letting the receiving processor progress.
  void deliverManual(std::size_t idx) {
    now_ += 1;
    self().dispatch(net_.deliverIndex(idx));
  }

 protected:
  EventLoop(Network::Mode mode, const SystemConfig& config,
            proto::EventSink& sink)
      : sink_(&sink),
        net_(mode, Rng(config.seed ^ kNetworkSalt), config.minLatency,
             config.maxLatency) {}

  /// Back to time zero, the network re-seeded as the constructor seeds it.
  void rewind(std::uint64_t seed) {
    net_.reset(Rng(seed ^ kNetworkSalt));
    while (!timers_.empty()) timers_.pop();
    now_ = 0;
  }

  /// Put a controller's outgoing messages on the network, in order.
  void flush(NodeId src, proto::Outbox& out) {
    for (auto& entry : out.msgs) {
      (void)net_.send(src, entry.dst, now_, std::move(entry.msg));
    }
    out.clear();
  }

  /// Re-run `proc`'s progress at tick `at` (a paced retry).
  void wakeAt(NodeId proc, Tick at) {
    if (at != kNever) timers_.push(Timer{at, proc});
  }

  proto::EventSink* sink_;
  Network net_;
  Tick now_ = 0;

 private:
  static constexpr std::uint64_t kNetworkSalt = 0x6E657477'6F726BULL;

  struct Timer {
    Tick at;
    NodeId proc;
    friend bool operator>(const Timer& a, const Timer& b) {
      return a.at != b.at ? a.at > b.at : a.proc > b.proc;
    }
  };

  Derived& self() { return static_cast<Derived&>(*this); }

  RunResult runLoop(std::uint64_t maxEvents) {
    RunResult result;
    std::uint64_t lastBound = self().totalOpsBound();
    std::uint64_t lastBoundEvent = 0;
    // NACK retry storms legitimately take many events, but an unbounded
    // storm with zero bindings is a livelock.
    const std::uint64_t window =
        400'000 + 2'000ull * self().config().numProcessors;

    start();
    while (result.eventsProcessed < maxEvents) {
      if (!stepEvent()) {
        result.endTime = now_;
        result.opsBound = self().totalOpsBound();
        if (self().allProgramsDone()) {
          LCDC_EXPECT(self().quiescent(),
                      "no events pending but not quiescent");
          result.outcome = RunResult::Outcome::Quiescent;
        } else {
          result.outcome = RunResult::Outcome::Deadlock;
          std::ostringstream os;
          os << "no deliverable events; stalled processors:";
          self().describeStall(os);
          result.detail = os.str();
        }
        return result;
      }
      result.eventsProcessed += 1;
      if ((result.eventsProcessed & 0xFFF) == 0) {
        const std::uint64_t bound = self().totalOpsBound();
        if (bound != lastBound) {
          lastBound = bound;
          lastBoundEvent = result.eventsProcessed;
        } else if (!self().allProgramsDone() &&
                   result.eventsProcessed - lastBoundEvent > window) {
          result.outcome = RunResult::Outcome::Livelock;
          result.endTime = now_;
          result.opsBound = bound;
          result.detail = "no operation bound within the progress window";
          return result;
        }
      }
    }
    result.endTime = now_;
    result.opsBound = self().totalOpsBound();
    return result;
  }

  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
};

}  // namespace lcdc::net
