// The interconnection network of Figure 1.
//
// Section 2.1 fixes exactly two properties: delivery is *reliable and
// eventual*, and there is *no ordering guarantee whatsoever* between
// messages.  We model this as a bag of in-flight envelopes:
//
//  * RandomLatency — every message independently draws a delivery latency
//    in [minLatency, maxLatency]; overlapping messages routinely overtake
//    one another, which is what exposes the paper's race conditions
//    (transactions 13/14, Figure 2).
//  * Fifo          — constant latency; a degenerate ordered network used to
//    show the protocol also works when races never fire.
//  * Manual        — tests and scripted scenarios pick the exact delivery
//    order, to force a specific race deterministically.
//  * Pct           — PCT-style randomized priorities (Burckhardt et al.,
//    ASPLOS 2010): every message draws a random priority at send time and
//    the highest-priority pending message is always delivered next, with
//    periodic "change points" that redraw every pending priority.  Unlike
//    RandomLatency (whose reorder window is bounded by maxLatency ticks),
//    Pct can hold one message back behind an unbounded number of later
//    sends — the deep-reorder shape that exposes the rare races, which is
//    why every campaign case runs on it.  Delivery times are the send time
//    plus minLatency, clamped to be monotone across deliveries; maxLatency
//    is not read.
//
// Messages are never dropped, duplicated or corrupted.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/calendar_queue.hpp"
#include "net/envelope.hpp"
#include "proto/messages.hpp"

namespace lcdc::net {

/// Per-message-type traffic counters.
struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::vector<std::uint64_t> sentByType;       ///< indexed by MsgType
  std::vector<std::uint64_t> deliveredByType;  ///< indexed by MsgType

  NetStats();
};

class Network {
 public:
  enum class Mode { RandomLatency, Fifo, Manual, Pct };

  Network(Mode mode, Rng rng, Tick minLatency, Tick maxLatency);

  /// Inject a message.  `src` is recorded into the message envelope.
  MsgSeq send(NodeId src, NodeId dst, Tick now, proto::Message msg);

  [[nodiscard]] bool empty() const { return inFlight() == 0; }
  [[nodiscard]] std::size_t inFlight() const;

  /// Timed modes: the delivery time of the next due envelope (kNever when
  /// the network is empty).
  [[nodiscard]] Tick nextDeliveryTime() const;

  /// Timed modes: remove and return the next due envelope.
  [[nodiscard]] Envelope popNext();

  /// Manual mode: inspect the in-flight bag (in send order).
  [[nodiscard]] const std::deque<Envelope>& pending() const;

  /// Manual mode: remove and return the i-th pending envelope.
  [[nodiscard]] Envelope deliverIndex(std::size_t i);

  /// Manual mode: remove and return the envelope with sequence `seq`.
  [[nodiscard]] Envelope deliverSeq(MsgSeq seq);

  /// Manual mode convenience: deliver the first pending message matching a
  /// predicate; returns nullopt when none matches.
  template <typename Pred>
  [[nodiscard]] std::optional<Envelope> deliverFirst(Pred&& pred) {
    for (std::size_t i = 0; i < manual_.size(); ++i) {
      if (pred(manual_[i])) return deliverIndex(i);
    }
    return std::nullopt;
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  /// Queue operation counters of the timed modes, for SimPerfCounters: the
  /// calendar queue's, or in Pct mode the priority heap's pushes, pops and
  /// depth high-water (its overflow and pool counters stay 0).
  [[nodiscard]] const CalendarStats& queueStats() const {
    return mode_ == Mode::Pct ? pctStats_ : timed_.stats();
  }

  /// Return to the just-constructed state with a fresh random stream, but
  /// keep the envelope pool's slabs and every container's capacity — the
  /// campaign resets one Network per worker thousands of times.
  void reset(Rng rng);

 private:
  // Pct's heap orders 16-byte keys; the envelopes stay in `pctSlots_` and
  // never move after insertion, so no sift step moves a whole Envelope
  // (the cost calendar_queue.hpp avoids too).  pctLess reads only (prio,
  // seq), so the heap layout, the pop order and the order of change-point
  // redraws are those of a heap of whole envelopes ordered the same way,
  // which is what the PctSeedEquiv pins were captured from.
  struct PctKey {
    MsgSeq seq = 0;
    std::uint32_t prio = 0;
    std::uint32_t slot = 0;  ///< index into pctSlots_
  };
  // Max-heap order: highest priority first, lowest seq among ties.
  static bool pctLess(const PctKey& a, const PctKey& b) {
    if (a.prio != b.prio) return a.prio < b.prio;
    return a.seq > b.seq;
  }

  void countDelivered(const Envelope& env);

  Mode mode_;
  Rng rng_;
  Tick minLatency_;
  Tick maxLatency_;
  MsgSeq nextSeq_ = 1;
  CalendarQueue timed_;
  std::deque<Envelope> manual_;
  std::vector<PctKey> pct_;                ///< max-heap of pending keys
  std::vector<Envelope> pctSlots_;         ///< pending envelopes, by slot
  std::vector<std::uint32_t> pctFree_;     ///< recycled slots
  CalendarStats pctStats_;
  Tick pctFloor_ = 0;                     ///< monotone delivery-time clamp
  std::uint64_t pctUntilChangePoint_ = 0; ///< deliveries until a reshuffle
  NetStats stats_;
};

}  // namespace lcdc::net
