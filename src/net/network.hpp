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
#include "net/envelope.hpp"
#include "proto/messages.hpp"

namespace lcdc::net {

/// Queue operation counters of the non-manual modes, for SimPerfCounters
/// (always on; they are a handful of increments per event).
struct QueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t maxDepth = 0;  ///< high-water in-flight envelopes
};

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
  /// Pushes, pops and depth high-water of the non-manual modes' queue.
  [[nodiscard]] const QueueStats& queueStats() const { return queueStats_; }

  /// Return to the just-constructed state with a fresh random stream, but
  /// keep every container's capacity — the campaign resets one Network per
  /// worker thousands of times.
  void reset(Rng rng);

 private:
  // Every non-manual mode keeps its pending envelopes in `slots_`, where
  // they never move after insertion, and pops the one with the smallest
  // (rank, seq) key from one min-heap of 24-byte keys, so no sift step
  // moves a whole Envelope.  The rank is deliverAt in RandomLatency and
  // Fifo mode and kPctPrioSpan - 1 - prio in Pct mode.  The timed order is
  // strict and total on (deliverAt, seq), so pops come out in the order a
  // std::priority_queue of envelopes gives (the seed-equivalence pins).  In
  // Pct mode `later` gives, for every pair, the answer of the max-heap on
  // (priority, lowest seq first) the PctSeedEquiv pins were captured from,
  // so the heap layout, the pop order and the order of change-point redraws
  // are that heap's.
  struct Key {
    std::uint64_t rank = 0;
    MsgSeq seq = 0;
    std::uint32_t slot = 0;  ///< index into slots_
  };
  static bool later(const Key& a, const Key& b) {
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.seq > b.seq;
  }

  void countDelivered(const Envelope& env);

  Mode mode_;
  Rng rng_;
  Tick minLatency_;
  Tick maxLatency_;
  MsgSeq nextSeq_ = 1;
  std::deque<Envelope> manual_;
  std::vector<Key> heap_;                ///< min-heap of pending keys
  std::vector<Envelope> slots_;          ///< pending envelopes, by slot
  std::vector<std::uint32_t> freeSlots_; ///< recycled slots
  QueueStats queueStats_;
  Tick floor_ = 0;                       ///< monotone delivery-time clamp
  std::uint64_t pctUntilChangePoint_ = 0; ///< deliveries until a reshuffle
  NetStats stats_;
};

}  // namespace lcdc::net
