#include "net/network.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace lcdc::net {

namespace {
// PCT change points fire after a burst of deliveries drawn from this range;
// reshuffling all pending priorities bounds starvation and moves the
// preemption points around the schedule, as in the PCT algorithm.
constexpr std::uint64_t kPctBurstMin = 8;
constexpr std::uint64_t kPctBurstMax = 64;
constexpr std::uint64_t kPctPrioSpan = 1u << 20;
}  // namespace

NetStats::NetStats()
    : sentByType(proto::kNumMsgTypes, 0),
      deliveredByType(proto::kNumMsgTypes, 0) {}

Network::Network(Mode mode, Rng rng, Tick minLatency, Tick maxLatency)
    : mode_(mode), rng_(rng), minLatency_(minLatency),
      maxLatency_(maxLatency), timed_(maxLatency) {
  LCDC_EXPECT(minLatency_ <= maxLatency_, "latency bounds inverted");
  LCDC_EXPECT(minLatency_ >= 1, "zero latency would allow same-tick loops");
  if (mode_ == Mode::Pct) {
    pctUntilChangePoint_ = rng_.uniform(kPctBurstMin, kPctBurstMax);
  }
}

void Network::reset(Rng rng) {
  rng_ = rng;
  nextSeq_ = 1;
  timed_.clear();
  timed_.resetStats();
  manual_.clear();
  pct_.clear();
  pctSlots_.clear();
  pctFree_.clear();
  pctStats_ = CalendarStats{};
  pctFloor_ = 0;
  if (mode_ == Mode::Pct) {
    pctUntilChangePoint_ = rng_.uniform(kPctBurstMin, kPctBurstMax);
  }
  stats_.sent = 0;
  stats_.delivered = 0;
  std::fill(stats_.sentByType.begin(), stats_.sentByType.end(), 0);
  std::fill(stats_.deliveredByType.begin(), stats_.deliveredByType.end(), 0);
}

MsgSeq Network::send(NodeId src, NodeId dst, Tick now, proto::Message msg) {
  msg.src = src;
  Envelope env;
  env.seq = nextSeq_++;
  env.dst = dst;
  env.sentAt = now;
  env.msg = std::move(msg);
  stats_.sent += 1;
  const auto typeIdx = static_cast<std::size_t>(env.msg.type);
  if (typeIdx < stats_.sentByType.size()) stats_.sentByType[typeIdx] += 1;

  switch (mode_) {
    case Mode::RandomLatency:
      env.deliverAt = now + rng_.uniform(minLatency_, maxLatency_);
      timed_.push(std::move(env));
      break;
    case Mode::Fifo:
      env.deliverAt = now + minLatency_;
      timed_.push(std::move(env));
      break;
    case Mode::Manual:
      env.deliverAt = now;
      manual_.push_back(std::move(env));
      break;
    case Mode::Pct: {
      env.deliverAt = now + minLatency_;
      PctKey key;
      key.seq = env.seq;
      key.prio = static_cast<std::uint32_t>(rng_.uniform(0, kPctPrioSpan - 1));
      if (pctFree_.empty()) {
        key.slot = static_cast<std::uint32_t>(pctSlots_.size());
        pctSlots_.push_back(std::move(env));
      } else {
        key.slot = pctFree_.back();
        pctFree_.pop_back();
        pctSlots_[key.slot] = std::move(env);
      }
      pct_.push_back(key);
      std::push_heap(pct_.begin(), pct_.end(), pctLess);
      pctStats_.pushes += 1;
      pctStats_.maxDepth = std::max<std::uint64_t>(pctStats_.maxDepth,
                                                   pct_.size());
      break;
    }
  }
  return nextSeq_ - 1;
}

std::size_t Network::inFlight() const {
  switch (mode_) {
    case Mode::Manual: return manual_.size();
    case Mode::Pct: return pct_.size();
    default: return timed_.size();
  }
}

Tick Network::nextDeliveryTime() const {
  LCDC_EXPECT(mode_ != Mode::Manual, "nextDeliveryTime in Manual mode");
  if (mode_ == Mode::Pct) {
    if (pct_.empty()) return kNever;
    return std::max(pctSlots_[pct_.front().slot].deliverAt, pctFloor_);
  }
  return timed_.nextDeliveryTime();
}

void Network::countDelivered(const Envelope& env) {
  stats_.delivered += 1;
  const auto typeIdx = static_cast<std::size_t>(env.msg.type);
  if (typeIdx < stats_.deliveredByType.size()) {
    stats_.deliveredByType[typeIdx] += 1;
  }
}

Envelope Network::popNext() {
  LCDC_EXPECT(mode_ != Mode::Manual, "popNext in Manual mode");
  if (mode_ == Mode::Pct) {
    LCDC_EXPECT(!pct_.empty(), "popNext on empty network");
    std::pop_heap(pct_.begin(), pct_.end(), pctLess);
    const std::uint32_t slot = pct_.back().slot;
    pct_.pop_back();
    Envelope env = std::move(pctSlots_[slot]);
    pctFree_.push_back(slot);
    pctStats_.pops += 1;
    // Deliveries must be monotone in time even when a starved low-priority
    // message finally surfaces with a stale deliverAt.
    env.deliverAt = std::max(env.deliverAt, pctFloor_);
    pctFloor_ = env.deliverAt;
    if (!pct_.empty() && --pctUntilChangePoint_ == 0) {
      for (PctKey& key : pct_) {
        key.prio =
            static_cast<std::uint32_t>(rng_.uniform(0, kPctPrioSpan - 1));
      }
      std::make_heap(pct_.begin(), pct_.end(), pctLess);
      pctUntilChangePoint_ = rng_.uniform(kPctBurstMin, kPctBurstMax);
    }
    countDelivered(env);
    return env;
  }
  LCDC_EXPECT(!timed_.empty(), "popNext on empty network");
  Envelope env = timed_.pop();
  countDelivered(env);
  return env;
}

const std::deque<Envelope>& Network::pending() const {
  LCDC_EXPECT(mode_ == Mode::Manual, "pending() outside Manual mode");
  return manual_;
}

Envelope Network::deliverIndex(std::size_t i) {
  LCDC_EXPECT(mode_ == Mode::Manual, "deliverIndex outside Manual mode");
  LCDC_EXPECT(i < manual_.size(), "deliverIndex out of range");
  Envelope env = std::move(manual_[i]);
  manual_.erase(manual_.begin() + static_cast<std::ptrdiff_t>(i));
  countDelivered(env);
  return env;
}

Envelope Network::deliverSeq(MsgSeq seq) {
  LCDC_EXPECT(mode_ == Mode::Manual, "deliverSeq outside Manual mode");
  // Sequence numbers are assigned monotonically and erases keep relative
  // order, so the pending bag is always sorted by seq: the seq -> index
  // mapping is a binary search, with no side table to maintain.
  const auto it = std::lower_bound(
      manual_.begin(), manual_.end(), seq,
      [](const Envelope& e, MsgSeq s) { return e.seq < s; });
  LCDC_EXPECT(it != manual_.end() && it->seq == seq,
              "deliverSeq: unknown sequence number");
  Envelope env = std::move(*it);
  manual_.erase(it);
  countDelivered(env);
  return env;
}

}  // namespace lcdc::net
