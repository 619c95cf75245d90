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

/// A fresh PCT priority as a heap rank: the highest priority pops first.
std::uint64_t pctRank(Rng& rng) {
  return kPctPrioSpan - 1 - rng.uniform(0, kPctPrioSpan - 1);
}
}  // namespace

NetStats::NetStats()
    : sentByType(proto::kNumMsgTypes, 0),
      deliveredByType(proto::kNumMsgTypes, 0) {}

Network::Network(Mode mode, Rng rng, Tick minLatency, Tick maxLatency)
    : mode_(mode), rng_(rng), minLatency_(minLatency),
      maxLatency_(maxLatency) {
  LCDC_EXPECT(minLatency_ <= maxLatency_, "latency bounds inverted");
  LCDC_EXPECT(minLatency_ >= 1, "zero latency would allow same-tick loops");
  if (mode_ == Mode::Pct) {
    pctUntilChangePoint_ = rng_.uniform(kPctBurstMin, kPctBurstMax);
  }
}

void Network::reset(Rng rng) {
  rng_ = rng;
  nextSeq_ = 1;
  manual_.clear();
  heap_.clear();
  slots_.clear();
  freeSlots_.clear();
  queueStats_ = QueueStats{};
  floor_ = 0;
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

  std::uint64_t rank = 0;
  switch (mode_) {
    case Mode::RandomLatency:
      env.deliverAt = now + rng_.uniform(minLatency_, maxLatency_);
      rank = env.deliverAt;
      break;
    case Mode::Fifo:
      env.deliverAt = now + minLatency_;
      rank = env.deliverAt;
      break;
    case Mode::Manual:
      env.deliverAt = now;
      manual_.push_back(std::move(env));
      return nextSeq_ - 1;
    case Mode::Pct:
      env.deliverAt = now + minLatency_;
      rank = pctRank(rng_);
      break;
  }
  Key key;
  key.rank = rank;
  key.seq = env.seq;
  if (freeSlots_.empty()) {
    key.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(env));
  } else {
    key.slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[key.slot] = std::move(env);
  }
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), later);
  queueStats_.pushes += 1;
  queueStats_.maxDepth =
      std::max<std::uint64_t>(queueStats_.maxDepth, heap_.size());
  return nextSeq_ - 1;
}

std::size_t Network::inFlight() const {
  return mode_ == Mode::Manual ? manual_.size() : heap_.size();
}

Tick Network::nextDeliveryTime() const {
  LCDC_EXPECT(mode_ != Mode::Manual, "nextDeliveryTime in Manual mode");
  if (heap_.empty()) return kNever;
  return std::max(slots_[heap_.front().slot].deliverAt, floor_);
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
  LCDC_EXPECT(!heap_.empty(), "popNext on empty network");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  Envelope env = std::move(slots_[slot]);
  freeSlots_.push_back(slot);
  queueStats_.pops += 1;
  // Deliveries must be monotone in time even when a starved low-priority
  // Pct message finally surfaces with a stale deliverAt.  (A timed send
  // happens at or after the last delivery, so this never moves a timed
  // envelope.)
  env.deliverAt = std::max(env.deliverAt, floor_);
  floor_ = env.deliverAt;
  if (mode_ == Mode::Pct && !heap_.empty() && --pctUntilChangePoint_ == 0) {
    for (Key& key : heap_) key.rank = pctRank(rng_);
    std::make_heap(heap_.begin(), heap_.end(), later);
    pctUntilChangePoint_ = rng_.uniform(kPctBurstMin, kPctBurstMax);
  }
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
