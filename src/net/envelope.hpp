// The envelope vocabulary shared by the network (its key heap and its
// manual bag) and the simulators that drive it.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "proto/messages.hpp"

namespace lcdc::net {

/// Simulated time, in abstract ticks.
using Tick = std::uint64_t;

/// Monotone per-network sequence number; breaks delivery-time ties so runs
/// are fully deterministic.
using MsgSeq = std::uint64_t;

inline constexpr Tick kNever = ~Tick{0};

/// A message in flight.
struct Envelope {
  MsgSeq seq = 0;
  NodeId dst = kNoNode;
  Tick sentAt = 0;
  Tick deliverAt = 0;  ///< unused in Manual mode
  proto::Message msg;
};

}  // namespace lcdc::net
