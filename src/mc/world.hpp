// The model checker's state vocabulary for the directory protocol, shared
// by its model (`dir_model.hpp`), the two codecs (canonical binary key /
// lossless frontier blob) and the tests.
//
// A `World` is a full protocol state: every controller as a plain value
// plus the multiset of in-flight messages.  Controllers come from
// `src/proto` unchanged — the checker verifies exactly the code the
// simulator runs.
#pragma once

#include <cstddef>
#include <vector>

#include "mc/model_checker.hpp"
#include "proto/cache.hpp"
#include "proto/directory.hpp"

namespace lcdc::mc {

/// One in-flight message with its destination (the network "bag").
struct Flight {
  NodeId dst = kNoNode;
  proto::Message msg;
};

/// Call `fn` with the action delivering each in-flight message, in bag
/// order (both protocol models' first successor kind).
template <typename Fn>
void forEachDelivery(const std::vector<Flight>& flight, Fn&& fn) {
  for (std::size_t i = 0; i < flight.size(); ++i) {
    Action a;
    a.kind = Action::Kind::Deliver;
    a.flightIndex = static_cast<std::uint32_t>(i);
    a.dst = flight[i].dst;
    a.msgType = flight[i].msg.type;
    a.block = flight[i].msg.block;
    fn(a);
  }
}

/// Remove and return in-flight message `i` (a Deliver action's message).
inline Flight takeFlight(std::vector<Flight>& flight, std::uint32_t i) {
  Flight f = std::move(flight[i]);
  flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
  return f;
}

/// Append a controller's sends from node `src` to the bag, in order.
inline void absorb(std::vector<Flight>& flight, NodeId src,
                   proto::Outbox& ob) {
  for (auto& entry : ob.msgs) {
    entry.msg.src = src;
    flight.push_back(Flight{entry.dst, std::move(entry.msg)});
  }
}

/// A full world state.  Controllers are plain value types, so copying the
/// world is a deep copy of the protocol state.
struct World {
  std::vector<proto::CacheController> caches;
  std::vector<proto::DirectoryController> dirs;  // one in this checker
  std::vector<Flight> flight;
};

/// Processors never see callbacks in the model checker: there is no
/// program, only nondeterministic request intents.
[[nodiscard]] proto::CacheClient& nullCacheClient();

/// The exploration root: one directory slice at node id `numProcessors`
/// owning every block (initial value 0), plus one empty cache per
/// processor.  All copied worlds alias the shared `txns` counter.
[[nodiscard]] World makeInitialWorld(const McConfig& cfg,
                                     proto::TxnCounter& txns);

/// Symmetry reduction relabels at most this many processors; beyond it
/// `StateCodec` (and the text key the codec tests keep as their oracle)
/// keeps the identity.  The codec's cost grows with tie classes of
/// identical processors (P! orders at worst, as in the initial world).
inline constexpr NodeId kMaxSymmetryProcs = 6;

}  // namespace lcdc::mc
