#include "sim/system.hpp"

#include <algorithm>
#include <functional>

#include "common/expect.hpp"

namespace lcdc::sim {

System::System(const SystemConfig& config, proto::EventSink& sink,
               net::Network::Mode mode)
    : EventLoop(mode, config, sink), config_(config), rng_(config.seed) {
  LCDC_EXPECT(config_.numProcessors >= 1, "need at least one processor");
  LCDC_EXPECT(config_.numDirectories >= 1, "need at least one directory");
  LCDC_EXPECT(config_.proto.wordsPerBlock >= 1, "blocks need at least 1 word");

  procs_.reserve(config_.numProcessors);
  for (NodeId p = 0; p < config_.numProcessors; ++p) {
    procs_.push_back(
        std::make_unique<Processor>(p, config_, sink, rng_.fork()));
  }
  dirs_.reserve(config_.numDirectories);
  for (NodeId d = 0; d < config_.numDirectories; ++d) {
    dirs_.push_back(std::make_unique<proto::DirectoryController>(
        config_.numProcessors + d, config_.proto, sink, txns_));
  }
  for (BlockId b = 0; b < config_.numBlocks; ++b) {
    dirs_[b % config_.numDirectories]->addBlock(
        b, BlockValue(config_.proto.wordsPerBlock, 0));
  }
}

void System::reset(std::uint64_t seed) {
  // Mirror the constructor's RNG derivations exactly: the master stream
  // seeds from `seed`, the network from seed ^ "network", and each
  // processor forks from the master in id order — so a reset-then-run is
  // byte-identical to constructing a fresh System with this seed.
  config_.seed = seed;
  rng_ = Rng(seed);
  rewind(seed);
  txns_.next.store(1, std::memory_order_relaxed);
  for (auto& p : procs_) p->reset(rng_.fork());
  for (auto& d : dirs_) d->reset();
  // A run aborted by a thrown invariant can leave messages in the scratch
  // outbox; drop them so the next run starts clean.
  outbox_.clear();
}

Processor& System::processor(NodeId i) {
  LCDC_EXPECT(i < procs_.size(), "processor index out of range");
  return *procs_[i];
}

proto::DirectoryController& System::directory(std::size_t idx) {
  LCDC_EXPECT(idx < dirs_.size(), "directory index out of range");
  return *dirs_[idx];
}

void System::setProgram(NodeId proc, const workload::Program& program) {
  processor(proc).setProgram(program);
}

void System::setProgram(NodeId proc, workload::Program&& program) {
  processor(proc).setProgram(std::move(program));
}

void System::progress(NodeId proc) {
  Processor& p = *procs_[proc];
  proto::Outbox& out = outbox_;
  const net::Tick wake = p.tryProgress(now_, out);
  flush(proc, out);
  wakeAt(proc, wake);
}

void System::dispatch(const net::Envelope& env) {
  proto::Outbox& out = outbox_;
  if (env.dst < config_.numProcessors) {
    procs_[env.dst]->deliver(env.msg, out);
    flush(env.dst, out);
    progress(env.dst);
  } else {
    const std::size_t d = env.dst - config_.numProcessors;
    LCDC_EXPECT(d < dirs_.size(), "message addressed to unknown node");
    dirs_[d]->handle(env.msg, out);
    flush(env.dst, out);
  }
}

bool System::deliverManualFirst(
    const std::function<bool(const net::Envelope&)>& pred) {
  const auto& pending = net_.pending();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (pred(pending[i])) {
      deliverManual(i);
      return true;
    }
  }
  return false;
}

void System::kick(NodeId proc) { progress(proc); }

void System::injectRequest(NodeId proc, BlockId block, ReqType req) {
  proto::Outbox& out = outbox_;
  processor(proc).cache().issueRequest(block, req, home(block), out);
  flush(proc, out);
}

void System::injectEvict(NodeId proc, BlockId block) {
  proto::CacheController& cache = processor(proc).cache();
  proto::Outbox& out = outbox_;
  const CacheState cs = cache.state(block);
  if (cs == CacheState::ReadWrite) {
    cache.writeback(block, home(block), out);
  } else if (cs == CacheState::ReadOnly && config_.proto.putSharedEnabled) {
    cache.putShared(block);
  }
  flush(proc, out);
}

bool System::injectBind(NodeId proc, BlockId block, OpKind kind, WordIdx word,
                        Word value) {
  return processor(proc).bindDirect(block, kind, word, value);
}

void System::advanceTime(net::Tick ticks) {
  now_ += ticks;
  for (NodeId p = 0; p < procs_.size(); ++p) progress(p);
}

void System::describeStall(std::ostream& os) const {
  for (const auto& p : procs_) {
    if (!p->done()) os << ' ' << p->id() << "@pc=" << p->pc();
  }
}

bool System::allProgramsDone() const {
  return std::all_of(procs_.begin(), procs_.end(),
                     [](const auto& p) { return p->done(); });
}

bool System::quiescent() const {
  if (!net_.empty()) return false;
  for (const auto& p : procs_) {
    if (!p->cache().quiescent()) return false;
  }
  for (const auto& d : dirs_) {
    if (!d->quiescent()) return false;
  }
  return true;
}

std::uint64_t System::totalOpsBound() const {
  std::uint64_t n = 0;
  for (const auto& p : procs_) n += p->opsBound();
  return n;
}

proto::DirStats System::aggregateDirStats() const {
  proto::DirStats s;
  for (const auto& d : dirs_) s.merge(d->stats());
  return s;
}

proto::CacheStats System::aggregateCacheStats() const {
  proto::CacheStats s;
  for (const auto& p : procs_) {
    const proto::CacheStats& c = p->cache().stats();
    s.requestsIssued += c.requestsIssued;
    s.nacksReceived += c.nacksReceived;
    s.putShareds += c.putShareds;
    s.writebacks += c.writebacks;
    s.invalidationsApplied += c.invalidationsApplied;
    s.invalidationsBuffered += c.invalidationsBuffered;
    s.forwardsBuffered += c.forwardsBuffered;
    s.staleInvAcks += c.staleInvAcks;
    s.deadlocksResolved += c.deadlocksResolved;
    s.fwdsDropped += c.fwdsDropped;
    s.invsDropped += c.invsDropped;
  }
  return s;
}

}  // namespace lcdc::sim
