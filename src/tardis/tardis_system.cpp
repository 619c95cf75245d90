#include "tardis/tardis_system.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace lcdc::tardis {

TardisSystem::TardisSystem(const SystemConfig& config, proto::EventSink& sink,
                           net::Network::Mode mode)
    : EventLoop(mode, config, sink), config_(config), rng_(config.seed) {
  // The run stream identifies its backend: streaming checkers configured
  // for a different protocol must refuse it (DESIGN.md §12).
  config_.protocol = ProtocolKind::Tardis;
  LCDC_EXPECT(config_.numProcessors >= 1, "need at least one processor");
  LCDC_EXPECT(config_.numDirectories >= 1, "need at least one directory");
  LCDC_EXPECT(config_.proto.wordsPerBlock >= 1, "blocks need at least 1 word");
  if (config_.proto.leaseLength == 0) config_.proto.leaseLength = 1;
  if (config_.storeBufferDepth > 0) {
    throw SimError(
        "tardis backend does not support the TSO store-buffer extension "
        "(storeBufferDepth must be 0)");
  }
  for (NodeId d = 0; d < config_.numDirectories; ++d) {
    homes_.emplace_back(config_.numProcessors + d, config_.proto, *sink_,
                        txns_);
  }
  procs_.resize(config_.numProcessors);
  for (NodeId p = 0; p < config_.numProcessors; ++p) {
    procs_[p].id = p;
    procs_[p].stamper = clk::OpStamper(p);
    procs_[p].rng = rng_.fork();
    caches_.emplace_back(p, config_, *sink_);
  }
  for (BlockId b = 0; b < config_.numBlocks; ++b) {
    homes_[b % config_.numDirectories].addBlock(
        b, BlockValue(config_.proto.wordsPerBlock, 0));
  }
}

void TardisSystem::setProgram(NodeId proc, const workload::Program& program) {
  LCDC_EXPECT(proc < procs_.size(), "processor index out of range");
  procs_[proc].program = program;
  procs_[proc].pc = 0;
}

void TardisSystem::setProgram(NodeId proc, workload::Program&& program) {
  LCDC_EXPECT(proc < procs_.size(), "processor index out of range");
  procs_[proc].program = std::move(program);
  procs_[proc].pc = 0;
}

void TardisSystem::reset(std::uint64_t seed) {
  // Mirror the constructor's RNG derivations exactly (see sim::System):
  // master from `seed`, network from seed ^ "network", per-processor forks
  // in id order.
  config_.seed = seed;
  rng_ = Rng(seed);
  rewind(seed);
  txns_.next.store(1, std::memory_order_relaxed);
  for (auto& p : procs_) {
    p.stamper.reset();
    p.rng = rng_.fork();
    p.pc = 0;
    p.notBefore.clear();
    p.opsBound = 0;
  }
  for (TardisCache& c : caches_) c.reset();
  for (TardisHome& h : homes_) h.reset();
}

void TardisSystem::progress(NodeId proc) {
  wakeAt(proc, procProgress(procs_[proc]));
}

void TardisSystem::dispatch(const net::Envelope& env) {
  proto::Outbox out;
  if (env.dst >= config_.numProcessors) {
    homes_[env.dst - config_.numProcessors].handle(env.msg, out);
    flush(env.dst, out);
    return;
  }
  Proc& p = procs_[env.dst];
  caches_[env.dst].handle(env.msg, out);
  if (env.msg.type == proto::MsgType::Nack) {
    p.notBefore[env.msg.block] =
        now_ + config_.retryDelay + p.rng.uniform(0, config_.retryDelay);
  } else if (env.msg.type == proto::MsgType::DataShared ||
             env.msg.type == proto::MsgType::DataExclusive) {
    p.notBefore.erase(env.msg.block);
  }
  flush(env.dst, out);
  progress(env.dst);
}

void TardisSystem::injectRequest(NodeId proc, BlockId block, ReqType req) {
  proto::Outbox out;
  caches_[proc].request(block, req, procs_[proc].stamper.lastGlobal(), out);
  flush(proc, out);
}

void TardisSystem::injectEvict(NodeId proc, BlockId block) {
  proto::Outbox out;
  caches_[proc].evict(block, out);
  flush(proc, out);
}

bool TardisSystem::injectBind(NodeId proc, BlockId block, OpKind kind,
                              WordIdx word, Word value) {
  Proc& p = procs_[proc];
  if (!caches_[proc].canBind(block, kind, p.stamper.lastGlobal())) {
    return false;
  }
  bindOp(p, kind, block, word, value);
  return true;
}

void TardisSystem::describeStall(std::ostream& os) const {
  for (const auto& p : procs_) {
    if (p.pc < p.program.steps.size()) os << ' ' << p.id << "@pc=" << p.pc;
  }
}

bool TardisSystem::allProgramsDone() const {
  return std::all_of(procs_.begin(), procs_.end(), [](const Proc& p) {
    return p.pc >= p.program.steps.size();
  });
}

bool TardisSystem::quiescent() const {
  return net_.empty() &&
         std::all_of(caches_.begin(), caches_.end(),
                     [](const TardisCache& c) { return c.quiescent(); }) &&
         std::all_of(homes_.begin(), homes_.end(),
                     [](const TardisHome& h) { return h.quiescent(); });
}

std::uint64_t TardisSystem::totalOpsBound() const {
  std::uint64_t n = 0;
  for (const auto& p : procs_) n += p.opsBound;
  return n;
}

GlobalTime TardisSystem::leaseFrontier(BlockId block) const {
  return homes_[block % config_.numDirectories].entry(block).rts;
}

TardisStats TardisSystem::stats() const {
  TardisStats s;
  for (const TardisCache& c : caches_) s.add(c.stats());
  for (const TardisHome& h : homes_) s.add(h.stats());
  return s;
}

// -- processor side ----------------------------------------------------------

net::Tick TardisSystem::procProgress(Proc& p) {
  TardisCache& cache = caches_[p.id];
  if (cache.waiting()) return net::kNever;
  while (p.pc < p.program.steps.size()) {
    const workload::Step& step = p.program.steps[p.pc];
    switch (step.kind) {
      case workload::StepKind::Evict:
        injectEvict(p.id, step.block);
        p.pc += 1;
        continue;
      case workload::StepKind::PrefetchShared:
      case workload::StepKind::PrefetchExclusive:
        // Tardis has no speculative grant worth modelling here: a prefetch
        // would just be an early lease that may expire before use.
        p.pc += 1;
        continue;
      case workload::StepKind::Load:
      case workload::StepKind::Store:
        break;
    }

    // A re-request for a block whose Writeback is still un-acked must wait
    // for the WbAck (the single writeback record per block is our MSHR).
    if (cache.wbPending(step.block)) return net::kNever;

    const OpKind kind = step.kind == workload::StepKind::Store ? OpKind::Store
                                                               : OpKind::Load;
    if (cache.canBind(step.block, kind, p.stamper.lastGlobal())) {
      bindOp(p, kind, step.block, step.word, step.storeValue);
      p.pc += 1;
      continue;
    }
    // Miss: a Load needs a lease, a Store exclusivity.  A Load on a held
    // lease that failed to bind found it expired in logical time: the
    // request is a Renew carrying our frozen clock, so the home's fresh
    // frontier always clears it — one round trip, no renew storm.
    const auto nb = p.notBefore.find(step.block);
    if (nb != p.notBefore.end() && nb->second > now_) return nb->second;
    injectRequest(p.id, step.block,
                  kind == OpKind::Load ? ReqType::GetShared
                                       : ReqType::GetExclusive);
    return net::kNever;
  }
  return net::kNever;
}

void TardisSystem::bindOp(Proc& p, OpKind kind, BlockId block, WordIdx word,
                          Word value) {
  caches_[p.id].bind(block, kind, word, value, p.stamper, p.opsBound);
  p.opsBound += 1;
}

}  // namespace lcdc::tardis
