#include "mc/world.hpp"

namespace lcdc::mc {

namespace {

class NullClient final : public proto::CacheClient {
 public:
  void onComplete(BlockId, ReqType) override {}
  void onNacked(BlockId, ReqType, NackKind) override {}
  void onLineUnblocked(BlockId) override {}
};

}  // namespace

proto::CacheClient& nullCacheClient() {
  static NullClient c;
  return c;
}

World makeInitialWorld(const McConfig& cfg, proto::TxnCounter& txns) {
  World w;
  w.dirs.emplace_back(cfg.numProcessors, cfg.proto, proto::nullSink(), txns);
  for (BlockId b = 0; b < cfg.numBlocks; ++b) {
    w.dirs[0].addBlock(b, BlockValue(cfg.proto.wordsPerBlock, 0));
  }
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    w.caches.emplace_back(p, cfg.proto, proto::nullSink(), nullCacheClient());
  }
  return w;
}

}  // namespace lcdc::mc
