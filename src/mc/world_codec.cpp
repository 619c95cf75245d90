#include "mc/world_codec.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "trace/codec.hpp"

namespace lcdc::mc {

namespace {

// The varint primitives and Message/list encoders moved to the shared
// trace codec (trace/codec.hpp) so world blobs, archived binary traces
// and the dsm wire format share one byte-level vocabulary.  The
// world-state composites (MSHR, cache line, directory entry) stay here:
// they are model-checker snapshots, not protocol artifacts.
using trace::codec::getMessage;
using trace::codec::getNodes;
using trace::codec::getStamps;
using trace::codec::getWords;
using trace::codec::putMessage;
using trace::codec::putNodes;
using trace::codec::putStamps;
using trace::codec::putU64;
using trace::codec::putWords;
using Reader = trace::codec::Reader;

// Id fields that mostly hold the all-ones sentinels kNoTransaction and
// kNoNode are written as v+1, so the sentinel costs one varint byte
// instead of ten (or five).  Unsigned wrap-around keeps the mapping a
// bijection over the whole range.
void putTxn(std::vector<std::byte>& out, TransactionId v) {
  putU64(out, v + 1);
}
TransactionId getTxn(Reader& r) { return r.u64() - 1; }
void putNode(std::vector<std::byte>& out, NodeId v) {
  putU64(out, static_cast<NodeId>(v + 1));
}
NodeId getNode(Reader& r) { return static_cast<NodeId>(r.u32() - 1); }

void putMshr(std::vector<std::byte>& out, const proto::Mshr& m) {
  putU64(out, static_cast<std::uint8_t>(m.req));
  putU64(out, m.replySeen ? 1 : 0);
  putU64(out, m.invListKnown ? 1 : 0);
  putNodes(out, m.acksPending);
  putNodes(out, m.earlyAcks);
  putWords(out, m.data);
  putTxn(out, m.txn);
  putU64(out, m.serial);
  putStamps(out, m.stamps);
  putU64(out, m.earlyStamp);
  putU64(out, m.pendingFwd ? 1 : 0);
  if (m.pendingFwd) putMessage(out, *m.pendingFwd);
  putU64(out, m.buffered.size());
  for (const proto::Message& bm : m.buffered) putMessage(out, bm);
}

proto::Mshr getMshr(Reader& r) {
  proto::Mshr m;
  m.req = static_cast<ReqType>(r.u8());
  m.replySeen = r.b();
  m.invListKnown = r.b();
  m.acksPending = getNodes(r);
  m.earlyAcks = getNodes(r);
  m.data = getWords(r);
  m.txn = getTxn(r);
  m.serial = r.u64();
  m.stamps = getStamps(r);
  m.earlyStamp = r.u64();
  if (r.b()) m.pendingFwd = getMessage(r);
  const std::size_t nBuf = r.u64();
  m.buffered.resize(nBuf);
  for (proto::Message& bm : m.buffered) bm = getMessage(r);
  return m;
}

void putLine(std::vector<std::byte>& out, const proto::Line& line) {
  putU64(out, static_cast<std::uint8_t>(line.cstate));
  putU64(out, static_cast<std::uint8_t>(line.astate));
  putWords(out, line.data);
  putU64(out, line.mshr ? 1 : 0);
  if (line.mshr) putMshr(out, *line.mshr);
  putTxn(out, line.ignoreFwdTxn);
  putTxn(out, line.dropInvTxn);
  putTxn(out, line.epochTxn);
  putU64(out, line.epochSerial);
  putU64(out, line.epochTs);
  putWords(out, line.epochStartData);
}

proto::Line getLine(Reader& r) {
  proto::Line line;
  line.cstate = static_cast<CacheState>(r.u8());
  line.astate = static_cast<AState>(r.u8());
  line.data = getWords(r);
  if (r.b()) line.mshr = getMshr(r);
  line.ignoreFwdTxn = getTxn(r);
  line.dropInvTxn = getTxn(r);
  line.epochTxn = getTxn(r);
  line.epochSerial = r.u64();
  line.epochTs = r.u64();
  line.epochStartData = getWords(r);
  return line;
}

void putDirEntry(std::vector<std::byte>& out, const proto::DirEntry& e) {
  putU64(out, static_cast<std::uint8_t>(e.core.state));
  putNodes(out, e.core.cached);
  putNode(out, e.core.busyRequester);
  putU64(out, static_cast<std::uint8_t>(e.core.busyReq));
  putWords(out, e.mem);
  putU64(out, e.clock);
  putU64(out, e.serialCount);
  putTxn(out, e.busyTxn.id);
  putU64(out, e.busyTxn.serial);
  putU64(out, static_cast<std::uint8_t>(e.busyTxn.kind));
  putU64(out, e.busyTxn.block);
  putNode(out, e.busyTxn.requester);
  putU64(out, e.busyHomeTs);
  putStamps(out, e.busyStamps);
}

proto::DirEntry getDirEntry(Reader& r) {
  proto::DirEntry e;
  e.core.state = static_cast<DirState>(r.u8());
  e.core.cached = getNodes(r);
  e.core.busyRequester = getNode(r);
  e.core.busyReq = static_cast<ReqType>(r.u8());
  e.mem = getWords(r);
  e.clock = r.u64();
  e.serialCount = r.u64();
  e.busyTxn.id = getTxn(r);
  e.busyTxn.serial = r.u64();
  e.busyTxn.kind = static_cast<TxnKind>(r.u8());
  e.busyTxn.block = r.u32();
  e.busyTxn.requester = getNode(r);
  e.busyHomeTs = r.u64();
  e.busyStamps = getStamps(r);
  return e;
}

}  // namespace

void WorldCodec::save(const World& w, std::vector<std::byte>& out) const {
  out.clear();
  // Caches (count fixed by configuration).  Lines are emitted sorted by
  // block id so a world's blob does not depend on hash-map iteration
  // order (tidy for debugging; nothing compares blobs).
  for (const proto::CacheController& cache : w.caches) {
    putU64(out, cache.clockRaw());
    const auto& lines = cache.linesRaw();
    putU64(out, lines.size());
    std::vector<BlockId> blocks;
    blocks.reserve(lines.size());
    for (const auto& [block, line] : lines) blocks.push_back(block);
    std::sort(blocks.begin(), blocks.end());
    for (const BlockId b : blocks) {
      putU64(out, b);
      putLine(out, lines.at(b));
    }
  }
  // The single directory slice.
  const auto& entries = w.dirs[0].entriesRaw();
  putU64(out, entries.size());
  std::vector<BlockId> blocks;
  blocks.reserve(entries.size());
  for (const auto& [block, e] : entries) blocks.push_back(block);
  std::sort(blocks.begin(), blocks.end());
  for (const BlockId b : blocks) {
    putU64(out, b);
    putDirEntry(out, entries.at(b));
  }
  // Flight bag, in order (order is part of the world: actions index it).
  putU64(out, w.flight.size());
  for (const Flight& f : w.flight) {
    putU64(out, f.dst);
    putMessage(out, f.msg);
  }
}

World WorldCodec::load(const std::byte* data, std::size_t len) const {
  Reader r{data, len};
  World w;
  for (NodeId p = 0; p < cfg_.numProcessors; ++p) {
    w.caches.emplace_back(p, cfg_.proto, proto::nullSink(), nullCacheClient());
    proto::CacheController& cache = w.caches.back();
    cache.clockRaw() = r.u64();
    const std::size_t nLines = r.u64();
    for (std::size_t i = 0; i < nLines; ++i) {
      const BlockId b = r.u32();
      cache.linesRaw().emplace(b, getLine(r));
    }
    cache.recountLinesHeld();
  }
  w.dirs.emplace_back(cfg_.numProcessors, cfg_.proto, proto::nullSink(),
                      *txns_);
  proto::DirectoryController& dir = w.dirs[0];
  const std::size_t nEntries = r.u64();
  for (std::size_t i = 0; i < nEntries; ++i) {
    const BlockId b = r.u32();
    dir.entriesRaw().emplace(b, getDirEntry(r));
  }
  const std::size_t nFlight = r.u64();
  w.flight.reserve(nFlight);
  for (std::size_t i = 0; i < nFlight; ++i) {
    Flight f;
    f.dst = r.u32();
    f.msg = getMessage(r);
    w.flight.push_back(std::move(f));
  }
  LCDC_EXPECT(r.pos == len, "world blob has trailing bytes");
  return w;
}

}  // namespace lcdc::mc
