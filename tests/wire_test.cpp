// Round-trip fuzz for the shared binary codec and the dsm wire format.
//
// The codec promises one byte-level definition of proto::Message and the
// EventSink record vocabulary, shared by the model checker's world blobs,
// archived binary traces, and the dsm wire frames.  The fuzz checks the
// property that makes that sharing safe: decode(encode(x)) re-encodes to
// the same bytes, for randomized values of every message field, every
// event record variant, and every frame type — plus the incremental
// FrameDecoder reassembling a frame stream from arbitrary split points,
// and the binary trace format round-tripping through the file layer's
// format autodetection.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "dsm/wire.hpp"
#include "proto/messages.hpp"
#include "sim/system.hpp"
#include "temp_dir.hpp"
#include "trace/codec.hpp"
#include "trace/serialize.hpp"
#include "trace/trace.hpp"
#include "workload/generators.hpp"

namespace lcdc {
namespace {

using Bytes = std::vector<std::byte>;

// -- randomized values --------------------------------------------------------

std::uint64_t pick(std::mt19937_64& rng, std::uint64_t bound) {
  return rng() % bound;
}

BlockValue randomValue(std::mt19937_64& rng) {
  BlockValue v;
  const std::size_t words = pick(rng, 7);  // 0..6: inline and spilled
  for (std::size_t i = 0; i < words; ++i) v.push_back(rng());
  return v;
}

proto::Message randomMessage(std::mt19937_64& rng) {
  proto::Message m;
  m.type = static_cast<proto::MsgType>(pick(rng, proto::kNumMsgTypes));
  m.block = static_cast<BlockId>(pick(rng, 1u << 20));
  m.src = static_cast<NodeId>(pick(rng, 64));
  m.requester =
      pick(rng, 8) == 0 ? kNoNode : static_cast<NodeId>(pick(rng, 64));
  m.txn = pick(rng, 8) == 0 ? kNoTransaction : rng();
  m.serial = pick(rng, 100'000);
  m.data = randomValue(rng);
  const std::size_t invs = pick(rng, 10);  // crosses the inline capacity
  for (std::size_t i = 0; i < invs; ++i) {
    m.invTargets.push_back(static_cast<NodeId>(pick(rng, 64)));
  }
  m.ignoreBufferedInv = pick(rng, 2) != 0;
  m.closesTxn = pick(rng, 4) == 0 ? kNoTransaction : rng();
  m.closesSerial = pick(rng, 100'000);
  static constexpr NackKind kNacks[] = {NackKind::GetS_Busy,
                                        NackKind::GetX_Busy,
                                        NackKind::Upg_Exclusive,
                                        NackKind::Upg_Busy};
  m.nackKind = kNacks[pick(rng, 4)];
  m.nackedReq = static_cast<ReqType>(pick(rng, 4));
  const std::size_t stamps = pick(rng, 10);
  for (std::size_t i = 0; i < stamps; ++i) {
    m.stamps.push_back(
        proto::TsStamp{static_cast<NodeId>(pick(rng, 64)), rng() >> 16});
  }
  return m;
}

proto::TxnInfo randomTxnInfo(std::mt19937_64& rng) {
  static constexpr TxnKind kKinds[] = {
      TxnKind::GetS_Idle,      TxnKind::GetS_Shared,
      TxnKind::GetS_Exclusive, TxnKind::GetX_Idle,
      TxnKind::GetX_Shared,    TxnKind::GetX_Exclusive,
      TxnKind::Upg_Shared,     TxnKind::Wb_Exclusive,
      TxnKind::Wb_BusyShared,  TxnKind::Wb_BusyExclusive,
      TxnKind::Wb_BusyExclusiveSelf};
  proto::TxnInfo t;
  t.id = rng();
  t.serial = pick(rng, 100'000);
  t.kind = kKinds[pick(rng, std::size(kKinds))];
  t.block = static_cast<BlockId>(pick(rng, 1u << 16));
  t.requester = static_cast<NodeId>(pick(rng, 64));
  return t;
}

trace::EventRecord randomEvent(std::mt19937_64& rng) {
  const auto node = [&] { return static_cast<NodeId>(pick(rng, 64)); };
  const auto block = [&] { return static_cast<BlockId>(pick(rng, 1u << 16)); };
  const auto order = [&] { return rng() >> 20; };
  switch (pick(rng, 8)) {
    case 0:
      return trace::SerializeRecord{randomTxnInfo(rng), order()};
    case 1:
      return trace::ConvertRecord{rng(), randomTxnInfo(rng).kind, order()};
    case 2: {
      trace::StampRecord s;
      s.node = node();
      s.txn = rng();
      s.serial = pick(rng, 100'000);
      s.block = block();
      s.role = pick(rng, 2) == 0 ? proto::StampRole::Downgrade
                                 : proto::StampRole::Upgrade;
      s.ts = rng() >> 8;
      s.oldA = static_cast<AState>(pick(rng, 3));
      s.newA = static_cast<AState>(pick(rng, 3));
      s.order = order();
      return s;
    }
    case 3:
      return trace::ValueRecord{node(), rng(), block(), randomValue(rng),
                                order()};
    case 4: {
      proto::OpRecord op;
      op.proc = node();
      op.progIdx = pick(rng, 1u << 20);
      op.kind = pick(rng, 2) == 0 ? OpKind::Load : OpKind::Store;
      op.block = block();
      op.word = static_cast<WordIdx>(pick(rng, 8));
      op.value = rng();
      op.boundTxn = pick(rng, 5) == 0 ? kNoTransaction : rng();
      op.boundSerial = pick(rng, 100'000);
      op.ts = Timestamp{rng() >> 16, pick(rng, 1000), node()};
      op.forwarded = pick(rng, 2) != 0;
      op.order = order();
      return op;
    }
    case 5: {
      static constexpr NackKind kNacks[] = {NackKind::GetS_Busy,
                                            NackKind::GetX_Busy,
                                            NackKind::Upg_Exclusive,
                                            NackKind::Upg_Busy};
      return trace::NackRecord{node(), block(), kNacks[pick(rng, 4)],
                               order()};
    }
    case 6:
      return trace::PutSharedRecord{node(), block(), order()};
    default:
      return trace::DeadlockRecord{node(), block(), node(), order()};
  }
}

dsm::Frame randomFrame(std::mt19937_64& rng) {
  switch (pick(rng, 7)) {
    case 0: {
      dsm::HelloFrame h;
      h.role = static_cast<dsm::Role>(pick(rng, 3));
      h.sender = static_cast<std::uint32_t>(pick(rng, 64));
      h.nodes = static_cast<std::uint32_t>(1 + pick(rng, 16));
      h.config.numProcessors = static_cast<NodeId>(1 + pick(rng, 8));
      h.config.numDirectories = static_cast<NodeId>(1 + pick(rng, 8));
      h.config.numBlocks = static_cast<BlockId>(1 + pick(rng, 256));
      h.config.proto.wordsPerBlock = static_cast<WordIdx>(1 + pick(rng, 8));
      h.config.storeBufferDepth = static_cast<std::uint32_t>(pick(rng, 4));
      h.config.seed = rng();
      return h;
    }
    case 1:
      return dsm::MsgFrame{rng() >> 8, static_cast<NodeId>(pick(rng, 128)),
                           randomMessage(rng)};
    case 2:
      return dsm::EventFrame{rng() >> 8, rng() >> 20, randomEvent(rng)};
    case 3:
      return dsm::HeartbeatFrame{rng() >> 8};
    case 4:
      return dsm::FinFrame{rng() >> 8, rng() >> 20};
    case 5: {
      dsm::ProgramFrame p;
      p.chunk = pick(rng, 1000);
      p.last = pick(rng, 2) != 0;
      const std::size_t steps = pick(rng, 40);
      for (std::size_t i = 0; i < steps; ++i) {
        const auto b = static_cast<BlockId>(pick(rng, 64));
        const auto w = static_cast<WordIdx>(pick(rng, 4));
        switch (pick(rng, 3)) {
          case 0: p.steps.push_back(workload::load(b, w)); break;
          case 1: p.steps.push_back(workload::store(b, w, rng())); break;
          default: p.steps.push_back(workload::evict(b)); break;
        }
      }
      return p;
    }
    default:
      return dsm::ChunkDoneFrame{pick(rng, 1000), rng() >> 20};
  }
}

// -- re-encoding equality -----------------------------------------------------

Bytes encodeMessage(const proto::Message& m) {
  Bytes out;
  trace::codec::putMessage(out, m);
  return out;
}

Bytes encodeEvent(const trace::EventRecord& e) {
  Bytes out;
  trace::codec::putEvent(out, e);
  return out;
}

Bytes encodeOneFrame(const dsm::Frame& f) {
  Bytes out;
  dsm::encodeFrame(f, out);
  return out;
}

TEST(WireFuzz, MessageRoundTrip) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < 3000; ++i) {
    const proto::Message m = randomMessage(rng);
    const Bytes bytes = encodeMessage(m);
    trace::codec::Reader r{bytes.data(), bytes.size(), 0};
    const proto::Message back = trace::codec::getMessage(r);
    ASSERT_TRUE(r.done()) << "decoder left trailing bytes at case " << i;
    ASSERT_EQ(encodeMessage(back), bytes) << "re-encode diverged at " << i;
  }
}

TEST(WireFuzz, EventRecordRoundTrip) {
  std::mt19937_64 rng(0xFACADE);
  for (int i = 0; i < 3000; ++i) {
    const trace::EventRecord e = randomEvent(rng);
    const Bytes bytes = encodeEvent(e);
    trace::codec::Reader r{bytes.data(), bytes.size(), 0};
    const trace::EventRecord back = trace::codec::getEvent(r);
    ASSERT_TRUE(r.done()) << "decoder left trailing bytes at case " << i;
    ASSERT_EQ(back.index(), e.index()) << "variant changed at " << i;
    ASSERT_EQ(encodeEvent(back), bytes) << "re-encode diverged at " << i;
  }
}

TEST(WireFuzz, FrameRoundTrip) {
  std::mt19937_64 rng(0xB00);
  for (int i = 0; i < 1500; ++i) {
    const dsm::Frame f = randomFrame(rng);
    const Bytes bytes = encodeOneFrame(f);
    dsm::FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    const auto back = dec.next();
    ASSERT_TRUE(back.has_value()) << "frame did not decode at case " << i;
    ASSERT_EQ(back->index(), f.index()) << "frame type changed at " << i;
    ASSERT_EQ(encodeOneFrame(*back), bytes) << "re-encode diverged at " << i;
    ASSERT_EQ(dec.buffered(), 0u);
    ASSERT_FALSE(dec.next().has_value());
  }
}

TEST(WireFuzz, FrameDecoderReassemblesArbitrarySplits) {
  std::mt19937_64 rng(0xD1CE);
  for (int round = 0; round < 40; ++round) {
    std::vector<dsm::Frame> frames;
    Bytes stream;
    for (int i = 0; i < 25; ++i) {
      frames.push_back(randomFrame(rng));
      dsm::encodeFrame(frames.back(), stream);
    }
    dsm::FrameDecoder dec;
    std::vector<dsm::Frame> out;
    std::size_t at = 0;
    while (at < stream.size()) {
      const std::size_t left = stream.size() - at;
      const std::size_t n = std::min<std::size_t>(left, 1 + pick(rng, 97));
      dec.feed(stream.data() + at, n);
      at += n;
      while (auto f = dec.next()) out.push_back(std::move(*f));
    }
    ASSERT_EQ(out.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(encodeOneFrame(out[i]), encodeOneFrame(frames[i]))
          << "frame " << i << " of round " << round;
    }
    ASSERT_EQ(dec.buffered(), 0u);
  }
}

TEST(WireFuzz, TruncatedPayloadThrows) {
  std::mt19937_64 rng(7);
  const Bytes bytes = encodeOneFrame(randomFrame(rng));
  // Shorten the payload while keeping the length prefix honest: every
  // strict prefix of the payload must be rejected, not misparsed.
  for (std::size_t cut = 5; cut < bytes.size(); ++cut) {
    Bytes mangled(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::uint32_t len = static_cast<std::uint32_t>(cut - 4);
    mangled[0] = static_cast<std::byte>(len & 0xFF);
    mangled[1] = static_cast<std::byte>((len >> 8) & 0xFF);
    mangled[2] = static_cast<std::byte>((len >> 16) & 0xFF);
    mangled[3] = static_cast<std::byte>((len >> 24) & 0xFF);
    dsm::FrameDecoder dec;
    dec.feed(mangled.data(), mangled.size());
    EXPECT_THROW((void)dec.next(), SimError) << "cut at " << cut;
  }
}

TEST(WireFuzz, OversizedFrameRejected) {
  const std::uint32_t huge = (1u << 26) + 1;
  Bytes prefix = {static_cast<std::byte>(huge & 0xFF),
                  static_cast<std::byte>((huge >> 8) & 0xFF),
                  static_cast<std::byte>((huge >> 16) & 0xFF),
                  static_cast<std::byte>((huge >> 24) & 0xFF)};
  dsm::FrameDecoder dec;
  dec.feed(prefix.data(), prefix.size());
  EXPECT_THROW((void)dec.next(), SimError);
}

// -- binary trace archival ----------------------------------------------------

trace::Trace simulatedTrace() {
  SystemConfig cfg;
  cfg.numProcessors = 4;
  cfg.numDirectories = 2;
  cfg.numBlocks = 8;
  cfg.seed = 99;
  workload::WorkloadConfig w;
  w.numProcessors = cfg.numProcessors;
  w.numBlocks = cfg.numBlocks;
  w.opsPerProcessor = 300;
  w.seed = 99;
  const auto progs = workload::make(workload::Kind::Hot, w);
  trace::Trace t;
  sim::System sys(cfg, t);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) sys.setProgram(p, progs[p]);
  const sim::RunResult r = sys.run();
  EXPECT_TRUE(r.ok());
  return t;
}

std::string traceText(const trace::Trace& t) {
  std::ostringstream os;
  trace::save(t, os);
  return os.str();
}

TEST(BinaryTrace, StreamRoundTripPreservesEveryRecord) {
  const trace::Trace t = simulatedTrace();
  std::stringstream ss;
  trace::saveBinary(t, ss);
  const trace::Trace back = trace::loadBinary(ss);
  EXPECT_EQ(traceText(back), traceText(t));
}

TEST(BinaryTrace, FileLayerAutodetectsBothFormats) {
  const trace::Trace t = simulatedTrace();
  const test::TempDir dir("wire");
  const std::string binPath = dir.path + "/bin.trace";
  const std::string txtPath = dir.path + "/txt.trace";
  trace::saveFileBinary(t, binPath);
  trace::saveFile(t, txtPath);
  EXPECT_EQ(traceText(trace::loadFile(binPath)), traceText(t));
  EXPECT_EQ(traceText(trace::loadFile(txtPath)), traceText(t));
}

TEST(BinaryTrace, BinaryIsSmallerThanText) {
  const trace::Trace t = simulatedTrace();
  std::stringstream bin;
  trace::saveBinary(t, bin);
  EXPECT_LT(bin.str().size(), traceText(t).size());
}

}  // namespace
}  // namespace lcdc
