#include "mc/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/arena.hpp"
#include "common/expect.hpp"
#include "common/flat_set.hpp"
#include "mc/model_checker.hpp"
#include "mc/state_codec.hpp"
#include "trace/codec.hpp"

namespace lcdc::mc {

namespace {

constexpr char kSpillMagic[8] = {'L', 'C', 'S', 'P', 'I', 'L', 'L', '1'};
constexpr char kBloomMagic[8] = {'L', 'C', 'B', 'L', 'O', 'O', 'M', '1'};
constexpr std::size_t kSpillHeaderBytes = 48;
constexpr std::size_t kBloomHeaderBytes = 24;
constexpr std::size_t kWriterFlushBytes = std::size_t{1} << 20;
/// Records per segment file before the writer rolls over to the next
/// one: a task maps one file at a time, so this bounds what it maps.
constexpr std::uint64_t kSegmentRecordCap = std::uint64_t{1} << 16;
/// First manifest line.  v2 segment lines carry successor-bound sums
/// (v1 carried in-flight message counts); a v1 manifest is refused.
constexpr char kManifestHeader[] = "lcdc-mc-checkpoint v2";

void putLE32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

void putLE64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

std::uint32_t getLE32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t getLE64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void throwIo(const std::string& what, const std::string& path) {
  throw SimError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::uint64_t configDigest(const McConfig& cfg) {
  std::vector<std::byte> buf;
  using trace::codec::putU64;
  putU64(buf, 0x4C43444331ULL);  // format tag "LCDC1"
  putU64(buf, cfg.numProcessors);
  putU64(buf, cfg.numBlocks);
  putU64(buf, static_cast<std::uint64_t>(cfg.protocol));
  putU64(buf, cfg.proto.wordsPerBlock);
  putU64(buf, cfg.proto.putSharedEnabled ? 1 : 0);
  putU64(buf, static_cast<std::uint64_t>(cfg.proto.mutant));
  putU64(buf, cfg.proto.leaseLength);
  putU64(buf, cfg.allowEvictions ? 1 : 0);
  putU64(buf, cfg.symmetry ? 1 : 0);
  putU64(buf, cfg.por ? 1 : 0);
  putU64(buf, cfg.modelData ? 1 : 0);
  putU64(buf, static_cast<std::uint64_t>(cfg.visited));
  putU64(buf, cfg.visited == VisitedMode::Bitstate ? cfg.bitstateMb : 0);
  if (cfg.symmetry) putU64(buf, kSymmetryCanonicalForm);
  return fingerprintHash(buf.data(), buf.size());
}

// -- SegmentWriter -----------------------------------------------------------

SegmentWriter::SegmentWriter(ArenaRef& arena) : arena_(&arena) {}

SegmentWriter::SegmentWriter(std::string base, std::uint64_t configDigest)
    : base_(std::move(base)), digest_(configDigest) {}

SegmentWriter::~SegmentWriter() {
  if (f_ != nullptr) {
    std::fclose(f_);
    std::remove(open_.path.c_str());  // abandon the partial segment
  }
}

void SegmentWriter::add(std::uint64_t id, std::uint32_t bound,
                        const std::byte* blob, std::size_t len) {
  using trace::codec::putU64;
  std::size_t n = 0;
  if (arena_ != nullptr) {
    buf_.clear();
    putU64(buf_, id);
    putU64(buf_, bound);
    putU64(buf_, len);
    n = buf_.size() + len;
    if (!arena_->fits(n)) seal();
    std::byte* p = arena_->alloc(n);
    if (open_.records == 0) open_.data = p;
    std::memcpy(p, buf_.data(), buf_.size());
    std::memcpy(p + buf_.size(), blob, len);
  } else {
    if (open_.records == kSegmentRecordCap) seal();
    if (f_ == nullptr) {
      open_.path = base_ + "-" + std::to_string(fileSeq_++) + ".seg";
      f_ = std::fopen(open_.path.c_str(), "wb");
      if (f_ == nullptr) throwIo("cannot create spill segment", open_.path);
      const std::byte header[kSpillHeaderBytes] = {};
      if (std::fwrite(header, 1, kSpillHeaderBytes, f_) != kSpillHeaderBytes) {
        throwIo("cannot write spill segment header", open_.path);
      }
    }
    const std::size_t before = buf_.size();
    putU64(buf_, id);
    putU64(buf_, bound);
    putU64(buf_, len);
    buf_.insert(buf_.end(), blob, blob + len);
    n = buf_.size() - before;
    if (buf_.size() >= kWriterFlushBytes) flushBuf();
  }
  if (open_.records % kMarkStride == 0) open_.marks.push_back(open_.bytes);
  open_.records += 1;
  open_.bytes += n;
  open_.payloadBytes += len;
  open_.boundSum += bound;
}

void SegmentWriter::flushBuf() {
  if (buf_.empty()) return;
  if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
    throwIo("cannot write spill segment", open_.path);
  }
  buf_.clear();
}

void SegmentWriter::seal() {
  if (open_.records == 0) return;
  if (f_ != nullptr) {
    flushBuf();
    std::byte header[kSpillHeaderBytes] = {};
    std::memcpy(header, kSpillMagic, 8);
    putLE32(header + 8, kSpillVersion);
    putLE32(header + 12, 0);
    putLE64(header + 16, digest_);
    putLE64(header + 24, open_.records);
    putLE64(header + 32, open_.payloadBytes);
    putLE64(header + 40, open_.boundSum);
    if (std::fseek(f_, 0, SEEK_SET) != 0 ||
        std::fwrite(header, 1, kSpillHeaderBytes, f_) != kSpillHeaderBytes ||
        std::fflush(f_) != 0) {
      throwIo("cannot seal spill segment", open_.path);
    }
    std::fclose(f_);
    f_ = nullptr;
  }
  sealed_.push_back(std::move(open_));
  open_ = SegmentInfo{};
}

std::vector<SegmentInfo> SegmentWriter::finish() {
  seal();
  return std::exchange(sealed_, {});
}

// -- reading segments --------------------------------------------------------

FileMap::FileMap(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throwIo("cannot open spill file", path);
  struct stat st{};
  void* p = MAP_FAILED;
  if (::fstat(fd, &st) == 0) {
    size_ = static_cast<std::size_t>(st.st_size);
    // mmap of length 0 is EINVAL; an empty file is simply "no bytes".
    p = size_ == 0 ? nullptr
                   : ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  const int e = errno;
  ::close(fd);
  errno = e;
  if (p == MAP_FAILED) throwIo("cannot map spill file", path);
  data_ = static_cast<const std::byte*>(p);
}

FileMap::~FileMap() {
  if (data_ != nullptr) ::munmap(const_cast<std::byte*>(data_), size_);
}

SegmentBytes::SegmentBytes(const SegmentInfo& seg,
                           std::uint64_t configDigest) {
  if (seg.path.empty()) {
    data_ = seg.data;
    size_ = static_cast<std::size_t>(seg.bytes);
    return;
  }
  const FileMap& file = file_.emplace(seg.path);
  const std::byte* head = file.data();
  if (file.size() < kSpillHeaderBytes) {
    throw SimError("spill segment truncated (no header): " + seg.path);
  }
  if (std::memcmp(head, kSpillMagic, 8) != 0) {
    throw SimError("spill segment has wrong magic: " + seg.path);
  }
  const std::uint32_t version = getLE32(head + 8);
  if (version != kSpillVersion) {
    throw SimError("spill segment version mismatch in " + seg.path +
                   ": got " + std::to_string(version) + ", want " +
                   std::to_string(kSpillVersion));
  }
  if (getLE64(head + 16) != configDigest) {
    throw SimError(
        "spill segment was written for a different configuration: " +
        seg.path);
  }
  // A freshly sealed segment always agrees with its catalogue entry; a
  // mismatch means the file or the checkpoint manifest was altered after
  // the seal.
  if (getLE64(head + 24) != seg.records ||
      getLE64(head + 32) != seg.payloadBytes ||
      getLE64(head + 40) != seg.boundSum) {
    throw SimError(
        "spill segment header disagrees with its catalogue entry "
        "(corrupt segment or manifest): " +
        seg.path);
  }
  if (seg.payloadBytes > file.size()) {
    throw SimError("spill segment truncated (payload past end): " +
                   seg.path);
  }
  data_ = head + kSpillHeaderBytes;
  size_ = file.size() - kSpillHeaderBytes;
}

FrontierRecord readRecord(const std::byte* data, std::size_t len,
                          std::size_t& pos) {
  trace::codec::Reader rd{data, len, pos};
  FrontierRecord r;
  r.id = rd.u64();
  r.bound = rd.u32();
  const std::uint64_t blobLen = rd.u64();
  if (blobLen > len - rd.pos) {
    throw SimError(
        "frontier record truncated (blob passes the end of its segment)");
  }
  r.blob = data + rd.pos;
  r.len = static_cast<std::uint32_t>(blobLen);
  pos = rd.pos + static_cast<std::size_t>(blobLen);
  return r;
}

void indexSegment(SegmentInfo& seg, std::uint64_t configDigest) {
  const SegmentBytes bytes(seg, configDigest);
  seg.marks.clear();
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < seg.records; ++i) {
    if (i % kMarkStride == 0) seg.marks.push_back(pos);
    (void)readRecord(bytes.data(), bytes.size(), pos);
  }
  seg.bytes = pos;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> cutWave(
    std::uint64_t records, unsigned jobs) {
  const std::uint64_t size = std::max<std::uint64_t>(
      records / (std::uint64_t{8} * std::max(1u, jobs)), 64);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (std::uint64_t begin = 0; begin < records; begin += size) {
    ranges.emplace_back(begin, std::min(records, begin + size));
  }
  return ranges;
}

// -- VisitedLogWriter / VisitedLogReader -------------------------------------

VisitedLogWriter::VisitedLogWriter(const std::string& path,
                                   std::uint64_t validBytes) {
  if (validBytes == 0) {
    f_ = std::fopen(path.c_str(), "wb");
  } else {
    // Keep the valid prefix, drop any torn tail, then append.
    if (::truncate(path.c_str(), static_cast<off_t>(validBytes)) != 0) {
      throwIo("cannot truncate visited log", path);
    }
    f_ = std::fopen(path.c_str(), "ab");
  }
  if (f_ == nullptr) throwIo("cannot open visited log", path);
  offset_ = validBytes;
}

VisitedLogWriter::~VisitedLogWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void VisitedLogWriter::appendExact(const std::byte* enc, std::size_t len,
                                   std::uint32_t parent,
                                   std::uint64_t action) {
  using trace::codec::putU64;
  putU64(buf_, len);
  buf_.insert(buf_.end(), enc, enc + len);
  putU64(buf_, parent);
  putU64(buf_, action);
}

void VisitedLogWriter::appendFp(std::uint64_t fp) {
  trace::codec::putU64(buf_, fp);
}

std::uint64_t VisitedLogWriter::flush() {
  if (!buf_.empty()) {
    if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
      throw SimError(std::string("cannot append to visited log: ") +
                     std::strerror(errno));
    }
    offset_ += buf_.size();
    buf_.clear();
  }
  if (std::fflush(f_) != 0) {
    throw SimError(std::string("cannot flush visited log: ") +
                   std::strerror(errno));
  }
  return offset_;
}

VisitedLogReader::VisitedLogReader(const std::string& path,
                                   std::uint64_t validBytes)
    : file_(path) {
  if (validBytes > file_.size()) {
    throw SimError("visited log shorter than the manifest's valid length: " +
                   path);
  }
  len_ = static_cast<std::size_t>(validBytes);
}

bool VisitedLogReader::nextExact(std::vector<std::byte>& enc,
                                 std::uint32_t& parent,
                                 std::uint64_t& action) {
  if (pos_ == len_) return false;
  trace::codec::Reader rd{file_.data(), len_, pos_};
  const std::uint64_t len = rd.u64();
  if (len > len_ - rd.pos) {
    throw SimError("visited log record truncated (encoding passes valid end)");
  }
  enc.assign(file_.data() + rd.pos, file_.data() + rd.pos + len);
  rd.pos += static_cast<std::size_t>(len);
  parent = rd.u32();
  action = rd.u64();
  pos_ = rd.pos;
  return true;
}

bool VisitedLogReader::nextFp(std::uint64_t& fp) {
  if (pos_ == len_) return false;
  trace::codec::Reader rd{file_.data(), len_, pos_};
  fp = rd.u64();
  pos_ = rd.pos;
  return true;
}

// -- bitstate dump -----------------------------------------------------------

void writeBitstateFile(const std::string& path, std::uint64_t configDigest,
                       std::uint32_t hashes,
                       const std::vector<std::uint64_t>& words) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throwIo("cannot create bitstate dump", tmp);
  std::byte header[kBloomHeaderBytes] = {};
  std::memcpy(header, kBloomMagic, 8);
  putLE32(header + 8, kSpillVersion);
  putLE32(header + 12, hashes);
  putLE64(header + 16, configDigest);
  bool ok = std::fwrite(header, 1, kBloomHeaderBytes, f) == kBloomHeaderBytes;
  std::byte count[8];
  putLE64(count, words.size());
  ok = ok && std::fwrite(count, 1, 8, f) == 8;
  for (std::size_t i = 0; ok && i < words.size(); ++i) {
    std::byte w[8];
    putLE64(w, words[i]);
    ok = std::fwrite(w, 1, 8, f) == 8;
  }
  ok = ok && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) throwIo("cannot write bitstate dump", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throwIo("cannot publish bitstate dump", path);
  }
}

std::vector<std::uint64_t> readBitstateFile(const std::string& path,
                                            std::uint64_t expectDigest,
                                            std::uint32_t& hashesOut) {
  const FileMap m(path);
  if (m.size() < kBloomHeaderBytes + 8) {
    throw SimError("bitstate dump truncated (no header): " + path);
  }
  if (std::memcmp(m.data(), kBloomMagic, 8) != 0) {
    throw SimError("bitstate dump has wrong magic: " + path);
  }
  const std::uint32_t version = getLE32(m.data() + 8);
  if (version != kSpillVersion) {
    throw SimError("bitstate dump version mismatch: " + path);
  }
  hashesOut = getLE32(m.data() + 12);
  if (getLE64(m.data() + 16) != expectDigest) {
    throw SimError(
        "bitstate dump was written for a different configuration: " + path);
  }
  const std::uint64_t nWords = getLE64(m.data() + kBloomHeaderBytes);
  if (m.size() - kBloomHeaderBytes - 8 < nWords * 8) {
    throw SimError("bitstate dump truncated (words past end): " + path);
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>(nWords));
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = getLE64(m.data() + kBloomHeaderBytes + 8 + i * 8);
  }
  return words;
}

// -- checkpoint manifest -----------------------------------------------------

namespace {

std::string baseName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

void writeManifest(const std::string& dir, const CheckpointManifest& m) {
  const std::string path = dir + "/MANIFEST";
  const std::string tmp = path + ".tmp";
  std::ostringstream os;
  os << kManifestHeader << '\n';
  os << "config " << std::hex << m.configDigest << std::dec << '\n';
  os << "visited " << m.visitedMode << '\n';
  os << "waves " << m.wavesCompleted << '\n';
  os << "states " << m.statesExplored << '\n';
  os << "transitions " << m.transitions << '\n';
  os << "frontierPeak " << m.frontierPeak << '\n';
  os << "ample " << m.ampleStates << '\n';
  os << "nextId " << m.nextId << '\n';
  os << "txnNext " << m.txnNext << '\n';
  os << "encodeCalls " << m.encodeCalls << '\n';
  os << "insertCalls " << m.insertCalls << '\n';
  os << "storedStates " << m.storedStates << '\n';
  os << "storedEncodingBytes " << m.storedEncodingBytes << '\n';
  os << "probeHist";
  for (const std::uint64_t h : m.probeHist) os << ' ' << h;
  os << '\n';
  os << "visitedLog " << m.visitedLogBytes << ' ' << m.visitedLogRecords
     << '\n';
  os << "bitstate " << m.bitstateWords << ' ' << m.bitstateHashes << '\n';
  os << "segments " << m.frontier.size() << '\n';
  for (const SegmentInfo& s : m.frontier) {
    os << "seg " << baseName(s.path) << ' ' << s.records << ' ' << s.boundSum
       << ' ' << s.payloadBytes << '\n';
  }
  os << "end\n";
  const std::string text = os.str();
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throwIo("cannot create checkpoint manifest", tmp);
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) throwIo("cannot write checkpoint manifest", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throwIo("cannot publish checkpoint manifest", path);
  }
}

namespace {

/// Pull the next line and split it at spaces; SimError on EOF.
std::vector<std::string> manifestLine(std::istream& is,
                                      const std::string& path) {
  std::string line;
  if (!std::getline(is, line)) {
    throw SimError("checkpoint manifest truncated: " + path);
  }
  std::vector<std::string> toks;
  std::istringstream ls(line);
  std::string t;
  while (ls >> t) toks.push_back(t);
  return toks;
}

std::uint64_t manifestU64(const std::vector<std::string>& toks,
                          std::size_t idx, const char* key,
                          const std::string& path) {
  if (idx >= toks.size()) {
    throw SimError(std::string("checkpoint manifest field '") + key +
                   "' malformed: " + path);
  }
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(toks[idx], &used, 10);
    if (used != toks[idx].size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw SimError(std::string("checkpoint manifest field '") + key +
                   "' is not a number: " + path);
  }
}

std::uint64_t expectKeyedU64(std::istream& is, const char* key,
                             const std::string& path) {
  const auto toks = manifestLine(is, path);
  if (toks.size() != 2 || toks[0] != key) {
    throw SimError(std::string("checkpoint manifest expected '") + key +
                   "' line: " + path);
  }
  return manifestU64(toks, 1, key, path);
}

}  // namespace

CheckpointManifest readManifest(const std::string& dir) {
  const std::string path = dir + "/MANIFEST";
  std::ifstream is(path);
  if (!is) {
    throw SimError("cannot open checkpoint manifest: " + path);
  }
  std::string header;
  if (!std::getline(is, header) || header != kManifestHeader) {
    throw SimError("checkpoint manifest has wrong header (want '" +
                   std::string(kManifestHeader) + "'): " + path);
  }
  CheckpointManifest m;
  {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 2 || toks[0] != "config") {
      throw SimError("checkpoint manifest expected 'config' line: " + path);
    }
    try {
      std::size_t used = 0;
      m.configDigest = std::stoull(toks[1], &used, 16);
      if (used != toks[1].size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw SimError("checkpoint manifest config digest malformed: " + path);
    }
  }
  {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 2 || toks[0] != "visited" ||
        (toks[1] != "exact" && toks[1] != "compact" &&
         toks[1] != "bitstate")) {
      throw SimError("checkpoint manifest expected 'visited' line: " + path);
    }
    m.visitedMode = toks[1];
  }
  m.wavesCompleted = expectKeyedU64(is, "waves", path);
  m.statesExplored = expectKeyedU64(is, "states", path);
  m.transitions = expectKeyedU64(is, "transitions", path);
  m.frontierPeak = expectKeyedU64(is, "frontierPeak", path);
  m.ampleStates = expectKeyedU64(is, "ample", path);
  m.nextId = expectKeyedU64(is, "nextId", path);
  m.txnNext = expectKeyedU64(is, "txnNext", path);
  m.encodeCalls = expectKeyedU64(is, "encodeCalls", path);
  m.insertCalls = expectKeyedU64(is, "insertCalls", path);
  m.storedStates = expectKeyedU64(is, "storedStates", path);
  m.storedEncodingBytes = expectKeyedU64(is, "storedEncodingBytes", path);
  {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 1 + m.probeHist.size() || toks[0] != "probeHist") {
      throw SimError("checkpoint manifest expected 'probeHist' line: " + path);
    }
    for (std::size_t i = 0; i < m.probeHist.size(); ++i) {
      m.probeHist[i] = manifestU64(toks, i + 1, "probeHist", path);
    }
  }
  {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 3 || toks[0] != "visitedLog") {
      throw SimError("checkpoint manifest expected 'visitedLog' line: " + path);
    }
    m.visitedLogBytes = manifestU64(toks, 1, "visitedLog", path);
    m.visitedLogRecords = manifestU64(toks, 2, "visitedLog", path);
  }
  {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 3 || toks[0] != "bitstate") {
      throw SimError("checkpoint manifest expected 'bitstate' line: " + path);
    }
    m.bitstateWords = manifestU64(toks, 1, "bitstate", path);
    m.bitstateHashes =
        static_cast<std::uint32_t>(manifestU64(toks, 2, "bitstate", path));
  }
  const std::uint64_t nSegs = expectKeyedU64(is, "segments", path);
  for (std::uint64_t i = 0; i < nSegs; ++i) {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 5 || toks[0] != "seg") {
      throw SimError("checkpoint manifest expected 'seg' line: " + path);
    }
    if (toks[1].find('/') != std::string::npos || toks[1] == ".." ||
        toks[1].empty()) {
      throw SimError("checkpoint manifest segment name malformed: " + path);
    }
    SegmentInfo s;
    s.path = dir + "/" + toks[1];
    s.records = manifestU64(toks, 2, "seg", path);
    s.boundSum = manifestU64(toks, 3, "seg", path);
    s.payloadBytes = manifestU64(toks, 4, "seg", path);
    m.frontier.push_back(std::move(s));
  }
  {
    const auto toks = manifestLine(is, path);
    if (toks.size() != 1 || toks[0] != "end") {
      throw SimError("checkpoint manifest missing 'end' marker: " + path);
    }
  }
  return m;
}

}  // namespace lcdc::mc
