#include "mc/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

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

/// Open + mmap a file read-only; throws SimError on any failure.
struct Mapping {
  int fd = -1;
  const std::byte* data = nullptr;
  std::size_t len = 0;
};

Mapping mapFile(const std::string& path) {
  Mapping m;
  m.fd = ::open(path.c_str(), O_RDONLY);
  if (m.fd < 0) throwIo("cannot open spill file", path);
  struct stat st{};
  if (::fstat(m.fd, &st) != 0) {
    const int e = errno;
    ::close(m.fd);
    errno = e;
    throwIo("cannot stat spill file", path);
  }
  m.len = static_cast<std::size_t>(st.st_size);
  if (m.len == 0) {
    // mmap of length 0 is EINVAL; an empty file is simply "no bytes".
    return m;
  }
  void* p = ::mmap(nullptr, m.len, PROT_READ, MAP_PRIVATE, m.fd, 0);
  if (p == MAP_FAILED) {
    const int e = errno;
    ::close(m.fd);
    errno = e;
    throwIo("cannot mmap spill file", path);
  }
  m.data = static_cast<const std::byte*>(p);
  return m;
}

void unmapFile(Mapping& m) {
  if (m.data != nullptr) {
    ::munmap(const_cast<std::byte*>(static_cast<const std::byte*>(m.data)),
             m.len);
  }
  if (m.fd >= 0) ::close(m.fd);
  m.data = nullptr;
  m.fd = -1;
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

// -- SpillSegmentWriter ------------------------------------------------------

SpillSegmentWriter::SpillSegmentWriter(std::string path,
                                       std::uint64_t configDigest)
    : path_(std::move(path)), digest_(configDigest) {
  f_ = std::fopen(path_.c_str(), "wb");
  if (f_ == nullptr) throwIo("cannot create spill segment", path_);
  std::byte header[kSpillHeaderBytes] = {};
  if (std::fwrite(header, 1, kSpillHeaderBytes, f_) != kSpillHeaderBytes) {
    throwIo("cannot write spill segment header", path_);
  }
}

SpillSegmentWriter::~SpillSegmentWriter() {
  if (f_ != nullptr) std::fclose(f_);
  if (!sealed_) std::remove(path_.c_str());  // abandon partial segment
}

void SpillSegmentWriter::add(std::uint64_t id, std::uint32_t bound,
                             const std::byte* blob, std::size_t len) {
  using trace::codec::putU64;
  putU64(buf_, id);
  putU64(buf_, bound);
  putU64(buf_, len);
  buf_.insert(buf_.end(), blob, blob + len);
  records_ += 1;
  payloadBytes_ += len;
  boundSum_ += bound;
  if (buf_.size() >= kWriterFlushBytes) flushBuf();
}

void SpillSegmentWriter::flushBuf() {
  if (buf_.empty()) return;
  if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
    throwIo("cannot write spill segment", path_);
  }
  buf_.clear();
}

SegmentInfo SpillSegmentWriter::seal() {
  LCDC_EXPECT(!sealed_, "spill segment sealed twice");
  flushBuf();
  std::byte header[kSpillHeaderBytes] = {};
  std::memcpy(header, kSpillMagic, 8);
  putLE32(header + 8, kSpillVersion);
  putLE32(header + 12, 0);
  putLE64(header + 16, digest_);
  putLE64(header + 24, records_);
  putLE64(header + 32, payloadBytes_);
  putLE64(header + 40, boundSum_);
  if (std::fseek(f_, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, kSpillHeaderBytes, f_) != kSpillHeaderBytes ||
      std::fflush(f_) != 0) {
    throwIo("cannot seal spill segment", path_);
  }
  std::fclose(f_);
  f_ = nullptr;
  sealed_ = true;
  SegmentInfo info;
  info.path = path_;
  info.records = records_;
  info.boundSum = boundSum_;
  info.payloadBytes = payloadBytes_;
  return info;
}

// -- SpillSegmentReader ------------------------------------------------------

SpillSegmentReader::SpillSegmentReader(const std::string& path,
                                       std::uint64_t expectDigest) {
  Mapping m = mapFile(path);
  fd_ = m.fd;
  map_ = m.data;
  mapLen_ = m.len;
  if (mapLen_ < kSpillHeaderBytes) {
    throw SimError("spill segment truncated (no header): " + path);
  }
  if (std::memcmp(map_, kSpillMagic, 8) != 0) {
    throw SimError("spill segment has wrong magic: " + path);
  }
  const std::uint32_t version = getLE32(map_ + 8);
  if (version != kSpillVersion) {
    throw SimError("spill segment version mismatch in " + path + ": got " +
                   std::to_string(version) + ", want " +
                   std::to_string(kSpillVersion));
  }
  const std::uint64_t digest = getLE64(map_ + 16);
  if (digest != expectDigest) {
    throw SimError(
        "spill segment was written for a different configuration: " + path);
  }
  records_ = getLE64(map_ + 24);
  payloadBytes_ = getLE64(map_ + 32);
  boundSum_ = getLE64(map_ + 40);
  pos_ = kSpillHeaderBytes;
  if (payloadBytes_ > mapLen_) {
    throw SimError("spill segment truncated (payload past end): " + path);
  }
}

SpillSegmentReader::~SpillSegmentReader() {
  Mapping m{fd_, map_, mapLen_};
  unmapFile(m);
}

bool SpillSegmentReader::next(Record& r) {
  if (read_ == records_) return false;
  trace::codec::Reader rd{map_, mapLen_, pos_};
  r.id = rd.u64();
  r.bound = rd.u32();
  const std::uint64_t len = rd.u64();
  if (len > mapLen_ - rd.pos) {
    throw SimError("spill segment record truncated (blob passes end of file)");
  }
  r.blob = map_ + rd.pos;
  r.len = static_cast<std::uint32_t>(len);
  pos_ = rd.pos + static_cast<std::size_t>(len);
  read_ += 1;
  return true;
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
                                   std::uint64_t validBytes) {
  Mapping m = mapFile(path);
  fd_ = m.fd;
  map_ = m.data;
  mapLen_ = m.len;
  if (validBytes > mapLen_) {
    Mapping drop{fd_, map_, mapLen_};
    unmapFile(drop);
    fd_ = -1;
    map_ = nullptr;
    throw SimError("visited log shorter than the manifest's valid length: " +
                   path);
  }
  mapLen_ = static_cast<std::size_t>(validBytes);  // ignore torn tail
}

VisitedLogReader::~VisitedLogReader() {
  // mapLen_ was clamped to the valid prefix; unmap wants the original
  // mapping length, but munmap with a shorter length only unmaps part of
  // the mapping on some systems — remap bookkeeping keeps it simple: we
  // mapped st_size bytes, so re-derive it.
  if (map_ != nullptr || fd_ >= 0) {
    struct stat st{};
    std::size_t full = mapLen_;
    if (fd_ >= 0 && ::fstat(fd_, &st) == 0) {
      full = static_cast<std::size_t>(st.st_size);
    }
    Mapping m{fd_, map_, full};
    unmapFile(m);
  }
}

bool VisitedLogReader::nextExact(std::vector<std::byte>& enc,
                                 std::uint32_t& parent,
                                 std::uint64_t& action) {
  if (pos_ == mapLen_) return false;
  trace::codec::Reader rd{map_, mapLen_, pos_};
  const std::uint64_t len = rd.u64();
  if (len > mapLen_ - rd.pos) {
    throw SimError("visited log record truncated (encoding passes valid end)");
  }
  enc.assign(map_ + rd.pos, map_ + rd.pos + len);
  rd.pos += static_cast<std::size_t>(len);
  parent = rd.u32();
  action = rd.u64();
  pos_ = rd.pos;
  return true;
}

bool VisitedLogReader::nextFp(std::uint64_t& fp) {
  if (pos_ == mapLen_) return false;
  trace::codec::Reader rd{map_, mapLen_, pos_};
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
  Mapping m = mapFile(path);
  struct Closer {
    Mapping* m;
    ~Closer() { unmapFile(*m); }
  } closer{&m};
  if (m.len < kBloomHeaderBytes + 8) {
    throw SimError("bitstate dump truncated (no header): " + path);
  }
  if (std::memcmp(m.data, kBloomMagic, 8) != 0) {
    throw SimError("bitstate dump has wrong magic: " + path);
  }
  const std::uint32_t version = getLE32(m.data + 8);
  if (version != kSpillVersion) {
    throw SimError("bitstate dump version mismatch: " + path);
  }
  hashesOut = getLE32(m.data + 12);
  if (getLE64(m.data + 16) != expectDigest) {
    throw SimError(
        "bitstate dump was written for a different configuration: " + path);
  }
  const std::uint64_t nWords = getLE64(m.data + kBloomHeaderBytes);
  if (m.len - kBloomHeaderBytes - 8 < nWords * 8) {
    throw SimError("bitstate dump truncated (words past end): " + path);
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>(nWords));
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = getLE64(m.data + kBloomHeaderBytes + 8 + i * 8);
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
