// Out-of-core storage for the model checker (DESIGN.md §14): spill
// segments holding one wave's frontier blobs on disk, the append-only
// visited log, the bitstate dump, and the checkpoint manifest tying them
// together.
//
// A *spill segment* is one chunk's worth of next-wave frontier records,
// written append-only while the chunk expands and sealed at the wave
// barrier.  Draining the next wave reads the sealed segments back in
// chunk order through mmap, so the concatenation of segment records is
// byte-for-byte the same frontier sequence the in-RAM engine builds in
// its ping-pong arenas — which is the whole determinism argument for
// `--visited exact` + spill matching the in-RAM engine for any `--jobs`.
//
// Segment file layout (all integers little-endian):
//   48-byte header: magic "LCSPILL1", u32 version, u32 reserved,
//                   u64 config digest, u64 record count,
//                   u64 payload bytes, u64 successor-bound sum
//   records:        varint state id, varint successor bound,
//                   varint blobLen, blobLen bytes (WorldCodec blob)
// A record's successor bound is the exact number of successors a full
// expansion of its world generates; a wave's sum sizes the next wave's
// visited table and id pages.  Version 2 (bounds instead of in-flight
// message counts, one-byte id sentinels in the blobs) refuses version-1
// segments rather than misreading them.
// The header is patched on seal; readers validate magic/version/digest
// and bound every varint read, throwing SimError (never UB or invariant
// aborts) on truncated, corrupt, or version-mismatched input.
//
// The *checkpoint manifest* (`MANIFEST`, text, written tmp+rename so a
// kill mid-checkpoint leaves the previous checkpoint intact) records the
// exploration counters at a wave boundary plus the files that rebuild
// the explorer: the visited log's valid byte length (tails past it are
// torn writes and ignored), the bitstate dump, and the pending wave's
// segment list.  `lcdc mc --resume DIR` replays these and continues.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace lcdc::mc {

struct McConfig;

/// Digest over the semantic exploration parameters (topology, protocol
/// switches, reductions, visited mode, and under symmetry the canonical
/// form) — the fields that determine the state space, its counts and the
/// stored representatives.  Tuning knobs that only shape *how* the
/// space is walked (jobs, memory limit, state/depth caps, spill and
/// checkpoint paths) are excluded, so a resumed run may lift its caps or
/// change its thread count but never silently switch protocols.
[[nodiscard]] std::uint64_t configDigest(const McConfig& cfg);

inline constexpr std::uint32_t kSpillVersion = 2;

/// A sealed segment as listed in a wave's frontier (order matters).
struct SegmentInfo {
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t boundSum = 0;
  std::uint64_t payloadBytes = 0;
};

/// Append-only writer for one spill segment.  Single-threaded (each
/// expansion chunk owns its writer); buffers in memory and flushes to
/// the file in large writes.  `seal()` patches the header and closes;
/// destroying an unsealed writer removes the partial file.
class SpillSegmentWriter {
 public:
  SpillSegmentWriter(std::string path, std::uint64_t configDigest);
  ~SpillSegmentWriter();
  SpillSegmentWriter(const SpillSegmentWriter&) = delete;
  SpillSegmentWriter& operator=(const SpillSegmentWriter&) = delete;

  void add(std::uint64_t id, std::uint32_t bound, const std::byte* blob,
           std::size_t len);
  /// Flush, patch the header with the final counts, close.  Returns the
  /// segment's catalogue entry.
  [[nodiscard]] SegmentInfo seal();

  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  void flushBuf();

  std::string path_;
  std::uint64_t digest_ = 0;
  std::FILE* f_ = nullptr;
  std::vector<std::byte> buf_;
  std::uint64_t records_ = 0;
  std::uint64_t payloadBytes_ = 0;
  std::uint64_t boundSum_ = 0;
  bool sealed_ = false;
};

/// mmap-backed reader over a sealed segment.  Validates the header on
/// open and bounds every record read; all failure modes raise SimError.
class SpillSegmentReader {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint32_t bound = 0;
    const std::byte* blob = nullptr;
    std::uint32_t len = 0;
  };

  SpillSegmentReader(const std::string& path, std::uint64_t expectDigest);
  ~SpillSegmentReader();
  SpillSegmentReader(const SpillSegmentReader&) = delete;
  SpillSegmentReader& operator=(const SpillSegmentReader&) = delete;

  /// Advance to the next record; false once `records()` have been read.
  [[nodiscard]] bool next(Record& r);

  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t boundSum() const { return boundSum_; }
  [[nodiscard]] std::uint64_t payloadBytes() const { return payloadBytes_; }

 private:
  int fd_ = -1;
  const std::byte* map_ = nullptr;
  std::size_t mapLen_ = 0;
  std::size_t pos_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t read_ = 0;
  std::uint64_t boundSum_ = 0;
  std::uint64_t payloadBytes_ = 0;
};

/// Append-only log of visited-state records, one per state id in id
/// order.  Exact mode appends (encLen, enc, parent, packedAction);
/// compact mode appends bare fingerprints.  The manifest pins the log's
/// valid byte length, so a torn tail from a mid-write kill is truncated
/// on resume instead of misparsed.
class VisitedLogWriter {
 public:
  /// Open `path` for appending with the first `validBytes` preserved
  /// (anything past them — a torn tail — is truncated away).
  VisitedLogWriter(const std::string& path, std::uint64_t validBytes);
  ~VisitedLogWriter();
  VisitedLogWriter(const VisitedLogWriter&) = delete;
  VisitedLogWriter& operator=(const VisitedLogWriter&) = delete;

  void appendExact(const std::byte* enc, std::size_t len, std::uint32_t parent,
                   std::uint64_t action);
  void appendFp(std::uint64_t fp);
  /// Flush buffered records to the file; the manifest may then pin the
  /// returned offset as the new valid length.
  [[nodiscard]] std::uint64_t flush();

 private:
  std::FILE* f_ = nullptr;
  std::vector<std::byte> buf_;
  std::uint64_t offset_ = 0;
};

/// mmap-backed reader over the first `validBytes` of a visited log.
class VisitedLogReader {
 public:
  VisitedLogReader(const std::string& path, std::uint64_t validBytes);
  ~VisitedLogReader();
  VisitedLogReader(const VisitedLogReader&) = delete;
  VisitedLogReader& operator=(const VisitedLogReader&) = delete;

  /// Exact-mode record; false at end of the valid prefix.
  [[nodiscard]] bool nextExact(std::vector<std::byte>& enc,
                               std::uint32_t& parent, std::uint64_t& action);
  /// Compact-mode record; false at end of the valid prefix.
  [[nodiscard]] bool nextFp(std::uint64_t& fp);

 private:
  int fd_ = -1;
  const std::byte* map_ = nullptr;
  std::size_t mapLen_ = 0;
  std::size_t pos_ = 0;
};

/// Bitstate dump: header (magic "LCBLOOM1", u32 version, u32 hashes,
/// u64 digest, u64 word count) + raw words.  Rewritten whole at each
/// checkpoint (tmp+rename).
void writeBitstateFile(const std::string& path, std::uint64_t configDigest,
                       std::uint32_t hashes,
                       const std::vector<std::uint64_t>& words);
[[nodiscard]] std::vector<std::uint64_t> readBitstateFile(
    const std::string& path, std::uint64_t expectDigest,
    std::uint32_t& hashesOut);

/// Everything a resume needs, as stored in `DIR/MANIFEST`.
struct CheckpointManifest {
  std::uint64_t configDigest = 0;
  std::string visitedMode;  ///< "exact" | "compact" | "bitstate"
  std::uint64_t wavesCompleted = 0;
  std::uint64_t statesExplored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t frontierPeak = 0;
  std::uint64_t ampleStates = 0;
  std::uint64_t nextId = 0;
  std::uint64_t txnNext = 1;
  std::uint64_t encodeCalls = 0;
  std::uint64_t insertCalls = 0;
  std::uint64_t storedStates = 0;
  std::uint64_t storedEncodingBytes = 0;
  std::array<std::uint64_t, 6> probeHist{};
  std::uint64_t visitedLogBytes = 0;
  std::uint64_t visitedLogRecords = 0;
  std::uint64_t bitstateWords = 0;
  std::uint32_t bitstateHashes = 0;
  /// Pending (not yet expanded) wave, in frontier order.  `path` holds
  /// the basename; readManifest rejoins it with the checkpoint dir.
  std::vector<SegmentInfo> frontier;
};

/// Write `DIR/MANIFEST` atomically (tmp file + rename).
void writeManifest(const std::string& dir, const CheckpointManifest& m);

/// Parse `DIR/MANIFEST`; every structural problem — missing file, bad
/// version line, short/garbled fields — raises SimError.
[[nodiscard]] CheckpointManifest readManifest(const std::string& dir);

}  // namespace lcdc::mc
