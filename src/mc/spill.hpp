// The model checker's frontier segments and the rest of its out-of-core
// storage (DESIGN.md §8, §14): the append-only visited log, the bitstate
// dump, and the checkpoint manifest tying them together.
//
// Every wave's frontier is an ordered list of sealed *segments*, each a
// run of records in one layout:
//   varint state id, varint successor bound, varint blobLen,
//   blobLen bytes (WorldCodec blob)
// By default a segment's bytes sit in the wave's ping-pong arena (a new
// arena block starts a new segment); under `--spill`/`--checkpoint` a
// segment is a file of at most 2^16 records.  One writer produces both
// and one bounds-checked reader walks both, so the engine has a single
// frontier path: a wave is cut into record ranges whatever its segment
// boundaries, and each range is expanded the same way.
// A record's successor bound is the exact number of successors a full
// expansion of its world generates; a wave's sum sizes the next wave's
// visited table and id pages.
//
// Segment file layout (all integers little-endian):
//   48-byte header: magic "LCSPILL1", u32 version, u32 reserved,
//                   u64 config digest, u64 record count,
//                   u64 payload bytes, u64 successor-bound sum
//   records:        as above
// Version 2 (bounds instead of in-flight message counts, one-byte id
// sentinels in the blobs) refuses version-1 segments rather than
// misreading them.  The header is patched on seal; mapping a segment
// checks magic/version/digest and its catalogue entry, and every record
// read is bounded, throwing SimError (never UB or invariant aborts) on
// truncated, corrupt, or version-mismatched input.
//
// The *checkpoint manifest* (`MANIFEST`, text, written tmp+rename so a
// kill mid-checkpoint leaves the previous checkpoint intact) records the
// exploration counters at a wave boundary plus the files that rebuild
// the explorer: the visited log's valid byte length (tails past it are
// torn writes and ignored), the bitstate dump, and the pending wave's
// segment list.  `lcdc mc --resume DIR` replays these and continues.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lcdc {
class ArenaRef;
}

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

/// Records between two entries of a segment's offset index.
inline constexpr std::uint64_t kMarkStride = 64;

/// A sealed segment, as listed in a wave's frontier (order matters).
struct SegmentInfo {
  std::string path;                 ///< the file; empty for an arena run
  const std::byte* data = nullptr;  ///< arena backing: the first record
  std::uint64_t records = 0;
  std::uint64_t boundSum = 0;
  std::uint64_t payloadBytes = 0;  ///< blob bytes, varint headers excluded
  std::uint64_t bytes = 0;         ///< record bytes, varint headers included
  /// Offset of every kMarkStride-th record from the first record's start.
  std::vector<std::uint64_t> marks;
};

/// One frontier record; `blob` points into its segment's bytes.
struct FrontierRecord {
  std::uint64_t id = 0;
  std::uint32_t bound = 0;
  const std::byte* blob = nullptr;
  std::uint32_t len = 0;
};

/// Appends frontier records to sealed segments, in an arena or in files.
/// Single-threaded (each expansion task owns its writer).  Destroying a
/// writer with a file still open removes that partial file.
class SegmentWriter {
 public:
  /// Arena backing: records are bumped through `arena`; a record that
  /// needs a new block starts a new segment.
  explicit SegmentWriter(ArenaRef& arena);
  /// File backing: segment n is the file `<base>-<n>.seg`, stamped with
  /// `configDigest` and rolled over every 2^16 records.
  SegmentWriter(std::string base, std::uint64_t configDigest);
  ~SegmentWriter();
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  void add(std::uint64_t id, std::uint32_t bound, const std::byte* blob,
           std::size_t len);
  /// Seal the open segment; returns every sealed segment in write order.
  [[nodiscard]] std::vector<SegmentInfo> finish();

 private:
  void seal();
  void flushBuf();

  ArenaRef* arena_ = nullptr;
  std::string base_;
  std::uint64_t digest_ = 0;
  std::FILE* f_ = nullptr;
  std::uint64_t fileSeq_ = 0;
  std::vector<std::byte> buf_;  ///< record header, or the file's buffer
  SegmentInfo open_;
  std::vector<SegmentInfo> sealed_;
};

/// A whole file mapped read-only for this object's lifetime; SimError when
/// it cannot be opened or mapped.
class FileMap {
 public:
  explicit FileMap(const std::string& path);
  ~FileMap();
  FileMap(const FileMap&) = delete;
  FileMap& operator=(const FileMap&) = delete;

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A sealed segment's record bytes: its arena run, or its file mapped
/// for this object's lifetime once the header has been checked against
/// the segment's catalogue entry (SimError on any mismatch).
class SegmentBytes {
 public:
  SegmentBytes(const SegmentInfo& seg, std::uint64_t configDigest);

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool onDisk() const { return file_.has_value(); }

 private:
  std::optional<FileMap> file_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Decode the record at `pos` of the span [data, data + len) and advance
/// `pos` past it; SimError when the record runs past the span.
[[nodiscard]] FrontierRecord readRecord(const std::byte* data,
                                        std::size_t len, std::size_t& pos);

/// Rebuild the offset index of a segment file named by a checkpoint
/// manifest, reading every record header (SimError when the file holds
/// fewer records than its catalogue entry).
void indexSegment(SegmentInfo& seg, std::uint64_t configDigest);

/// One wave's frontier: its sealed segments in frontier order.
struct Wave {
  std::vector<SegmentInfo> segs;
  std::uint64_t records = 0;
  std::uint64_t boundSum = 0;

  void add(SegmentInfo seg) {
    records += seg.records;
    boundSum += seg.boundSum;
    segs.push_back(std::move(seg));
  }

  /// Call `fn(record, onDisk)` for the records [begin, end) of the wave in
  /// frontier order, across segment boundaries; a file is mapped only
  /// while its records are visited.
  template <typename Fn>
  void forEach(std::uint64_t begin, std::uint64_t end,
               std::uint64_t configDigest, Fn&& fn) const {
    std::uint64_t first = 0;  // wave index of segs[k]'s first record
    for (std::size_t k = 0; k < segs.size() && begin < end;
         first += segs[k++].records) {
      const SegmentInfo& seg = segs[k];
      if (begin >= first + seg.records) continue;
      std::uint64_t i = begin - first;
      const std::uint64_t stop = std::min(end - first, seg.records);
      const SegmentBytes bytes(seg, configDigest);
      std::size_t pos = static_cast<std::size_t>(seg.marks[i / kMarkStride]);
      for (std::uint64_t skip = i % kMarkStride; skip != 0; --skip) {
        (void)readRecord(bytes.data(), bytes.size(), pos);
      }
      for (; i < stop; ++i) {
        fn(readRecord(bytes.data(), bytes.size(), pos), bytes.onDisk());
      }
      begin = first + stop;
    }
  }
};

/// The record ranges [begin, end) one wave of `records` records is cut
/// into for `jobs` workers: `max(records / (8 * jobs), 64)` records each
/// (the last range takes the rest), whatever the segment boundaries.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> cutWave(
    std::uint64_t records, unsigned jobs);

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

  /// Exact-mode record; false at end of the valid prefix.
  [[nodiscard]] bool nextExact(std::vector<std::byte>& enc,
                               std::uint32_t& parent, std::uint64_t& action);
  /// Compact-mode record; false at end of the valid prefix.
  [[nodiscard]] bool nextFp(std::uint64_t& fp);

 private:
  FileMap file_;
  std::size_t len_ = 0;  ///< the valid prefix; a torn tail is ignored
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
