// Out-of-core model checking (DESIGN.md §14): spilled frontiers must be
// byte-identical to the in-RAM engine for any --jobs, checkpoints must
// resume to the exact counts of an uninterrupted run (including across a
// simulated kill that leaves torn tails), the lossy visited modes must
// report calibrated omission bounds while agreeing with exact counts on
// small spaces, and every corrupt / truncated / mismatched on-disk input
// must raise SimError — never UB or an invariant abort.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/expect.hpp"
#include "mc/model_checker.hpp"
#include "mc/spill.hpp"
#include "temp_dir.hpp"

namespace lcdc {
namespace {

namespace fs = std::filesystem;

using test::TempDir;

mc::McConfig baseConfig(NodeId procs, BlockId blocks) {
  mc::McConfig cfg;
  cfg.numProcessors = procs;
  cfg.numBlocks = blocks;
  return cfg;
}

void expectSameCounts(const mc::McResult& a, const mc::McResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.statesExplored, b.statesExplored) << label;
  EXPECT_EQ(a.transitions, b.transitions) << label;
  EXPECT_EQ(a.frontierPeak, b.frontierPeak) << label;
  EXPECT_EQ(a.wavesCompleted, b.wavesCompleted) << label;
  EXPECT_EQ(a.ok(), b.ok()) << label;
  EXPECT_EQ(a.deadlockFound, b.deadlockFound) << label;
  EXPECT_EQ(a.violations, b.violations) << label;
  EXPECT_EQ(a.perf.storedStates, b.perf.storedStates) << label;
  EXPECT_EQ(a.perf.storedEncodingBytes, b.perf.storedEncodingBytes) << label;
}

// -- spill == in-RAM ----------------------------------------------------------

TEST(Spill, MatchesInRamEngineOnGoldenConfigsForAnyJobs) {
  struct Case {
    NodeId procs;
    BlockId blocks;
    bool symmetry;
    bool por;
    bool modelData;
    std::uint64_t maxDepth;
  };
  const Case cases[] = {
      {2, 1, false, false, false, 0},
      {2, 1, true, true, false, 0},
      {2, 1, false, false, true, 0},
      {3, 1, true, false, false, 12},
      {2, 2, false, false, false, 10},
  };
  for (const Case& c : cases) {
    mc::McConfig ram = baseConfig(c.procs, c.blocks);
    ram.symmetry = c.symmetry;
    ram.por = c.por;
    ram.modelData = c.modelData;
    ram.maxDepth = c.maxDepth;
    const mc::McResult base = mc::explore(ram);
    for (const unsigned jobs : {1u, 2u, 4u}) {
      TempDir dir("spill_golden");
      mc::McConfig sp = ram;
      sp.jobs = jobs;
      sp.spillDir = dir.path;
      const mc::McResult r = mc::explore(sp);
      const std::string label = std::to_string(c.procs) + "x" +
                                std::to_string(c.blocks) + " jobs=" +
                                std::to_string(jobs);
      expectSameCounts(base, r, label);
      EXPECT_GT(r.perf.spillSegments, 0u) << label;
      EXPECT_GT(r.perf.spillBytesWritten, 0u) << label;
    }
  }
}

// State-capped runs stop at a wave boundary, and the final partial wave
// expands the records with the smallest canonical fingerprints rather
// than a prefix of the frontier (whose order depends on chunk
// scheduling), so every count and verdict is pinned, spilled or not.
TEST(Spill, StateCapStopsAtTheSameWaveBoundaryAsInRam) {
  mc::McConfig ram = baseConfig(3, 1);
  ram.maxStates = 5'000;
  const mc::McResult base = mc::explore(ram);
  EXPECT_TRUE(base.hitStateLimit);
  for (const unsigned jobs : {1u, 3u}) {
    TempDir dir("spill_cap");
    mc::McConfig sp = ram;
    sp.jobs = jobs;
    sp.spillDir = dir.path;
    const mc::McResult r = mc::explore(sp);
    const std::string label = "capped jobs=" + std::to_string(jobs);
    EXPECT_EQ(base.statesExplored, r.statesExplored) << label;
    EXPECT_EQ(base.wavesCompleted, r.wavesCompleted) << label;
    EXPECT_EQ(base.frontierPeak, r.frontierPeak) << label;
    // The capped wave picks its states by canonical fingerprint in RAM and
    // spilled alike, so it also counts the same transitions.
    EXPECT_EQ(base.transitions, r.transitions) << label;
    EXPECT_EQ(base.violations, r.violations) << label;
    EXPECT_EQ(base.ok(), r.ok()) << label;
    EXPECT_TRUE(r.hitStateLimit) << label;
  }
}

TEST(Spill, MutantVerdictSurvivesSpilling) {
  mc::McConfig ram = baseConfig(2, 1);
  ram.proto.mutant = Mutant::SkipInvAckWait;
  const mc::McResult base = mc::explore(ram);
  ASSERT_FALSE(base.ok());
  TempDir dir("spill_mutant");
  mc::McConfig sp = ram;
  sp.spillDir = dir.path;
  const mc::McResult r = mc::explore(sp);
  expectSameCounts(base, r, "mutant");
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(r.counterexample->schedule.empty());
}

TEST(Spill, DrainedRunLeavesNoSegmentsBehind) {
  TempDir dir("spill_cleanup");
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.spillDir = dir.path;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok());
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 0u) << "segments must be deleted as waves drain";
}

// A checkpoint pins its pending wave's segments on disk; once a newer
// checkpoint supersedes it, those segments must be reclaimed — otherwise a
// checkpoint-every-wave run accumulates one wave's worth of dead segments
// per wave for its whole life.  After a completed run, only files the
// final manifest references (plus the manifest and visited log) may
// remain.
TEST(Spill, SupersededCheckpointSegmentsAreReclaimed) {
  TempDir dir("ckpt_reclaim");
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.checkpointDir = dir.path;
  cfg.checkpointEvery = 1;
  const mc::McResult r = mc::explore(cfg);
  EXPECT_TRUE(r.ok());
  const mc::CheckpointManifest m = mc::readManifest(dir.path);
  std::set<std::string> referenced = {"MANIFEST", "visited.log"};
  for (const mc::SegmentInfo& s : m.frontier) {
    referenced.insert(fs::path(s.path).filename().string());
  }
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_TRUE(referenced.count(e.path().filename().string()) != 0)
        << "stale file from a superseded checkpoint: " << e.path();
  }
}

// -- the wave cut -------------------------------------------------------------

constexpr std::uint64_t kCutDigest = 0x5eed;

/// Record i of a synthetic wave: id i, bound i % 7, and a blob of
/// i % 50 + 1 bytes, each the low byte of i.
void addCutRecord(mc::SegmentWriter& w, std::uint64_t i) {
  const std::vector<std::byte> blob(i % 50 + 1,
                                    static_cast<std::byte>(i & 0xFF));
  w.add(i, static_cast<std::uint32_t>(i % 7), blob.data(), blob.size());
}

/// Reading every range the wave is cut into, in range order, must yield
/// each record exactly once and in frontier order.
void expectCutCoversTheWave(const mc::Wave& wave, unsigned jobs,
                            const std::string& label) {
  std::uint64_t next = 0;
  for (const auto& [begin, end] : mc::cutWave(wave.records, jobs)) {
    ASSERT_EQ(begin, next) << label << " jobs=" << jobs;
    wave.forEach(begin, end, kCutDigest,
                 [&](const mc::FrontierRecord& r, bool onDisk) {
                   EXPECT_EQ(onDisk, !wave.segs.front().path.empty());
                   ASSERT_EQ(r.id, next) << label << " jobs=" << jobs;
                   EXPECT_EQ(r.bound, next % 7);
                   ASSERT_EQ(r.len, next % 50 + 1);
                   EXPECT_EQ(r.blob[r.len - 1],
                             static_cast<std::byte>(next & 0xFF));
                   next += 1;
                 });
    EXPECT_EQ(next, end) << label << " jobs=" << jobs;
  }
  EXPECT_EQ(next, wave.records) << label << " jobs=" << jobs;
}

// The engine hands out record ranges, not segments: whatever the segment
// boundaries, in an arena or in files, the ranges cover every record of
// the wave exactly once and in frontier order.
TEST(WaveCut, RangesCoverEveryRecordOnceInFrontierOrder) {
  // Four writers stand for four chunks of the previous wave; small arena
  // blocks give each several segments, one cursor carries across them
  // the way a pooled worker's does.
  constexpr std::uint64_t kChunks[] = {5, 700, 2'000, 1};
  Arena arena(4096);
  ArenaRef cursor(arena);
  mc::Wave inRam;
  TempDir dir("wave_cut");
  mc::Wave onDisk;
  std::uint64_t i = 0;
  for (std::size_t c = 0; c < std::size(kChunks); ++c) {
    mc::SegmentWriter ram(cursor);
    mc::SegmentWriter file(dir.path + "/w1-c" + std::to_string(c),
                           kCutDigest);
    for (std::uint64_t k = 0; k < kChunks[c]; ++k, ++i) {
      addCutRecord(ram, i);
      addCutRecord(file, i);
    }
    for (mc::SegmentInfo& s : ram.finish()) inRam.add(std::move(s));
    for (mc::SegmentInfo& s : file.finish()) onDisk.add(std::move(s));
  }
  ASSERT_EQ(inRam.records, i);
  ASSERT_EQ(onDisk.records, i);
  EXPECT_GT(inRam.segs.size(), 2 * std::size(kChunks))
      << "arena blocks should split the chunks into more segments";
  EXPECT_EQ(onDisk.segs.size(), std::size(kChunks));
  for (const unsigned jobs : {1u, 2u, 3u, 4u, 8u}) {
    expectCutCoversTheWave(inRam, jobs, "arena");
    expectCutCoversTheWave(onDisk, jobs, "files");
  }
}

// 3x1's peak wave (14,601 records) written by one chunk is one segment;
// it still becomes enough ranges to keep four workers busy.
TEST(WaveCut, OneSegmentPeakWaveIsSplitAcrossWorkers) {
  TempDir dir("wave_cut_peak");
  mc::SegmentWriter writer(dir.path + "/w1-c0", kCutDigest);
  for (std::uint64_t i = 0; i < 14'601; ++i) addCutRecord(writer, i);
  mc::Wave wave;
  for (mc::SegmentInfo& s : writer.finish()) wave.add(std::move(s));
  ASSERT_EQ(wave.segs.size(), 1u);
  EXPECT_GE(mc::cutWave(wave.records, 4).size(), 4u);
  expectCutCoversTheWave(wave, 4, "peak wave");
}

// -- checkpoint / resume ------------------------------------------------------

TEST(Checkpoint, MemLimitStopResumesToUninterruptedCounts) {
  mc::McConfig full = baseConfig(3, 1);
  const mc::McResult base = mc::explore(full);

  TempDir dir("ckpt_memlimit");
  mc::McConfig limited = full;
  limited.memLimitMb = 12;
  limited.checkpointDir = dir.path;
  const mc::McResult stopped = mc::explore(limited);
  ASSERT_TRUE(stopped.memLimitHit);
  ASSERT_LT(stopped.statesExplored, base.statesExplored);
  EXPECT_GT(stopped.perf.checkpointBytes, 0u);

  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  const mc::McResult r = mc::explore(resume);
  EXPECT_TRUE(r.resumed);
  EXPECT_FALSE(r.memLimitHit);
  expectSameCounts(base, r, "resumed");
}

TEST(Checkpoint, ResumeIsJobsIndependent) {
  mc::McConfig full = baseConfig(3, 1);
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_jobs");
  mc::McConfig limited = full;
  limited.memLimitMb = 12;
  limited.checkpointDir = dir.path;
  limited.jobs = 3;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  resume.jobs = 2;
  expectSameCounts(base, mc::explore(resume), "jobs 3 then 2");
}

TEST(Checkpoint, DepthStopResumesWithALargerDepth) {
  mc::McConfig deep = baseConfig(3, 1);
  deep.maxDepth = 12;
  const mc::McResult base = mc::explore(deep);

  TempDir dir("ckpt_depth");
  mc::McConfig shallow = deep;
  shallow.maxDepth = 6;
  shallow.checkpointDir = dir.path;
  shallow.checkpointEvery = 4;  // off-cadence: the depth stop still writes
  ASSERT_TRUE(mc::explore(shallow).ok());

  mc::McConfig resume = deep;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "depth 6 -> 12");
}

// Tardis runs on the same engine, so its depth stops resume too: 2x2 to
// depth 10, checkpointed, then resumed to depth 12, ends with the counts of
// an uninterrupted depth-12 run (and a spilled capped run with the in-RAM
// counts).
TEST(Checkpoint, TardisDepthStopResumesWithALargerDepth) {
  mc::McConfig deep = baseConfig(2, 2);
  deep.protocol = ProtocolKind::Tardis;
  deep.maxDepth = 12;
  const mc::McResult base = mc::explore(deep);
  EXPECT_TRUE(base.ok());

  TempDir dir("ckpt_tardis");
  mc::McConfig shallow = deep;
  shallow.maxDepth = 10;
  shallow.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(shallow).ok());

  mc::McConfig resume = deep;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "tardis depth 10 -> 12");

  TempDir spill("spill_tardis");
  mc::McConfig capped = baseConfig(2, 2);
  capped.protocol = ProtocolKind::Tardis;
  capped.maxStates = 20'000;
  mc::McConfig spilled = capped;
  spilled.jobs = 3;
  spilled.spillDir = spill.path;
  expectSameCounts(mc::explore(capped), mc::explore(spilled),
                   "tardis capped, spilled");
}

// A depth stop's last wave is never expanded, so without a checkpoint its
// successors are deduplicated and counted but no world blob is written;
// with one, they are, so the stop stays resumable.
TEST(TerminalWave, DepthStopSpillsNoBlobsUnlessCheckpointed) {
  constexpr std::uint64_t kDepth = 10;
  mc::McConfig cfg = baseConfig(3, 1);
  cfg.maxDepth = kDepth;
  TempDir spillDir("terminal_spill");
  mc::McConfig spilled = cfg;
  spilled.spillDir = spillDir.path;
  const mc::McResult plain = mc::explore(spilled);

  TempDir ckptDir("terminal_ckpt");
  mc::McConfig checkpointed = cfg;
  checkpointed.checkpointDir = ckptDir.path;
  const mc::McResult pinned = mc::explore(checkpointed);
  expectSameCounts(plain, pinned, "spill vs checkpoint");

  std::uint64_t pendingBytes = 0;
  for (const mc::SegmentInfo& s : mc::readManifest(ckptDir.path).frontier) {
    pendingBytes += s.payloadBytes;
  }
  EXPECT_GT(pendingBytes, 0u);
  EXPECT_EQ(pinned.perf.spillBytesWritten,
            plain.perf.spillBytesWritten + pendingBytes)
      << "only the checkpointed run writes the last wave's successors";

  // The run one wave shorter writes, through its checkpoint, exactly what
  // the depth-10 run without one writes.
  TempDir shortDir("terminal_short");
  mc::McConfig shorter = checkpointed;
  shorter.checkpointDir = shortDir.path;
  shorter.maxDepth = kDepth - 1;
  EXPECT_EQ(mc::explore(shorter).perf.spillBytesWritten,
            plain.perf.spillBytesWritten);
}

// Each frontier record stores the exact number of successors a full
// expansion of its world generates.  Chained depth stops expose it: the
// pending wave's bound sum in a checkpoint must equal the transitions the
// next wave then adds.  (The explorer asserts the per-state equality
// itself on every expansion; an action added to the expansion but not
// to the bound trips that assertion as well as this sum.)
TEST(SuccessorBound, FullExpansionGeneratesExactlyTheStoredBound) {
  for (const NodeId procs : {NodeId{2}, NodeId{3}}) {
    for (const int flags : {0, 1, 2, 3, 4, 5, 6, 7}) {
      mc::McConfig cfg = baseConfig(procs, 1);
      cfg.allowEvictions = (flags & 1) != 0;
      cfg.proto.putSharedEnabled = (flags & 2) != 0;
      cfg.modelData = (flags & 4) != 0;
      const std::uint64_t lastDepth = procs == 2 ? 40 : 8;
      const std::string label =
          std::to_string(procs) + "x1 evictions=" +
          std::to_string(cfg.allowEvictions) +
          " putShared=" + std::to_string(cfg.proto.putSharedEnabled) +
          " data=" + std::to_string(cfg.modelData);
      TempDir dir("bound_chain");
      mc::McConfig first = cfg;
      first.maxDepth = 1;
      first.checkpointDir = dir.path;
      mc::McResult prev = mc::explore(first);
      std::uint64_t checkedWaves = 0;
      while (prev.wavesCompleted < lastDepth) {
        std::uint64_t bound = 0;
        for (const mc::SegmentInfo& s : mc::readManifest(dir.path).frontier) {
          bound += s.boundSum;
        }
        if (bound == 0) break;  // space exhausted
        mc::McConfig next = cfg;
        next.maxDepth = prev.wavesCompleted + 1;
        next.resumeDir = dir.path;
        const mc::McResult r = mc::explore(next);
        ASSERT_EQ(r.wavesCompleted, prev.wavesCompleted + 1) << label;
        EXPECT_EQ(r.transitions - prev.transitions, bound)
            << label << " wave " << r.wavesCompleted;
        prev = r;
        checkedWaves += 1;
      }
      EXPECT_GE(checkedWaves, procs == 2 ? 10u : lastDepth - 1) << label;
      EXPECT_TRUE(prev.ok()) << label;
    }
  }
}

TEST(Checkpoint, TornTailPastManifestIsIgnoredOnResume) {
  // A kill mid-write can leave bytes in visited.log past the manifest's
  // pinned length, and stray unsealed segment data.  Resume must truncate
  // the torn tail and reach the uninterrupted counts.
  mc::McConfig full = baseConfig(3, 1);
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_torn");
  mc::McConfig limited = full;
  limited.memLimitMb = 12;
  limited.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  {
    std::ofstream log(dir.path + "/visited.log",
                      std::ios::binary | std::ios::app);
    const char junk[] = "torn-write-garbage";
    log.write(junk, sizeof junk);
  }
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "torn tail");
}

TEST(Checkpoint, CompactModeRoundTrips) {
  mc::McConfig full = baseConfig(3, 1);
  full.visited = mc::VisitedMode::Compact;
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_compact");
  mc::McConfig limited = full;
  limited.memLimitMb = 10;
  limited.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  const mc::McResult r = mc::explore(resume);
  expectSameCounts(base, r, "compact resume");
  EXPECT_GT(r.omissionBound, 0.0);
}

TEST(Checkpoint, BitstateModeRoundTrips) {
  mc::McConfig full = baseConfig(3, 1);
  full.visited = mc::VisitedMode::Bitstate;
  full.bitstateMb = 8;
  const mc::McResult base = mc::explore(full);
  TempDir dir("ckpt_bitstate");
  mc::McConfig limited = full;
  // Exact per-record successor bounds shrank the claim table: 12-14 MiB
  // stop at wave 14, 15 MiB and up run to the end.
  limited.memLimitMb = 13;
  limited.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(limited).memLimitHit);
  mc::McConfig resume = full;
  resume.resumeDir = dir.path;
  expectSameCounts(base, mc::explore(resume), "bitstate resume");
}

// -- lossy visited modes ------------------------------------------------------

TEST(VisitedModes, CompactAgreesWithExactOnSmallSpaces) {
  // At a few thousand states the n(n-1)/2 / 2^64 collision bound is
  // ~1e-13 — a count mismatch here means a logic bug, not bad luck.
  for (const bool modelData : {false, true}) {
    mc::McConfig exact = baseConfig(2, 1);
    exact.modelData = modelData;
    mc::McConfig compact = exact;
    compact.visited = mc::VisitedMode::Compact;
    const mc::McResult a = mc::explore(exact);
    const mc::McResult b = mc::explore(compact);
    expectSameCounts(a, b, modelData ? "data" : "plain");
    EXPECT_EQ(b.omissionBound, b.perf.omissionBound);
    EXPECT_GT(b.omissionBound, 0.0);
    EXPECT_LT(b.omissionBound, 1e-9);
  }
}

TEST(VisitedModes, BitstateAgreesWithExactOnSmallSpaces) {
  mc::McConfig exact = baseConfig(2, 1);
  mc::McConfig bit = exact;
  bit.visited = mc::VisitedMode::Bitstate;
  bit.bitstateMb = 8;
  const mc::McResult a = mc::explore(exact);
  const mc::McResult b = mc::explore(bit);
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.wavesCompleted, b.wavesCompleted);
  EXPECT_GT(b.omissionBound, 0.0);
  EXPECT_LT(b.omissionBound, 1e-6)
      << "2k states in a 2^26-bit array must report a tiny bound";
}

TEST(VisitedModes, TardisLossyModesAgreeWithExactWithinTheCap) {
  mc::McConfig exact = baseConfig(2, 1);
  exact.protocol = ProtocolKind::Tardis;
  exact.maxStates = 20'000;
  const mc::McResult base = mc::explore(exact);
  for (const mc::VisitedMode mode :
       {mc::VisitedMode::Compact, mc::VisitedMode::Bitstate}) {
    mc::McConfig lossy = exact;
    lossy.visited = mode;
    lossy.jobs = 2;
    const mc::McResult r = mc::explore(lossy);
    EXPECT_EQ(r.statesExplored, base.statesExplored) << toString(mode);
    EXPECT_EQ(r.transitions, base.transitions) << toString(mode);
    EXPECT_TRUE(r.ok()) << toString(mode);
  }
}

TEST(VisitedModes, BitstateBoundDegradesWithATinyArray) {
  // Squeezing the same space into the minimum array (2^20 bits) must
  // report a measurably larger bound: the formula reacts to fill.
  mc::McConfig small = baseConfig(2, 1);
  small.visited = mc::VisitedMode::Bitstate;
  small.bitstateMb = 1;
  mc::McConfig big = small;
  big.bitstateMb = 64;
  const double boundSmall = mc::explore(small).omissionBound;
  const double boundBig = mc::explore(big).omissionBound;
  EXPECT_GT(boundSmall, boundBig);
}

TEST(VisitedModes, LossyCounterexampleCarriesNoSchedule) {
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.proto.mutant = Mutant::SkipInvAckWait;
  cfg.visited = mc::VisitedMode::Compact;
  const mc::McResult r = mc::explore(cfg);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(r.counterexample->schedule.empty())
      << "lossy modes keep no parent edges";
}

TEST(VisitedModes, BitstateRejectsPor) {
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.visited = mc::VisitedMode::Bitstate;
  cfg.por = true;
  EXPECT_THROW((void)mc::explore(cfg), SimError);
}

TEST(VisitedModes, DeterministicForAnyJobs) {
  for (const mc::VisitedMode mode :
       {mc::VisitedMode::Compact, mc::VisitedMode::Bitstate}) {
    mc::McConfig one = baseConfig(3, 1);
    one.visited = mode;
    one.bitstateMb = 8;
    one.maxDepth = 10;
    mc::McConfig four = one;
    four.jobs = 4;
    const mc::McResult a = mc::explore(one);
    const mc::McResult b = mc::explore(four);
    EXPECT_EQ(a.statesExplored, b.statesExplored) << toString(mode);
    EXPECT_EQ(a.transitions, b.transitions) << toString(mode);
    EXPECT_EQ(a.omissionBound, b.omissionBound) << toString(mode);
  }
}

// -- corrupt on-disk inputs ---------------------------------------------------

/// Zero the successor-bound sum of every pending segment, in its header
/// and in the manifest alike, leaving the records themselves intact.
void understateBoundSums(const std::string& dir) {
  for (const mc::SegmentInfo& s : mc::readManifest(dir).frontier) {
    std::ifstream in(s.path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    std::fill(bytes.begin() + 40, bytes.begin() + 48, '\0');
    std::ofstream out(s.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::ifstream in(dir + "/MANIFEST", std::ios::binary);
  std::string line;
  std::string patched;
  while (std::getline(in, line)) {
    std::istringstream toks(line);
    std::string key;
    std::string name;
    std::string records;
    if (toks >> key >> name >> records && key == "seg") {
      std::string boundSum;
      std::string payload;
      toks >> boundSum >> payload;
      line = key + ' ' + name + ' ' + records + " 0 " + payload;
    }
    patched += line + '\n';
  }
  in.close();
  std::ofstream out(dir + "/MANIFEST", std::ios::binary | std::ios::trunc);
  out << patched;
}

/// Resuming `cfg` must refuse the wave whose successors outrun its
/// stored bounds, naming them.
void expectBoundOverrun(const mc::McConfig& cfg) {
  try {
    (void)mc::explore(cfg);
    ADD_FAILURE() << "understated bound sums were not refused";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("stored bounds"), std::string::npos)
        << e.what();
  }
}

TEST(SpillHygiene, ConfigMismatchOnResumeRaisesSimError) {
  TempDir dir("bad_config");
  mc::McConfig cfg = baseConfig(3, 1);
  cfg.memLimitMb = 12;
  cfg.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(cfg).memLimitHit);
  mc::McConfig other = baseConfig(2, 1);
  other.resumeDir = dir.path;
  EXPECT_THROW((void)mc::explore(other), SimError);
  mc::McConfig wrongMode = baseConfig(3, 1);
  wrongMode.visited = mc::VisitedMode::Compact;
  wrongMode.resumeDir = dir.path;
  EXPECT_THROW((void)mc::explore(wrongMode), SimError);
}

// Every checkpoint, spill segment and bitstate dump records the config
// digest.  Without symmetry it keeps its format-v2 value, so those files
// keep loading.  With symmetry it also names the canonical form: files
// holding another form's orbit representatives would count some orbits
// twice on resume, so the mismatch refuses them.
TEST(SpillHygiene, ConfigDigestIsPinnedAndNamesTheSymmetryForm) {
  const mc::McConfig plain = baseConfig(3, 1);
  mc::McConfig sym = plain;
  sym.symmetry = true;
  EXPECT_EQ(mc::configDigest(plain), 0xac85cd9338a5ea03ULL);
  EXPECT_EQ(mc::configDigest(sym), 0xafade5a2c939f84bULL);
}

TEST(SpillHygiene, CorruptFilesRaiseSimErrorNotUb) {
  TempDir dir("bad_files");
  mc::McConfig cfg = baseConfig(3, 1);
  cfg.memLimitMb = 12;
  cfg.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(cfg).memLimitHit);

  std::string segPath;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().extension() == ".seg") segPath = e.path().string();
  }
  ASSERT_FALSE(segPath.empty());
  const auto originalSeg = [&] {
    std::ifstream in(segPath, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto writeSeg = [&](const std::string& bytes) {
    std::ofstream out(segPath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const auto resume = [&] {
    mc::McConfig r = baseConfig(3, 1);
    r.resumeDir = dir.path;
    return mc::explore(r);
  };

  // Truncated to a partial header.
  writeSeg(originalSeg.substr(0, 20));
  EXPECT_THROW((void)resume(), SimError);
  // Truncated mid-payload.
  writeSeg(originalSeg.substr(0, originalSeg.size() / 2));
  EXPECT_THROW((void)resume(), SimError);
  // Wrong magic.
  {
    std::string bad = originalSeg;
    bad[0] = 'X';
    writeSeg(bad);
    EXPECT_THROW((void)resume(), SimError);
  }
  // Version bump, and a version-1 segment (in-flight counts where v2
  // records carry successor bounds).
  for (const char version : {'\x09', '\x01'}) {
    std::string bad = originalSeg;
    bad[8] = version;
    writeSeg(bad);
    EXPECT_THROW((void)resume(), SimError);
  }
  // Garbled record count (claims more records than the file holds).
  {
    std::string bad = originalSeg;
    bad[24] = '\xFF';
    bad[25] = '\xFF';
    writeSeg(bad);
    EXPECT_THROW((void)resume(), SimError);
  }
  writeSeg(originalSeg);

  // Garbled manifest: truncation and a foreign header line.
  const std::string manifestPath = dir.path + "/MANIFEST";
  const auto originalManifest = [&] {
    std::ifstream in(manifestPath, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out.write(originalManifest.data(),
              static_cast<std::streamsize>(originalManifest.size() / 3));
  }
  EXPECT_THROW((void)resume(), SimError);
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out << "not-a-manifest v1\n";
  }
  EXPECT_THROW((void)resume(), SimError);
  // A version-1 manifest: intact apart from its header line.
  {
    const std::string v2 = "lcdc-mc-checkpoint v2\n";
    ASSERT_EQ(originalManifest.compare(0, v2.size(), v2), 0);
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out << "lcdc-mc-checkpoint v1\n" << originalManifest.substr(v2.size());
  }
  EXPECT_THROW((void)resume(), SimError);
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out.write(originalManifest.data(),
              static_cast<std::streamsize>(originalManifest.size()));
  }

  // Successor-bound sums understated alike in every pending segment's
  // header and in the manifest.  The records are intact, so only the id
  // guard can notice, once the wave's new ids outrun the pages sized for
  // them; parallel workers must not trip over the refused slot either.
  {
    std::vector<std::pair<std::string, std::string>> saved;
    for (const mc::SegmentInfo& s : mc::readManifest(dir.path).frontier) {
      std::ifstream in(s.path, std::ios::binary);
      saved.emplace_back(s.path,
                         std::string(std::istreambuf_iterator<char>(in), {}));
    }
    understateBoundSums(dir.path);
    mc::McConfig r = baseConfig(3, 1);
    r.resumeDir = dir.path;
    r.jobs = 4;
    expectBoundOverrun(r);
    for (const auto& [path, bytes] : saved) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out.write(originalManifest.data(),
              static_cast<std::streamsize>(originalManifest.size()));
  }

  // Truncated visited log *below* the manifest's pinned length.
  fs::resize_file(dir.path + "/visited.log", 16);
  EXPECT_THROW((void)resume(), SimError);
}

// Bitstate mode keeps no ids, so the table an understated bound would
// overrun is the wave's claim table; its claims are refused the same way.
TEST(SpillHygiene, UnderstatedBoundsInABitstateCheckpointRaiseSimError) {
  TempDir dir("bad_bounds_bitstate");
  mc::McConfig cfg = baseConfig(3, 1);
  cfg.visited = mc::VisitedMode::Bitstate;
  cfg.bitstateMb = 8;
  mc::McConfig stop = cfg;
  stop.maxDepth = 10;
  stop.checkpointDir = dir.path;
  ASSERT_TRUE(mc::explore(stop).ok());
  understateBoundSums(dir.path);
  mc::McConfig resume = cfg;
  resume.resumeDir = dir.path;
  resume.jobs = 4;
  expectBoundOverrun(resume);
}

TEST(SpillHygiene, MissingCheckpointDirectoryRaisesSimError) {
  TempDir dir("nodir");
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.resumeDir = dir.path + "/missing";
  EXPECT_THROW((void)mc::explore(cfg), SimError);
  EXPECT_FALSE(fs::exists(cfg.resumeDir)) << "a failed resume left a directory";
}

TEST(SpillHygiene, ConflictingDirectoriesRaiseSimError) {
  TempDir a("dir_a");
  TempDir b("dir_b");
  mc::McConfig cfg = baseConfig(2, 1);
  cfg.spillDir = a.path;
  cfg.checkpointDir = b.path;
  EXPECT_THROW((void)mc::explore(cfg), SimError);
}

}  // namespace
}  // namespace lcdc
