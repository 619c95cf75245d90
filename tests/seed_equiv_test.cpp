// Seed-equivalence pins: the zero-allocation engine must be byte-identical
// to the seed engine.
//
// The golden hashes below were captured from the pre-optimization engine
// (before the calendar queue, envelope pooling, and SmallVector message
// fields).  Each value folds 20 seeded sub-runs of one (workload kind,
// network mode) cell: full trace text, run outcome, NetStats, and checker
// verdicts — see tests/run_fingerprint.hpp for exactly what is hashed.
//
// If a hot-path change alters a single delivered message, Lamport stamp,
// random-latency draw, or verdict anywhere in the matrix, the cell hash
// flips and this suite names the kind/mode that diverged, with the actual
// fingerprint.  Re-pin only for *intentional* behavior changes, by copying
// that fingerprint into kGolden.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>

#include "run_fingerprint.hpp"

namespace lcdc {
namespace {

struct GoldenCell {
  workload::Kind kind;
  net::Network::Mode mode;
  std::uint64_t hash;
};

constexpr net::Network::Mode kRandom = net::Network::Mode::RandomLatency;
constexpr net::Network::Mode kFifo = net::Network::Mode::Fifo;

// Captured from the seed engine; 20 seeds per cell.
const GoldenCell kGolden[] = {
    {workload::Kind::Uniform, kRandom, 0x7008b638241c4191ULL},
    {workload::Kind::Uniform, kFifo, 0xee8d9e9dd5215cd9ULL},
    {workload::Kind::Hot, kRandom, 0xef2c0fb46cb65eb2ULL},
    {workload::Kind::Hot, kFifo, 0x028ef607febb46e0ULL},
    {workload::Kind::ProdCons, kRandom, 0x4cb23ae24d7e3ce7ULL},
    {workload::Kind::ProdCons, kFifo, 0xd21e9474b9d1f864ULL},
    {workload::Kind::Migratory, kRandom, 0x9f2ca0437b914317ULL},
    {workload::Kind::Migratory, kFifo, 0x6d4b576e03c42ce6ULL},
    {workload::Kind::FalseShare, kRandom, 0x88ab5fc1525370c0ULL},
    {workload::Kind::FalseShare, kFifo, 0x6a7e401d4b3bb121ULL},
    {workload::Kind::ReadMostly, kRandom, 0x805d4eb30b439b20ULL},
    {workload::Kind::ReadMostly, kFifo, 0xc33c28978485ce2cULL},
};

constexpr std::uint64_t kSeedsPerCell = 20;

TEST(SeedEquiv, MatrixCoversEveryKindAndTimedMode) {
  // The golden table must stay in sync with the kind enum: every workload
  // family under both timed network modes.
  const auto cells = lcdc::testing::fingerprintMatrix();
  ASSERT_EQ(cells.size(), std::size(kGolden));
  for (const auto& cell : cells) {
    bool found = false;
    for (const auto& g : kGolden) {
      found = found || (g.kind == cell.kind && g.mode == cell.mode);
    }
    EXPECT_TRUE(found) << "cell missing from golden table: "
                       << workload::toString(cell.kind);
  }
}

class SeedEquivCell : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(SeedEquivCell, ByteIdenticalToSeedEngine) {
  const GoldenCell& g = GetParam();
  const lcdc::testing::MatrixCell cell{g.kind, g.mode};
  const std::uint64_t actual =
      lcdc::testing::cellFingerprint(cell, kSeedsPerCell);
  EXPECT_EQ(actual, g.hash)
      << "engine diverged from the seed engine for kind="
      << workload::toString(g.kind) << " mode="
      << (g.mode == kFifo ? "fifo" : "random")
      << "; if the behavior change is intentional, pin that value: 0x"
      << std::hex << actual;
}

std::string cellLabel(const GoldenCell& g) {
  std::string name = workload::toString(g.kind);
  name += g.mode == kFifo ? "Fifo" : "Random";
  return name;
}

std::string cellName(const ::testing::TestParamInfo<GoldenCell>& info) {
  return cellLabel(info.param);
}

// Prints the label instead of the raw bytes, which include the struct's
// padding and so would leak into the discovered test names.
void PrintTo(const GoldenCell& g, std::ostream* os) { *os << cellLabel(g); }

INSTANTIATE_TEST_SUITE_P(AllCells, SeedEquivCell,
                         ::testing::ValuesIn(kGolden), cellName);

}  // namespace
}  // namespace lcdc
