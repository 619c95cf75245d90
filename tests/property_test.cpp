// Property-based sweeps: for many (seed × topology × workload) points, the
// protocol must drain to quiescence and the full Section 3 property suite
// must hold on the recorded trace.
//
// These sweeps are the dynamic analogue of the paper's universally
// quantified lemmas: each point is one concrete execution of the protocol
// under adversarial message reordering, and the checkers re-establish every
// claim on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "testutil.hpp"

namespace lcdc {
namespace {

using WorkloadFn =
    std::vector<workload::Program> (*)(const workload::WorkloadConfig&);

std::vector<workload::Program> hotBlockDefault(
    const workload::WorkloadConfig& cfg) {
  return workload::hotBlock(cfg);
}

struct SweepParam {
  const char* name;
  WorkloadFn make;
  NodeId procs;
  NodeId dirs;
  BlockId blocks;
  std::uint32_t capacity;  // 0 = unbounded
  bool putShared;
  std::uint64_t seed;
};

std::string sweepLabel(const SweepParam& p) {
  return std::string(p.name) + "_p" + std::to_string(p.procs) + "b" +
         std::to_string(p.blocks) + "c" + std::to_string(p.capacity) +
         (p.putShared ? "_ps" : "_nops") + "_s" + std::to_string(p.seed);
}

std::string paramName(const testing::TestParamInfo<SweepParam>& info) {
  return sweepLabel(info.param);
}

// Prints the label instead of the raw bytes, which hold a pointer and so
// would put an address into every discovered test name.
void PrintTo(const SweepParam& p, std::ostream* os) { *os << sweepLabel(p); }

class ProtocolSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, AllPropertiesHold) {
  const SweepParam& p = GetParam();
  SystemConfig cfg;
  cfg.numProcessors = p.procs;
  cfg.numDirectories = p.dirs;
  cfg.numBlocks = p.blocks;
  cfg.cacheCapacity = p.capacity;
  cfg.proto.putSharedEnabled = p.putShared;
  cfg.seed = p.seed;

  auto w = test::workloadFor(cfg, 600, p.seed * 7919 + 13);
  w.storePercent = 40;
  w.evictPercent = 8;
  const auto programs = p.make(w);

  const test::RunOutput out = test::runVerified(cfg, programs);
  ASSERT_TRUE(out.result.ok())
      << toString(out.result.outcome) << ": " << out.result.detail;
  EXPECT_TRUE(out.report.ok()) << out.report.summary();
  EXPECT_GT(out.report.opsChecked, 0u);
}

constexpr SweepParam kSweep[] = {
    // Uniform random, various shapes and seeds.
    {"uniform", workload::uniformRandom, 2, 1, 4, 0, true, 1},
    {"uniform", workload::uniformRandom, 2, 1, 1, 0, true, 2},
    {"uniform", workload::uniformRandom, 3, 3, 8, 0, true, 3},
    {"uniform", workload::uniformRandom, 4, 2, 16, 0, true, 4},
    {"uniform", workload::uniformRandom, 8, 4, 64, 0, true, 5},
    {"uniform", workload::uniformRandom, 16, 8, 128, 0, true, 6},
    {"uniform", workload::uniformRandom, 8, 1, 32, 0, false, 7},
    {"uniform", workload::uniformRandom, 5, 3, 24, 0, false, 8},
    // Tight caches: heavy writebacks, Put-Shared and the 13/14 races.
    {"uniform", workload::uniformRandom, 4, 2, 32, 4, true, 9},
    {"uniform", workload::uniformRandom, 8, 4, 64, 3, true, 10},
    {"uniform", workload::uniformRandom, 6, 2, 48, 2, true, 11},
    {"uniform", workload::uniformRandom, 8, 4, 64, 3, false, 12},
    // Hot blocks: NACK storms, upgrade races, invalidation fan-out.
    {"hot", hotBlockDefault, 4, 2, 8, 0, true, 13},
    {"hot", hotBlockDefault, 8, 2, 16, 0, true, 14},
    {"hot", hotBlockDefault, 12, 4, 16, 3, true, 15},
    {"hot", hotBlockDefault, 6, 1, 8, 2, true, 16},
    {"hot", hotBlockDefault, 8, 2, 16, 0, false, 17},
    // Structured sharing patterns.
    {"prodcons", workload::producerConsumer, 4, 2, 16, 0, true, 18},
    {"prodcons", workload::producerConsumer, 8, 4, 16, 4, true, 19},
    {"migratory", workload::migratory, 4, 2, 16, 0, true, 20},
    {"migratory", workload::migratory, 8, 4, 16, 3, true, 21},
    {"falseshare", workload::falseSharing, 4, 1, 4, 0, true, 22},
    {"falseshare", workload::falseSharing, 8, 2, 4, 2, true, 23},
    {"readmostly", workload::readMostly, 8, 4, 16, 0, true, 24},
    {"readmostly", workload::readMostly, 16, 4, 16, 4, true, 25},
};

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolSweep, testing::ValuesIn(kSweep),
                         paramName);

// Across a broad seed sweep on one contended configuration, every one of
// the 14 transactions (and every NACK case) must actually occur — the
// reproduction exercises the whole of Table 1's transaction space, races
// included.
TEST(Coverage, AllFourteenTransactionsOccur) {
  proto::DirStats total;
  proto::CacheStats cacheTotal;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SystemConfig cfg;
    cfg.numProcessors = 6;
    cfg.numDirectories = 2;
    cfg.numBlocks = 6;
    cfg.cacheCapacity = 2;
    cfg.seed = seed;
    auto w = test::workloadFor(cfg, 500, seed);
    w.storePercent = 45;
    w.evictPercent = 12;
    const auto programs = workload::hotBlock(w, 80, 3);
    const test::RunOutput out = test::runVerified(cfg, programs);
    ASSERT_TRUE(out.result.ok()) << "seed " << seed << ": "
                                 << toString(out.result.outcome);
    ASSERT_TRUE(out.report.ok()) << "seed " << seed << ": "
                                 << out.report.summary();
    total.merge(out.dirStats);
    cacheTotal.deadlocksResolved += out.cacheStats.deadlocksResolved;
    cacheTotal.staleInvAcks += out.cacheStats.staleInvAcks;
    cacheTotal.putShareds += out.cacheStats.putShareds;
  }
  const TxnKind kinds[] = {
      TxnKind::GetS_Idle,      TxnKind::GetS_Shared,
      TxnKind::GetS_Exclusive, TxnKind::GetX_Idle,
      TxnKind::GetX_Shared,    TxnKind::GetX_Exclusive,
      TxnKind::Upg_Shared,     TxnKind::Wb_Exclusive,
      TxnKind::Wb_BusyShared,  TxnKind::Wb_BusyExclusive,
      TxnKind::Wb_BusyExclusiveSelf,
  };
  for (const TxnKind k : kinds) {
    EXPECT_GT(total.txnByKind[static_cast<std::uint8_t>(k)], 0u)
        << "transaction " << toString(k) << " never exercised";
  }
  const NackKind nacks[] = {NackKind::GetS_Busy, NackKind::GetX_Busy,
                            NackKind::Upg_Exclusive, NackKind::Upg_Busy};
  for (const NackKind k : nacks) {
    EXPECT_GT(total.nackByKind[static_cast<std::uint8_t>(k)], 0u)
        << "NACK case " << toString(k) << " never exercised";
  }
  EXPECT_GT(cacheTotal.putShareds, 0u);
  EXPECT_GT(cacheTotal.staleInvAcks, 0u);
}

}  // namespace
}  // namespace lcdc
