// Adversarial-scheduler fuzzing: drive the system in Manual network mode
// and pick the next message to deliver *uniformly at random from the whole
// in-flight bag*.  This explores interleavings a timed network can be
// arbitrarily unlikely to produce (e.g. a message overtaken by thousands of
// later ones), which is where the deepest protocol races hide.  Every
// schedule must drain and verify.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "testutil.hpp"

namespace lcdc {
namespace {

struct AdversaryParam {
  std::uint64_t seed;
  NodeId procs;
  BlockId blocks;
  std::uint32_t capacity;
  bool putShared;
};

class AdversarySweep : public testing::TestWithParam<AdversaryParam> {};

TEST_P(AdversarySweep, RandomDeliveryOrderStaysCorrect) {
  const AdversaryParam& prm = GetParam();
  SystemConfig cfg;
  cfg.numProcessors = prm.procs;
  cfg.numDirectories = 2;
  cfg.numBlocks = prm.blocks;
  cfg.cacheCapacity = prm.capacity;
  cfg.proto.putSharedEnabled = prm.putShared;
  cfg.seed = prm.seed;

  auto w = test::workloadFor(cfg, 250, prm.seed * 13 + 5);
  w.storePercent = 45;
  w.evictPercent = 12;
  const auto programs = workload::hotBlock(w, 85, std::min<BlockId>(3, prm.blocks));

  trace::Trace trace;
  sim::System sys(cfg, trace, net::Network::Mode::Manual);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    sys.setProgram(p, programs[p]);
  }
  for (NodeId p = 0; p < cfg.numProcessors; ++p) sys.kick(p);

  Rng scheduler(prm.seed ^ 0xADBEEF);
  std::uint64_t steps = 0;
  const std::uint64_t budget = 3'000'000;
  while (steps++ < budget) {
    if (!sys.network().empty()) {
      const std::size_t pick =
          scheduler.uniform(0, sys.network().pending().size() - 1);
      sys.deliverManual(pick);
    } else if (!sys.allProgramsDone()) {
      // Only retry timers remain: advance simulated time so NACKed
      // processors re-issue.
      sys.advanceTime(cfg.retryDelay * 2 + 1);
      ASSERT_FALSE(sys.network().empty() && !sys.allProgramsDone() &&
                   steps > budget / 2)
          << "no progress under the adversarial schedule";
    } else {
      break;
    }
  }
  ASSERT_TRUE(sys.allProgramsDone()) << "budget exhausted mid-run";
  ASSERT_TRUE(sys.quiescent());

  const auto report =
      verify::checkAll(trace, verify::VerifyConfig{cfg.numProcessors});
  EXPECT_TRUE(report.ok()) << report.summary();
}

constexpr AdversaryParam kAdversary[] = {
    {1, 4, 4, 0, true},  {2, 4, 4, 2, true},  {3, 6, 6, 2, true},
    {4, 6, 2, 2, true},  {5, 8, 8, 3, true},  {6, 4, 4, 2, false},
    {7, 6, 6, 0, false}, {8, 3, 1, 0, true},  {9, 5, 3, 2, true},
    {10, 8, 4, 3, true}, {11, 4, 2, 2, true}, {12, 6, 3, 2, true},
};

std::string adversaryLabel(const AdversaryParam& prm) {
  return "s" + std::to_string(prm.seed) + "p" + std::to_string(prm.procs) +
         "b" + std::to_string(prm.blocks) + "c" +
         std::to_string(prm.capacity) + (prm.putShared ? "_ps" : "_nops");
}

// Prints the label instead of the raw bytes, which include the struct's
// padding and so would leak into the discovered test names.
void PrintTo(const AdversaryParam& prm, std::ostream* os) {
  *os << adversaryLabel(prm);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, AdversarySweep, testing::ValuesIn(kAdversary),
    [](const testing::TestParamInfo<AdversaryParam>& pinfo) {
      return adversaryLabel(pinfo.param);
    });

}  // namespace
}  // namespace lcdc
