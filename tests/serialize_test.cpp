// Round-trip tests for trace serialization: a saved-and-reloaded trace
// must be record-for-record identical, verify identically, and reject
// malformed input loudly.
#include <gtest/gtest.h>

#include <sstream>

#include "common/expect.hpp"
#include "temp_dir.hpp"
#include "testutil.hpp"
#include "trace/serialize.hpp"

namespace lcdc::trace {
namespace {

Trace makeRealTrace() {
  SystemConfig cfg;
  cfg.numProcessors = 4;
  cfg.numDirectories = 2;
  cfg.numBlocks = 8;
  cfg.cacheCapacity = 3;
  cfg.seed = 77;
  auto w = test::workloadFor(cfg, 300, 8);
  w.storePercent = 45;
  w.evictPercent = 10;
  const auto programs = workload::hotBlock(w, 80, 3);
  Trace trace;
  sim::System sys(cfg, trace);
  for (NodeId p = 0; p < cfg.numProcessors; ++p) {
    sys.setProgram(p, programs[p]);
  }
  EXPECT_TRUE(sys.run().ok());
  return trace;
}

TEST(Serialize, RoundTripIsExact) {
  const Trace original = makeRealTrace();
  std::stringstream buffer;
  save(original, buffer);
  const Trace reloaded = load(buffer);

  ASSERT_EQ(reloaded.serializations().size(),
            original.serializations().size());
  ASSERT_EQ(reloaded.stamps().size(), original.stamps().size());
  ASSERT_EQ(reloaded.values().size(), original.values().size());
  ASSERT_EQ(reloaded.operations().size(), original.operations().size());
  ASSERT_EQ(reloaded.nacks().size(), original.nacks().size());
  ASSERT_EQ(reloaded.putShareds().size(), original.putShareds().size());
  ASSERT_EQ(reloaded.deadlockResolutions().size(),
            original.deadlockResolutions().size());

  for (std::size_t i = 0; i < original.stamps().size(); ++i) {
    const StampRecord& a = original.stamps()[i];
    const StampRecord& b = reloaded.stamps()[i];
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.txn, b.txn);
    EXPECT_EQ(a.serial, b.serial);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.role, b.role);
    EXPECT_EQ(a.order, b.order);
  }
  for (std::size_t i = 0; i < original.operations().size(); ++i) {
    const proto::OpRecord& a = original.operations()[i];
    const proto::OpRecord& b = reloaded.operations()[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.boundTxn, b.boundTxn);
    EXPECT_EQ(a.order, b.order);
  }
  // The converted transaction kinds survive (they are folded into the
  // serialization records).
  for (const auto& rec : original.serializations()) {
    const proto::TxnInfo* t = reloaded.findTxn(rec.txn.id);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->kind, rec.txn.kind);
  }
}

TEST(Serialize, ReloadedTraceVerifiesIdentically) {
  const Trace original = makeRealTrace();
  std::stringstream buffer;
  save(original, buffer);
  const Trace reloaded = load(buffer);

  const verify::VerifyConfig cfg{4};
  const auto a = verify::checkAll(original, cfg);
  const auto b = verify::checkAll(reloaded, cfg);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.opsChecked, b.opsChecked);
  EXPECT_EQ(a.txnsChecked, b.txnsChecked);
  EXPECT_EQ(a.epochsBuilt, b.epochsBuilt);
}

TEST(Serialize, SaveLoadSaveIsStable) {
  const Trace original = makeRealTrace();
  std::stringstream first;
  save(original, first);
  const std::string once = first.str();
  std::stringstream in(once);
  const Trace reloaded = load(in);
  std::stringstream second;
  save(reloaded, second);
  EXPECT_EQ(once, second.str());
}

TEST(Serialize, EmptyTraceRoundTrips) {
  Trace empty;
  std::stringstream buffer;
  save(empty, buffer);
  const Trace reloaded = load(buffer);
  EXPECT_TRUE(reloaded.serializations().empty());
  EXPECT_TRUE(reloaded.operations().empty());
}

TEST(Serialize, CommentsAndBlankLinesAreIgnored) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "H 3\n"
      "P 1 2 1\n"
      "# trailing comment\n"
      "N 0 2 4 2\n");
  const Trace t = load(in);
  ASSERT_EQ(t.putShareds().size(), 1u);
  EXPECT_EQ(t.putShareds()[0].node, 1u);
  ASSERT_EQ(t.nacks().size(), 1u);
  EXPECT_EQ(t.nacks()[0].kind, NackKind::GetS_Busy);
}

TEST(Serialize, MalformedInputIsRejected) {
  std::stringstream bad1("Z 1 2 3\n");
  EXPECT_THROW((void)load(bad1), SimError);
  std::stringstream bad2("S 1 2\n");  // truncated record
  EXPECT_THROW((void)load(bad2), SimError);
}

TEST(Serialize, FileHelpersWork) {
  const Trace original = makeRealTrace();
  const test::TempDir dir("serialize");
  const std::string path = dir.path + "/trace.txt";
  saveFile(original, path);
  const Trace reloaded = loadFile(path);
  EXPECT_EQ(reloaded.operations().size(), original.operations().size());
  EXPECT_THROW((void)loadFile("/nonexistent/path/trace.txt"), SimError);
}

}  // namespace
}  // namespace lcdc::trace
