// The coverage-guided fuzz stage: corpus lifecycle, determinism, and the
// time-to-detection battery.
//
// Three contracts under test:
//   * the corpus is a durable, versioned artifact — entries round-trip
//     byte-identically, resuming accumulates instead of resetting, and
//     anything malformed (corrupt bytes, a future format version, a corpus
//     recorded for another backend) is rejected with a clean SimError, not
//     an invariant abort;
//   * the fuzz stage inherits the campaign's determinism guarantee: the
//     report, the failure set and the corpus itself are byte-identical for
//     any --jobs value, and every saved entry replays to the same outcome;
//   * it finds bugs: for every seeded mutant of all three backends the
//     stage reports a first failure within a bounded budget, naming the
//     same claim/lemma a random campaign blames.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/corpus.hpp"
#include "campaign/fuzz.hpp"
#include "campaign/mutate.hpp"
#include "common/expect.hpp"

namespace lcdc {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("lcdc-fuzz-" + tag + "-" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  const std::string path;
};

campaign::CampaignConfig fuzzConfig(ProtocolKind protocol,
                                    std::uint64_t budget) {
  campaign::CampaignConfig cfg;
  cfg.protocol = protocol;
  cfg.fuzz = true;
  cfg.seeds = budget;
  cfg.masterSeed = 77;
  cfg.minimize = false;
  return cfg;
}

// -- corpus lifecycle --------------------------------------------------------

TEST(Corpus, EntriesRoundTripByteIdentically) {
  for (const ProtocolKind k :
       {ProtocolKind::Directory, ProtocolKind::Bus, ProtocolKind::Tardis}) {
    campaign::CampaignConfig cfg;
    cfg.protocol = k;
    cfg.masterSeed = 5;
    for (std::uint64_t i = 0; i < 4; ++i) {
      const campaign::CaseSpec spec = campaign::deriveCase(cfg, i);
      const std::string text = campaign::serializeEntry(spec);
      const campaign::CaseSpec back = campaign::parseEntry(text);
      EXPECT_EQ(campaign::serializeEntry(back), text);
      EXPECT_EQ(campaign::entryId(back), campaign::entryId(spec));
      EXPECT_EQ(back.sys.protocol, k);
      EXPECT_EQ(back.programs.size(), spec.programs.size());
      EXPECT_EQ(back.description, spec.description);
    }
  }
}

TEST(Corpus, RoundTripPreservesTheReplayedOutcome) {
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 9;
  const campaign::CaseSpec spec = campaign::deriveCase(cfg, 3);
  const campaign::CaseSpec back =
      campaign::parseEntry(campaign::serializeEntry(spec));
  const campaign::CaseOutcome a = campaign::runCase(spec, 5'000'000);
  const campaign::CaseOutcome b = campaign::runCase(back, 5'000'000);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.opsBound, b.opsBound);
  EXPECT_EQ(a.txnsSerialized, b.txnsSerialized);
  EXPECT_EQ(a.coverage.counts, b.coverage.counts);
}

TEST(Corpus, MalformedEntriesRaiseSimErrorNotInvariantAbort) {
  const auto rejects = [](const std::string& text) {
    EXPECT_THROW((void)campaign::parseEntry(text), SimError) << text;
  };
  rejects("");                      // empty
  rejects("not a corpus file\n");   // bad magic
  rejects("lcdc-corpus v999\n");    // future format version
  campaign::CampaignConfig cfg;
  const std::string good =
      campaign::serializeEntry(campaign::deriveCase(cfg, 0));
  rejects(good.substr(0, good.size() / 2));        // truncated mid-program
  rejects("lcdc-corpus v1\nwobble 3\nend\n");      // unknown line
  std::string garbled = good;
  garbled.replace(garbled.find("sys procs="), 10, "sys procs=x");
  rejects(garbled);                                // non-numeric field
}

TEST(Corpus, SaveLoadRoundTripsThroughADirectory) {
  TempDir dir("saveload");
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 21;
  std::vector<std::string> ids;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const campaign::CaseSpec spec = campaign::deriveCase(cfg, i);
    campaign::saveEntry(spec, dir.path);
    campaign::saveEntry(spec, dir.path);  // idempotent: same content hash
    ids.push_back(campaign::entryId(spec));
  }
  const std::vector<campaign::CaseSpec> corpus =
      campaign::loadCorpus(dir.path);
  ASSERT_EQ(corpus.size(), 5u);
  // Load order is sorted-filename order; ids must match as a set.
  std::set<std::string> expect(ids.begin(), ids.end());
  std::set<std::string> got;
  for (const auto& spec : corpus) got.insert(campaign::entryId(spec));
  EXPECT_EQ(got, expect);

  // A corrupt file in the directory fails the load with a clean SimError
  // naming the file.
  const std::string bad = dir.path + "/c-zzzz.case";
  std::ofstream(bad) << "lcdc-corpus v1\ngarbage\n";
  try {
    (void)campaign::loadCorpus(dir.path);
    FAIL() << "corrupt entry not rejected";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("c-zzzz.case"), std::string::npos);
  }
}

TEST(Corpus, MissingDirectoryIsAnEmptyCorpus) {
  EXPECT_TRUE(campaign::loadCorpus("/nonexistent/lcdc-fuzz-dir").empty());
  EXPECT_TRUE(campaign::loadCorpus("").empty());
}

TEST(Fuzz, BackendMismatchedCorpusRejectedCleanly) {
  TempDir dir("mismatch");
  campaign::CampaignConfig dirCfg;  // directory campaign
  campaign::saveEntry(campaign::deriveCase(dirCfg, 0), dir.path);
  campaign::CampaignConfig cfg = fuzzConfig(ProtocolKind::Tardis, 8);
  cfg.corpusDir = dir.path;
  EXPECT_THROW((void)campaign::run(cfg), SimError);
}

TEST(Fuzz, ResumeAccumulatesInsteadOfResetting) {
  TempDir dir("resume");
  campaign::CampaignConfig first = fuzzConfig(ProtocolKind::Directory, 96);
  first.corpusDir = dir.path;
  const campaign::CampaignResult r1 = campaign::run(first);
  EXPECT_EQ(r1.fuzz.corpusLoaded, 0u);
  ASSERT_GT(r1.fuzz.corpusAdded, 0u);
  EXPECT_EQ(r1.fuzz.corpusSize, r1.fuzz.corpusAdded);

  // Second session, different master seed, same corpus: everything the
  // first session saved is loaded and replayed, and the corpus only grows.
  campaign::CampaignConfig second = fuzzConfig(ProtocolKind::Directory, 96);
  second.corpusDir = dir.path;
  second.masterSeed = 1234;
  const campaign::CampaignResult r2 = campaign::run(second);
  EXPECT_EQ(r2.fuzz.corpusLoaded, r1.fuzz.corpusSize);
  EXPECT_GE(r2.fuzz.corpusSize, r2.fuzz.corpusLoaded);
  EXPECT_EQ(r2.fuzz.corpusSize,
            r2.fuzz.corpusLoaded + r2.fuzz.corpusAdded);
  EXPECT_EQ(campaign::loadCorpus(dir.path).size(), r2.fuzz.corpusSize);
}

// -- determinism -------------------------------------------------------------

TEST(Fuzz, ReportAndCorpusAreByteIdenticalAcrossJobCounts) {
  TempDir d1("jobs1");
  TempDir d3("jobs3");
  campaign::CampaignConfig cfg = fuzzConfig(ProtocolKind::Directory, 128);
  cfg.corpusDir = d1.path;
  cfg.jobs = 1;
  const campaign::CampaignResult r1 = campaign::run(cfg);
  cfg.corpusDir = d3.path;
  cfg.jobs = 3;
  const campaign::CampaignResult r3 = campaign::run(cfg);

  EXPECT_EQ(r1.report(), r3.report());
  EXPECT_EQ(r1.fuzz.corpusSize, r3.fuzz.corpusSize);
  EXPECT_EQ(r1.fuzz.features, r3.fuzz.features);

  // The corpora are file-for-file identical (content-addressed names).
  const auto names = [](const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir)) {
      out.push_back(e.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(names(d1.path), names(d3.path));
}

TEST(Fuzz, EverySavedEntryReplaysDeterministically) {
  TempDir dir("replay");
  campaign::CampaignConfig cfg = fuzzConfig(ProtocolKind::Tardis, 64);
  cfg.corpusDir = dir.path;
  (void)campaign::run(cfg);
  const std::vector<campaign::CaseSpec> corpus =
      campaign::loadCorpus(dir.path);
  ASSERT_FALSE(corpus.empty());
  for (const campaign::CaseSpec& spec : corpus) {
    const campaign::CaseOutcome a = campaign::runCase(spec, 5'000'000);
    const campaign::CaseOutcome b = campaign::runCase(spec, 5'000'000);
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.opsBound, b.opsBound);
    EXPECT_EQ(a.txnsSerialized, b.txnsSerialized);
    EXPECT_EQ(a.coverage.counts, b.coverage.counts);
  }
}

// -- mutation engine ---------------------------------------------------------

TEST(Mutate, ChildrenStayWellFormed) {
  campaign::CampaignConfig cfg;
  cfg.masterSeed = 31;
  campaign::MutationConfig mcfg;
  Rng rng(99);
  campaign::CaseSpec parent = campaign::deriveCase(cfg, 0);
  for (int gen = 0; gen < 40; ++gen) {
    campaign::CaseSpec child;
    campaign::mutateInto(mcfg, parent, rng, child);
    ASSERT_EQ(child.programs.size(), child.sys.numProcessors);
    EXPECT_GE(child.sys.maxLatency, child.sys.minLatency);
    // Store values stay globally unique (the SC checker's load
    // attribution depends on it).
    std::set<std::uint64_t> values;
    for (const auto& prog : child.programs) {
      for (const auto& st : prog.steps) {
        if (st.kind == workload::StepKind::Store) {
          EXPECT_TRUE(values.insert(st.storeValue).second)
              << "duplicate store value after mutation";
        }
      }
    }
    // Mutated inputs are tagged with the applied operators.
    EXPECT_NE(child.description.find(" ~"), std::string::npos);
    // Serializable: every child is corpus-admissible.
    EXPECT_EQ(campaign::serializeEntry(
                  campaign::parseEntry(campaign::serializeEntry(child))),
              campaign::serializeEntry(child));
    parent = child;  // chain generations
  }
}

TEST(Mutate, BusChildrenNeverFlipNetworkMode) {
  campaign::CampaignConfig cfg;
  cfg.protocol = ProtocolKind::Bus;
  campaign::MutationConfig mcfg;
  mcfg.protocol = ProtocolKind::Bus;
  mcfg.allowModeFlips = false;
  Rng rng(7);
  const campaign::CaseSpec parent = campaign::deriveCase(cfg, 0);
  for (int gen = 0; gen < 30; ++gen) {
    campaign::CaseSpec child;
    campaign::mutateInto(mcfg, parent, rng, child);
    EXPECT_EQ(child.netMode, net::Network::Mode::RandomLatency);
  }
}

// -- time-to-detection battery -----------------------------------------------

/// Every seeded mutant each backend implements, with a budget that the
/// fuzz stage must catch it within.  Budgets are generous multiples of the
/// observed detection times (most mutants fall in the first wave).
struct MutantCase {
  ProtocolKind protocol;
  Mutant mutant;
  std::uint64_t budget;
};

const MutantCase kBattery[] = {
    {ProtocolKind::Directory, Mutant::SkipInvAckWait, 192},
    {ProtocolKind::Directory, Mutant::StaleDataFromHome, 192},
    {ProtocolKind::Directory, Mutant::IgnoreInvalidation, 192},
    {ProtocolKind::Directory, Mutant::ForwardStaleValue, 192},
    {ProtocolKind::Directory, Mutant::NoBusyNack, 192},
    {ProtocolKind::Directory, Mutant::NoDeadlockDetection, 384},
    {ProtocolKind::Bus, Mutant::IgnoreInvalidation, 192},
    {ProtocolKind::Tardis, Mutant::DropLeaseBump, 192},
};

class FuzzDetection : public ::testing::TestWithParam<MutantCase> {};

TEST_P(FuzzDetection, CatchesTheMutantWithinBudgetNamingTheSameClaim) {
  const MutantCase& mc = GetParam();

  campaign::CampaignConfig fuzz = fuzzConfig(mc.protocol, mc.budget);
  fuzz.mutant = mc.mutant;
  fuzz.fuzzStopOnFailure = true;
  const campaign::CampaignResult rf = campaign::run(fuzz);
  ASSERT_NE(rf.fuzz.firstFailureExecution, 0u)
      << "fuzz stage missed mutant " << toString(mc.mutant) << " in "
      << mc.budget << " executions";
  ASSERT_FALSE(rf.failures.empty());

  // A random campaign with the same budget blames the same claim/lemma:
  // the fuzzer accelerates detection, it does not change the verdict.
  campaign::CampaignConfig rnd;
  rnd.protocol = mc.protocol;
  rnd.mutant = mc.mutant;
  rnd.seeds = mc.budget;
  rnd.masterSeed = 77;
  rnd.minimize = false;
  const campaign::CampaignResult rr = campaign::run(rnd);
  ASSERT_FALSE(rr.failures.empty())
      << "random baseline missed mutant " << toString(mc.mutant);
  std::set<std::string> randomSignatures;
  for (const auto& f : rr.failures) randomSignatures.insert(f.signature);
  std::set<std::string> fuzzSignatures;
  for (const auto& f : rf.failures) fuzzSignatures.insert(f.signature);
  std::set<std::string> common;
  std::set_intersection(fuzzSignatures.begin(), fuzzSignatures.end(),
                        randomSignatures.begin(), randomSignatures.end(),
                        std::inserter(common, common.begin()));
  EXPECT_FALSE(common.empty())
      << "fuzz and random campaigns blame disjoint claims for "
      << toString(mc.mutant);
}

std::string batteryLabel(const MutantCase& mc) {
  std::string name =
      std::string(toString(mc.protocol)) + "_" + toString(mc.mutant);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::string batteryName(const ::testing::TestParamInfo<MutantCase>& info) {
  return batteryLabel(info.param);
}

// Prints the label instead of the raw bytes, which include the struct's
// padding and so would leak into the discovered test names.
void PrintTo(const MutantCase& mc, std::ostream* os) {
  *os << batteryLabel(mc);
}

INSTANTIATE_TEST_SUITE_P(AllMutants, FuzzDetection,
                         ::testing::ValuesIn(kBattery), batteryName);

// -- backend-aware --until-coverage ------------------------------------------

TEST(Fuzz, UntilCoverageUsesTheBackendsReachableTarget) {
  // A bus campaign can genuinely complete: 4 reachable cases, not 15.
  campaign::CampaignConfig cfg = fuzzConfig(ProtocolKind::Bus, 512);
  cfg.untilCoverage = true;
  const campaign::CampaignResult r = campaign::run(cfg);
  EXPECT_TRUE(r.coverage.transactionCasesComplete(ProtocolKind::Bus));
  EXPECT_LT(r.fuzz.executions, 512u)
      << "bus coverage target should stop the budget early";
  EXPECT_FALSE(r.coverage.transactionCasesComplete(ProtocolKind::Directory));
}

}  // namespace
}  // namespace lcdc
