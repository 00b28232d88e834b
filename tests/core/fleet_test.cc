// Fleet driver unit tests: corpus listing, the multi-process run over
// a tiny corpus (real fork/exec of the CLI binary), report shape,
// per-program failure isolation, and the on-demand claim protocol
// (each program analyzed once, a costly program does not stall the
// rest, a killed worker's claim is re-run). The heavy faulted soak
// lives in tests/integration/fleet_soak_test.cc.

#include "core/fleet.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "parser/parser.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

// The shared library module: identical text in every corpus program,
// so their route/3 cones fingerprint identically and the shared cache
// serves one program's verdicts to all the others.
constexpr char kSharedModule[] =
    ".infinite successor/2.\n"
    ".fd successor: 1 -> 2.\n"
    ".fd successor: 2 -> 1.\n"
    ".mono successor: 2 > 1.\n"
    "link(a, b).\nlink(b, c).\n"
    "route(X, Y, 1) :- link(X, Y).\n"
    "route(X, Y, J) :- link(X, Z), route(Z, Y, I), successor(I, J).\n";

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            StrCat("hornsafe_fleet_test_",
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name(),
                   "_", getpid());
    fs::remove_all(root_);
    corpus_ = root_ / "corpus";
    cache_ = root_ / "cache";
    fs::create_directories(corpus_);
  }

  void TearDown() override { fs::remove_all(root_); }

  void WriteProgram(const std::string& rel, const std::string& text) {
    fs::path p = corpus_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << text;
  }

  /// A corpus of `n` programs, each the shared module plus one unique
  /// query (so cross-program reuse is the shared module's cone).
  void WriteSharedCorpus(int n) {
    for (int i = 0; i < n; ++i) {
      WriteProgram(StrCat("prog_", i, ".hs"),
                   StrCat(kSharedModule, "?- route(a, Y, 2).\n"));
    }
  }

  /// The serial, cache-free verdict of every corpus program, folded the
  /// way the worker folds its queries.
  std::map<std::string, std::string> SerialVerdicts() {
    std::map<std::string, std::string> verdicts;
    for (const std::string& rel : ListCorpus(corpus_.string())) {
      std::ifstream in(corpus_ / rel);
      std::ostringstream text;
      text << in.rdbuf();
      auto program = ParseProgram(text.str());
      EXPECT_TRUE(program.ok()) << rel;
      if (!program.ok()) continue;
      auto analyzer = SafetyAnalyzer::Create(program.value());
      EXPECT_TRUE(analyzer.ok()) << rel;
      if (!analyzer.ok()) continue;
      bool any_unsafe = false, any_undecided = false;
      for (const Literal& q : analyzer.value().canonical().queries()) {
        QueryAnalysis a = analyzer.value().AnalyzeQueryLiteral(q);
        any_unsafe |= a.overall == Safety::kUnsafe;
        any_undecided |= a.overall == Safety::kUndecided;
      }
      verdicts[rel] =
          any_unsafe ? "unsafe" : any_undecided ? "undecided" : "safe";
    }
    return verdicts;
  }

  void ExpectSerialVerdicts(const FleetReport& report) {
    std::map<std::string, std::string> serial = SerialVerdicts();
    ASSERT_EQ(report.programs.size(), serial.size());
    for (const FleetProgramResult& p : report.programs) {
      EXPECT_EQ(p.verdict, serial[p.path]) << p.path;
    }
  }

  FleetOptions BaseOptions() {
    FleetOptions opts;
    opts.corpus_dir = corpus_.string();
    opts.cache_dir = cache_.string();
    opts.worker_exe = HORNSAFE_CLI_PATH;
    return opts;
  }

  fs::path root_, corpus_, cache_;
};

TEST_F(FleetTest, ListCorpusIsRecursiveSortedAndFiltered) {
  WriteProgram("b.hs", "?- p(X).\n");
  WriteProgram("a.hs", "?- p(X).\n");
  WriteProgram("sub/dir/c.hs", "?- p(X).\n");
  WriteProgram("notes.txt", "not a program");
  std::vector<std::string> corpus = ListCorpus(corpus_.string());
  ASSERT_EQ(corpus.size(), 3u);
  // Sorted by corpus-relative path; absolute paths returned.
  EXPECT_NE(corpus[0].find("a.hs"), std::string::npos);
  EXPECT_NE(corpus[1].find("b.hs"), std::string::npos);
  EXPECT_NE(corpus[2].find("sub/dir/c.hs"), std::string::npos);
  EXPECT_TRUE(ListCorpus((corpus_ / "nonexistent").string()).empty());
}

TEST_F(FleetTest, EmptyCorpusIsADriverError) {
  auto report = RunFleet(BaseOptions());
  EXPECT_FALSE(report.ok());
}

TEST_F(FleetTest, TwoProcsAnalyzeEverythingAndShareVerdicts) {
  WriteSharedCorpus(6);
  FleetOptions opts = BaseOptions();
  opts.procs = 2;
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->corpus_size, 6u);
  EXPECT_EQ(report->analyzed, 6u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->procs, 2u);
  EXPECT_EQ(report->worker_crashes, 0u);
  ASSERT_EQ(report->programs.size(), 6u);
  for (const FleetProgramResult& p : report->programs) {
    EXPECT_EQ(p.verdict, "safe") << p.path;
    EXPECT_EQ(p.queries, 1u) << p.path;
    EXPECT_GE(p.worker, 0) << p.path;
    EXPECT_LE(p.worker, 1) << p.path;
  }
  // Results arrive sorted by path.
  for (size_t i = 1; i < report->programs.size(); ++i) {
    EXPECT_LT(report->programs[i - 1].path, report->programs[i].path);
  }
  // 6 copies of one cone: at most each worker's FIRST program misses
  // (racing cold starts); every later identical query is served from
  // the shared cache — and every hit is cross-program by construction.
  EXPECT_GE(report->verdict_hits, 4u);
  EXPECT_GT(report->verdict_hit_rate, 0.0);
}

TEST_F(FleetTest, WarmRunOverSameCacheServesFromDisk) {
  WriteSharedCorpus(4);
  FleetOptions opts = BaseOptions();
  opts.procs = 2;
  auto cold = RunFleet(opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = RunFleet(opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->analyzed, 4u);
  // Every query resolves from the persisted tier — the warm run's
  // disk hits are cross-process by definition (fresh worker memories).
  EXPECT_EQ(warm->verdict_hits, 4u);
  EXPECT_EQ(warm->verdict_misses, 0u);
  EXPECT_GE(warm->disk_hits, 1u);
  for (size_t i = 0; i < warm->programs.size(); ++i) {
    EXPECT_EQ(warm->programs[i].verdict, cold->programs[i].verdict);
  }
}

TEST_F(FleetTest, BadProgramIsAnErrorVerdictNotADriverFailure) {
  WriteSharedCorpus(2);
  WriteProgram("broken.hs", ".fd nonsense without a dot\n?- oops(\n");
  FleetOptions opts = BaseOptions();
  opts.procs = 2;
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->corpus_size, 3u);
  EXPECT_EQ(report->errors, 1u);
  EXPECT_EQ(report->analyzed, 2u);
  bool found = false;
  for (const FleetProgramResult& p : report->programs) {
    if (p.path == "broken.hs") {
      found = true;
      EXPECT_EQ(p.verdict, "error");
      EXPECT_FALSE(p.error.empty());
    } else {
      EXPECT_EQ(p.verdict, "safe");
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FleetTest, JsonReportHasTheDocumentedShape) {
  WriteSharedCorpus(3);
  FleetOptions opts = BaseOptions();
  opts.procs = 2;
  opts.compact_after = true;
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Json j = report->ToJson();
  EXPECT_EQ(j["corpus_size"].AsInt(0), 3);
  EXPECT_EQ(j["analyzed"].AsInt(0), 3);
  EXPECT_TRUE(j.Has("wall_seconds"));
  ASSERT_TRUE(j.Has("cache"));
  EXPECT_TRUE(j["cache"].Has("cross_program_hits"));
  EXPECT_TRUE(j["cache"].Has("verdict_hit_rate"));
  EXPECT_TRUE(j["cache"].Has("disk_hits"));
  EXPECT_TRUE(j["cache"].Has("torn_tails_repaired"));
  EXPECT_FALSE(j["cache"].Has("manifest_rollbacks"));  // no manifest
  // A cold run over a shared dir stores every cacheable verdict once.
  EXPECT_GT(j["cache"]["disk_stores"].AsInt(0), 0);
  EXPECT_EQ(static_cast<uint64_t>(j["cache"]["disk_stores"].AsInt(0)),
            report->disk_stores);
  ASSERT_TRUE(j.Has("faults"));
  EXPECT_EQ(j["faults"]["worker_crashes"].AsInt(-1), 0);
  ASSERT_TRUE(j.Has("compaction"));
  EXPECT_TRUE(j["compaction"]["ran"].AsBool(false));
  ASSERT_TRUE(j.Has("programs"));
  ASSERT_EQ(j["programs"].items().size(), 3u);
  EXPECT_EQ(j["programs"].items()[0]["verdict"].AsString(), "safe");
  // The text rendering mentions the essentials without crashing.
  std::string text = report->ToText();
  EXPECT_NE(text.find("programs"), std::string::npos);
}

// The worker's summary line renders the cache schema field for field
// (its names are pinned in stats_schema_test.cc); the driver folds it
// back into the report's cache totals.
TEST_F(FleetTest, WorkerSummaryRendersTheCacheSchema) {
  WriteSharedCorpus(2);
  const fs::path list = root_ / "programs";
  {
    std::ofstream out(list);
    for (const std::string& rel : ListCorpus(corpus_.string())) {
      out << rel << "\t" << (corpus_ / rel).string() << "\n";
    }
  }
  std::ofstream(root_ / "programs.next").flush();
  const fs::path out_file = root_ / "out";
  auto loader = [](const std::string& path) -> Result<Program> {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return ParseProgram(text.str());
  };
  ASSERT_EQ(FleetWorkerMain(list.string(), out_file.string(),
                            cache_.string(), 1, loader),
            0);
  std::ifstream in(out_file);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  Result<Json> summary = Json::Parse(last);
  ASSERT_TRUE(summary.ok()) << last;
  EXPECT_TRUE((*summary)["done"].AsBool());
  std::vector<std::string> keys;
  for (const auto& [key, value] : (*summary)["cache"].members()) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, StatNames<PipelineCacheStats>());
  EXPECT_GT((*summary)["cache"]["lease_acquisitions"].AsInt(), 0) << last;
}

TEST_F(FleetTest, MemoryOnlyFleetStillWorksWithoutCacheDir) {
  WriteSharedCorpus(3);
  FleetOptions opts = BaseOptions();
  opts.cache_dir.clear();
  opts.procs = 2;
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->analyzed, 3u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->disk_hits, 0u);
}

TEST_F(FleetTest, FaultFreeRunAnalyzesEachProgramExactlyOnce) {
  // Each program's one query is one verdict-tier lookup, so the summed
  // lookups count analyses: a program claimed twice would show up here.
  WriteSharedCorpus(24);
  FleetOptions opts = BaseOptions();
  opts.procs = 3;
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->analyzed, 24u);
  EXPECT_EQ(report->worker_crashes, 0u);
  uint64_t queries = 0;
  for (const FleetProgramResult& p : report->programs) queries += p.queries;
  EXPECT_EQ(queries, 24u);
  EXPECT_EQ(report->verdict_hits + report->verdict_misses, queries);
}

TEST_F(FleetTest, CostlyProgramDoesNotHoldBackTheCheapOnes) {
  // One program with a six-ary recursive head (2^6 adornments) among
  // many cheap ones: whichever worker claims it, the other keeps
  // claiming, and every verdict matches the serial run.
  WriteSharedCorpus(30);
  std::string vars, body;
  for (int i = 0; i < 6; ++i) {
    vars += StrCat(i > 0 ? "," : "", "X", i);
    body += StrCat(i > 0 ? ", " : "", "b", i, "(X", i, ")");
  }
  WriteProgram("aaa_wide.hs",
               StrCat("r(", vars, ") :- ", body, ".\nr(", vars, ") :- r(",
                      vars, "), c(X0).\n?- r(", vars, ").\n"));
  FleetOptions opts = BaseOptions();
  opts.procs = 2;
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->corpus_size, 31u);
  EXPECT_EQ(report->analyzed, 31u);
  EXPECT_EQ(report->errors, 0u);
  ExpectSerialVerdicts(*report);
}

TEST_F(FleetTest, WorkerKilledAfterAClaimIsRespawnedAndNothingIsLost) {
  // process_kill fires only inside disk-tier calls, which a worker makes
  // while analyzing a program it has already claimed — so every kill
  // here lands after a claim and leaves that program in the slot's
  // debt. The respawned worker runs its debt first.
  WriteSharedCorpus(16);
  FleetOptions opts = BaseOptions();
  opts.procs = 2;
  opts.max_respawns = 64;
  opts.fault_spec = "process_kill=0.3,seed=11";
  auto report = RunFleet(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->worker_crashes, 1u);
  EXPECT_GE(report->respawns, 1u);
  EXPECT_EQ(report->analyzed, 16u);
  EXPECT_EQ(report->errors, 0u);
  ExpectSerialVerdicts(*report);
}

}  // namespace
}  // namespace hornsafe
