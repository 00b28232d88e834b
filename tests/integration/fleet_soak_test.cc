// The fleet acceptance soak: >= 4 workers over a generated corpus
// sharing library modules, two faulted passes (>= 200 programs-worth
// of requests) with ~10% disk faults, enough process_kill pressure to
// SIGKILL several workers mid-syscall, and a concurrent compactor
// hammering the shared cache directory the whole time. The bar: the
// driver never fails, no program ends in an "error" verdict, and every
// verdict equals the serial fault-free replay — crashes and disk
// faults may cost time, never correctness.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/fleet.h"
#include "core/pipeline_cache.h"
#include "parser/parser.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

constexpr int kNumPrograms = 100;
constexpr int kNumModules = 8;
constexpr int kFaultedPasses = 2;  // 2 x 100 = 200 programs-worth

/// Library module `m`: a guarded-recursion reachability cone whose
/// text is shared verbatim by every program with i % kNumModules == m,
/// so the fleet's cross-program reuse is structural, not accidental.
std::string ModuleText(int m) {
  std::string p = StrCat("lib", m);
  return StrCat(".infinite step", m, "/2.\n",
                ".fd step", m, ": 1 -> 2.\n",
                ".fd step", m, ": 2 -> 1.\n",
                ".mono step", m, ": 2 > 1.\n",
                "edge", m, "(n0, n1).\n",
                "edge", m, "(n1, n2).\n",
                p, "(X, Y, 1) :- edge", m, "(X, Y).\n",
                p, "(X, Y, J) :- edge", m, "(X, Z), ", p,
                "(Z, Y, I), step", m, "(I, J).\n");
}

/// Program `i`: its module plus one program-unique dependent predicate
/// and two queries (one shared per module — the cross-program hit —
/// and one unique).
std::string ProgramText(int i) {
  int m = i % kNumModules;
  std::string p = StrCat("lib", m);
  return StrCat(ModuleText(m),
                "top", i, "(X) :- ", p, "(X, Y, 2), edge", m, "(Y, Z).\n",
                "?- ", p, "(n0, Y, 2).\n",
                "?- top", i, "(X).\n");
}

class FleetSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            StrCat("hornsafe_fleet_soak_", getpid());
    fs::remove_all(root_);
    corpus_ = root_ / "corpus";
    cache_ = root_ / "cache";
    fs::create_directories(corpus_);
    for (int i = 0; i < kNumPrograms; ++i) {
      // Two-digit suffix keeps corpus order == program order.
      std::ofstream(corpus_ / StrCat("prog_", i / 10, i % 10, ".hs"))
          << ProgramText(i);
    }
  }

  void TearDown() override { fs::remove_all(root_); }

  /// The serial, fault-free, cache-free replay: the ground truth every
  /// fleet pass must match bit-for-bit on verdicts. Mirrors the
  /// worker's verdict fold exactly.
  std::map<std::string, std::string> SerialBaseline() {
    std::map<std::string, std::string> verdicts;
    for (const std::string& abs : ListCorpus(corpus_.string())) {
      std::ifstream in(abs);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      auto program = ParseProgram(buffer.str());
      EXPECT_TRUE(program.ok()) << abs;
      auto analyzer = SafetyAnalyzer::Create(program.value());
      EXPECT_TRUE(analyzer.ok()) << abs;
      bool any_unsafe = false, any_undecided = false;
      for (const Literal& q : analyzer.value().canonical().queries()) {
        QueryAnalysis a = analyzer.value().AnalyzeQueryLiteral(q);
        any_unsafe |= a.overall == Safety::kUnsafe;
        any_undecided |= a.overall == Safety::kUndecided;
      }
      verdicts[fs::path(abs).filename().string()] =
          any_unsafe ? "unsafe" : any_undecided ? "undecided" : "safe";
    }
    return verdicts;
  }

  fs::path root_, corpus_, cache_;
};

TEST_F(FleetSoakTest, FaultedMultiProcessSoakMatchesSerialReplay) {
  std::map<std::string, std::string> baseline = SerialBaseline();
  ASSERT_EQ(baseline.size(), static_cast<size_t>(kNumPrograms));

  // A concurrent compactor loops against the live cache directory for
  // the whole soak: compaction must never wedge a worker or eat an
  // entry a worker still needs for correctness (entries are
  // recomputable — only verdict parity matters).
  std::atomic<bool> stop{false};
  std::atomic<int> compactions{0};
  std::thread compactor([&] {
    while (!stop.load()) {
      auto r = PipelineCache::CompactDir(cache_.string(),
                                         {.max_bytes = 64 * 1024});
      if (r.ok() && r->ran) compactions.fetch_add(1);
      usleep(20 * 1000);
    }
  });

  uint64_t total_crashes = 0, total_respawns = 0, total_faults = 0;
  uint64_t total_hits = 0;
  uint64_t total_analyzed = 0;
  // Two required passes; if the concurrent compactor's interleaving
  // happened to starve the kill injector below the 5-crash bar, keep
  // soaking (more passes only adds coverage, never weakens the bar).
  for (int pass = 0;
       pass < kFaultedPasses || (total_crashes < 5 && pass < 10); ++pass) {
    FleetOptions opts;
    opts.corpus_dir = corpus_.string();
    opts.cache_dir = cache_.string();
    opts.worker_exe = HORNSAFE_CLI_PATH;
    opts.procs = 4;
    opts.max_respawns = 64;
    // ~10% aggregate disk-fault pressure both passes. A killed
    // worker's injector counters die with it, so the kill pressure is
    // front-loaded: pass 0 crashes workers hard, pass 1 keeps most
    // workers alive long enough to report their injected-fault counts.
    // Seeds differ per pass so the passes hit different crash points.
    opts.fault_spec = StrCat(
        "read_error=0.03,write_error=0.02,short_write=0.01,"
        "torn_append=0.02,bit_flip=0.03,enospc=0.02,"
        "process_kill=", pass == 1 ? "0.002" : "0.012",
        ",seed=", 1000 + pass);
    auto report = RunFleet(opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // Zero wrong verdicts, zero lost programs.
    EXPECT_EQ(report->errors, 0u) << "pass " << pass;
    EXPECT_EQ(report->analyzed, static_cast<uint64_t>(kNumPrograms))
        << "pass " << pass;
    ASSERT_EQ(report->programs.size(), baseline.size());
    for (const FleetProgramResult& p : report->programs) {
      auto it = baseline.find(p.path);
      ASSERT_NE(it, baseline.end()) << p.path;
      EXPECT_EQ(p.verdict, it->second) << "pass " << pass << " " << p.path;
    }
    total_crashes += report->worker_crashes;
    total_respawns += report->respawns;
    total_faults += report->faults_injected;
    total_hits += report->verdict_hits + report->disk_hits;
    total_analyzed += report->analyzed;
  }

  stop.store(true);
  compactor.join();

  // The soak must have actually soaked: faults fired, workers died and
  // were respawned, the compactor ran concurrently, and the shared
  // cache produced cross-program hits despite all of it.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GE(total_crashes, 5u);
  EXPECT_GE(total_analyzed, 200u);  // >= 200 programs-worth of requests
  // A kill after the last program but before the summary line is a
  // crash with nothing left to respawn, so respawns can trail crashes.
  EXPECT_GE(total_respawns, 1u);
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(compactions.load(), 0);

  // And the directory the soak leaves behind is healthy: a final clean
  // open + warm fleet pass works fault-free.
  FleetOptions clean;
  clean.corpus_dir = corpus_.string();
  clean.cache_dir = cache_.string();
  clean.worker_exe = HORNSAFE_CLI_PATH;
  clean.procs = 4;
  auto final_report = RunFleet(clean);
  ASSERT_TRUE(final_report.ok()) << final_report.status().ToString();
  EXPECT_EQ(final_report->errors, 0u);
  for (const FleetProgramResult& p : final_report->programs) {
    EXPECT_EQ(p.verdict, baseline[p.path]);
  }
}

}  // namespace
}  // namespace hornsafe
