// Kill-9-at-a-random-syscall crash recovery. A child process analyzes
// against the shared disk cache with process_kill injection armed, so
// it dies by SIGKILL at whatever wrapped syscall the seed selects —
// holding a shard lock, between an append and the Flush that syncs
// it, mid compaction. The parent then reopens the same directory and
// must find a cleanly recoverable tier whose warm verdicts are
// bit-identical to a cold, fault-free run.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "parser/parser.h"
#include "util/fault.h"
#include "util/proc.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

constexpr char kProgram[] =
    ".infinite t/2.\n"
    ".fd t: 2 -> 1.\n"
    "r(X) :- t(X,Y), r(Y), a(Y).\n"
    "r(X) :- b(X).\n"
    "s(X,Y) :- t(X,Z), s(Z,Y).\n"
    "s(X,Y) :- b(X), b(Y).\n"
    "q(X) :- t(X,Y), q(Y), c(Y).\n"
    "q(X) :- d(X).\n"
    "?- r(X).\n"
    "?- s(X,Y).\n"
    "?- q(X).\n";

class CacheCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           StrCat("hornsafe_cache_crash_",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  "_", getpid());
    fs::remove_all(dir_);
    auto parsed = ParseProgram(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    program_ = std::make_unique<Program>(std::move(*parsed));
  }

  void TearDown() override {
    FaultInjector::Global().Configure("");
    fs::remove_all(dir_);
  }

  /// Analyzes against the shared disk dir and renders every verdict.
  std::vector<std::string> Analyze(PipelineCacheStats* stats_out = nullptr) {
    PipelineCache::Options copts;
    copts.dir = dir_.string();
    copts.retry_backoff_us = 0;
    PipelineCache cache(copts);
    AnalyzerOptions opts;
    opts.cache = &cache;
    auto analyzer = SafetyAnalyzer::Create(*program_, opts);
    EXPECT_TRUE(analyzer.ok()) << analyzer.status().ToString();
    std::vector<std::string> out;
    if (!analyzer.ok()) return out;
    for (QueryAnalysis& q : analyzer->AnalyzeQueries()) {
      for (const ArgumentVerdict& a : q.args) {
        out.push_back(StrCat(SafetyName(a.safety), "|", a.steps, "|",
                             a.explanation));
      }
    }
    if (stats_out != nullptr) *stats_out = cache.stats();
    return out;
  }

  /// Forks a child that arms `spec` and runs `body`; returns true when
  /// the child died by SIGKILL (i.e. the injector actually fired).
  template <typename Fn>
  bool RunChildWithFaults(const std::string& spec, Fn body) {
    pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      // Injector state is per-process: configuring here cannot leak
      // into the parent or sibling children.
      if (!FaultInjector::Global().Configure(spec)) _exit(3);
      body();
      _exit(0);
    }
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
      return true;
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child failed with status " << status;
    return false;
  }

  fs::path dir_;
  std::unique_ptr<Program> program_;
};

TEST_F(CacheCrashTest, KillAtRandomSyscallAlwaysLeavesRecoverableCache) {
  // Fault-free golden verdicts (also populates the dir — remove it so
  // every seed starts from whatever its predecessor's crash left).
  std::vector<std::string> golden = Analyze();
  ASSERT_FALSE(golden.empty());
  fs::remove_all(dir_);

  int kills = 0;
  for (int seed = 1; seed <= 8; ++seed) {
    bool killed = RunChildWithFaults(
        StrCat("process_kill=0.2,seed=", seed), [&] { Analyze(); });
    kills += killed ? 1 : 0;
    // Reopen after the (possible) crash: must come up clean and the
    // warm verdicts must be bit-identical to the cold run.
    PipelineCacheStats stats;
    std::vector<std::string> warm = Analyze(&stats);
    EXPECT_EQ(warm, golden) << "seed " << seed;
    EXPECT_EQ(stats.disk_write_failures, 0u) << "seed " << seed;
  }
  // The harness is vacuous unless some children actually died mid-
  // syscall. The seeds are fixed, so this is deterministic, not flaky.
  EXPECT_GE(kills, 3);
}

TEST_F(CacheCrashTest, CrashWhileHoldingShardLockIsRepairedByNextStore) {
  // A writer killed while holding a shard lock with half a record
  // appended leaves exactly the on-disk state a real mid-append crash
  // does: the kernel freed the flock, the partial record survives as
  // the log's tail. The next store into that shard must truncate it
  // and keep the shard writable.
  std::vector<std::string> golden = Analyze();
  ASSERT_FALSE(golden.empty());
  fs::path log;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".hsl" && e.file_size() > 0) log = e.path();
  }
  ASSERT_FALSE(log.empty());
  fs::path lock = log;
  lock.replace_extension(".lock");
  // Keep only the verdicts of the other shards, so the next run stores
  // into this one.
  std::ofstream(log, std::ios::binary | std::ios::trunc);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto held = FileLock::Acquire(lock.string());
    if (!held.ok() || !held->held()) _exit(2);
    std::ofstream(log, std::ios::binary | std::ios::app)
        << std::string("HSLR\x60\0\0\0half a record", 21);
    std::ofstream((dir_ / "ready").string()) << "1";
    for (;;) pause();
  }
  while (!fs::exists(dir_ / "ready")) usleep(1000);
  KillProcess(pid);
  auto reaped = WaitProcess(pid);
  ASSERT_TRUE(reaped.ok() && reaped->signaled);
  fs::remove(dir_ / "ready");

  PipelineCacheStats stats;
  std::vector<std::string> warm = Analyze(&stats);
  EXPECT_EQ(warm, golden);
  EXPECT_EQ(stats.torn_tails_repaired, 1u);
  EXPECT_EQ(stats.disk_write_failures, 0u);
  // A second run is served from whole records only.
  PipelineCacheStats second;
  EXPECT_EQ(Analyze(&second), golden);
  EXPECT_EQ(second.torn_tails_repaired, 0u);
  EXPECT_EQ(second.disk_corrupt, 0u);
}

TEST_F(CacheCrashTest, CrashedCompactionIsResumable) {
  // Populate, then let compactors crash at random syscalls of the log
  // rewrite; a later fault-free pass must complete and the tier must
  // still serve bit-identical verdicts.
  std::vector<std::string> golden = Analyze();
  int kills = 0;
  for (int seed = 1; seed <= 6; ++seed) {
    Analyze();  // re-populate what previous crashes removed
    kills += RunChildWithFaults(
                 StrCat("process_kill=0.3,seed=", seed),
                 [&] {
                   auto r = PipelineCache::CompactDir(
                       dir_.string(), {.max_bytes = 256});
                   if (!r.ok()) _exit(4);
                 })
                 ? 1
                 : 0;
    std::vector<std::string> warm = Analyze();
    EXPECT_EQ(warm, golden) << "seed " << seed;
  }
  EXPECT_GE(kills, 1);
  // The crashes never wedged the compaction lock: a clean pass runs.
  auto final_pass = PipelineCache::CompactDir(dir_.string(), {});
  ASSERT_TRUE(final_pass.ok()) << final_pass.status().ToString();
  EXPECT_TRUE(final_pass->ran);
}

}  // namespace
}  // namespace hornsafe
