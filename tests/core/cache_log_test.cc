// The append-only shard logs behind the PipelineCache disk tier: a
// writer killed mid-append leaves a torn tail no reader serves and the
// next writer truncates; a record is visible to other processes as soon
// as its store returns; open readers follow a compaction's rename;
// damage costs only the record it hits; the layout is a fixed set of
// files; and concurrent appends through one handle never interleave.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline_cache.h"
#include "util/fault.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

/// The n-th key whose records live in log `shard`.
CacheKey KeyInShard(uint64_t n, size_t shard) {
  return CacheKey{n * 977 + 3, n * PipelineCache::kDiskShards + shard};
}

/// Fixed-width steps keep every record of a test the same length.
CachedVerdict Verdict(uint64_t steps) {
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  v.steps = steps;
  v.graphs_checked = 2;
  v.explanation = StrCat("log probe ", 10000 + steps % 10000);
  return v;
}

class CacheLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           StrCat("hornsafe_cache_log_",
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name(),
                  "_", getpid());
    fs::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Configure("");
    fs::remove_all(dir_);
  }

  PipelineCache::Options Opts(size_t max_entries = 1 << 16) const {
    PipelineCache::Options opts;
    opts.dir = dir_.string();
    opts.max_entries = max_entries;
    opts.retry_backoff_us = 0;
    return opts;
  }

  fs::path dir_;
};

TEST_F(CacheLogTest, TornTailFromKilledWriterIsNeverServedAndIsRepaired) {
  const CacheKey torn_key = KeyInShard(1, 5);
  const CacheKey next_key = KeyInShard(2, 5);
  const fs::path log = PipelineCache::LogPath(dir_.string(), torn_key);
  // Find a seed whose child dies by SIGKILL after writing part of its
  // record and before a Flush synced it. The seeds are fixed, so the
  // search is deterministic.
  bool torn = false;
  for (int seed = 1; seed <= 64 && !torn; ++seed) {
    fs::remove_all(dir_);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      if (!FaultInjector::Global().Configure(
              StrCat("torn_append=1,process_kill=0.5,seed=", seed))) {
        _exit(3);
      }
      PipelineCache writer(Opts());
      writer.Store(torn_key, Verdict(7));
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    torn = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL &&
           fs::exists(log) && fs::file_size(log) > 0;
  }
  ASSERT_TRUE(torn) << "no seed killed the writer after a torn write";

  PipelineCache reader(Opts());
  EXPECT_FALSE(reader.Lookup(torn_key).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 0u);
  EXPECT_EQ(reader.stats().torn_tails_repaired, 0u);  // readers never cut

  PipelineCache writer(Opts());
  writer.Store(next_key, Verdict(8));
  EXPECT_EQ(writer.stats().torn_tails_repaired, 1u);

  PipelineCache fresh(Opts());
  EXPECT_FALSE(fresh.Lookup(torn_key).has_value());
  auto hit = fresh.Lookup(next_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->steps, 8u);
  EXPECT_EQ(fresh.stats().disk_corrupt, 0u);
  // The reader that stopped at the torn tail picks up the record
  // appended in its place.
  auto late = reader.Lookup(next_key);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->steps, 8u);
}

TEST_F(CacheLogTest, ChildStoreIsADiskHitInTheParentBeforeTheChildExits) {
  const CacheKey key = KeyInShard(3, 9);
  PipelineCache parent(Opts());
  parent.Store(KeyInShard(4, 9), Verdict(1));  // parent indexes the log
  EXPECT_FALSE(parent.Lookup(key).has_value());

  int to_parent[2], to_child[2];
  ASSERT_EQ(pipe(to_parent), 0);
  ASSERT_EQ(pipe(to_child), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    PipelineCache child(Opts());
    child.Store(key, Verdict(42));
    char c = 's';
    if (write(to_parent[1], &c, 1) != 1) _exit(2);
    if (read(to_child[0], &c, 1) != 1) _exit(2);
    _exit(0);
  }
  char c = 0;
  ASSERT_EQ(read(to_parent[0], &c, 1), 1);
  auto hit = parent.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->steps, 42u);
  EXPECT_EQ(parent.stats().disk_hits, 1u);
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, WNOHANG), 0) << "child already exited";

  c = 'x';
  ASSERT_EQ(write(to_child[1], &c, 1), 1);
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (int fd : {to_parent[0], to_parent[1], to_child[0], to_child[1]}) {
    close(fd);
  }
}

TEST_F(CacheLogTest, OpenReaderStaysCorrectAcrossCompactionByAnotherHandle) {
  constexpr uint64_t kKeys = 64;
  auto key = [](uint64_t i) { return KeyInShard(i, i % 4); };
  // The first eight keys are stored twice; the later record wins.
  auto expected = [](uint64_t i) { return i < 8 ? 1000 + i : i; };
  PipelineCache writer(Opts());
  for (uint64_t i = 0; i < kKeys; ++i) writer.Store(key(i), Verdict(i));
  for (uint64_t i = 0; i < 8; ++i) writer.Store(key(i), Verdict(1000 + i));

  // One memory entry: nearly every reader lookup goes to the logs.
  PipelineCache reader(Opts(/*max_entries=*/1));
  for (uint64_t i = 0; i < kKeys; ++i) {
    auto hit = reader.Lookup(key(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->steps, expected(i)) << i;
  }

  // An unbounded pass drops only the superseded records.
  const fs::path log0 = PipelineCache::LogPath(dir_.string(), key(0));
  const uintmax_t before = fs::file_size(log0);
  auto pass = PipelineCache::CompactDir(dir_.string(), {});
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_TRUE(pass->ran);
  EXPECT_EQ(pass->entries_scanned, kKeys);
  EXPECT_EQ(pass->entries_removed, 0u);
  EXPECT_LT(fs::file_size(log0), before);
  for (uint64_t i = 0; i < kKeys; ++i) {
    auto hit = reader.Lookup(key(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->steps, expected(i)) << i;
  }

  // A size-bounded pass removes entries: they become misses, never
  // wrong answers.
  auto bounded = PipelineCache::CompactDir(dir_.string(), {.max_bytes = 1000});
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_GT(bounded->entries_removed, 0u);
  uint64_t gone = 0;
  for (uint64_t i = 0; i < kKeys; ++i) {
    auto hit = reader.Lookup(key(i));
    if (hit.has_value()) {
      EXPECT_EQ(hit->steps, expected(i)) << i;
    } else {
      ++gone;
    }
  }
  EXPECT_GE(gone, bounded->entries_removed - 1);  // one may sit in memory
  EXPECT_EQ(reader.stats().disk_corrupt, 0u);

  // The writer's descriptors still name the replaced logs; its next
  // store must land in the new ones.
  writer.Store(KeyInShard(100, 0), Verdict(5));
  auto fresh = reader.Lookup(KeyInShard(100, 0));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->steps, 5u);
}

TEST_F(CacheLogTest, FlippedByteInAMiddleRecordCostsOnlyThatRecord) {
  constexpr uint64_t kRecords = 5;
  constexpr uint64_t kDamaged = 2;
  auto key = [](uint64_t i) { return KeyInShard(i, 2); };
  const fs::path log = PipelineCache::LogPath(dir_.string(), key(0));
  // Damage the length field, the body, and the checksum in turn.
  for (int where = 0; where < 3; ++where) {
    fs::remove_all(dir_);
    {
      PipelineCache writer(Opts());
      for (uint64_t i = 0; i < kRecords; ++i) writer.Store(key(i), Verdict(i));
    }
    const uintmax_t size = fs::file_size(log);
    ASSERT_EQ(size % kRecords, 0u);
    const uintmax_t len = size / kRecords;
    const uintmax_t offset =
        kDamaged * len + (where == 0 ? 5 : where == 1 ? len / 2 : len - 3);
    {
      std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(offset));
      char c = 0;
      f.get(c);
      f.seekp(static_cast<std::streamoff>(offset));
      f.put(static_cast<char>(c ^ 0x40));
    }
    PipelineCache reader(Opts());
    for (uint64_t i = 0; i < kRecords; ++i) {
      auto hit = reader.Lookup(key(i));
      if (i == kDamaged) {
        EXPECT_FALSE(hit.has_value()) << "where " << where;
      } else {
        ASSERT_TRUE(hit.has_value()) << "where " << where << " record " << i;
        EXPECT_EQ(hit->steps, i);
      }
    }
    EXPECT_EQ(reader.stats().disk_corrupt, 1u) << "where " << where;

    // The next store of the damaged key supersedes it.
    PipelineCache writer(Opts());
    writer.Store(key(kDamaged), Verdict(kDamaged));
    EXPECT_EQ(writer.stats().torn_tails_repaired, 0u);
    PipelineCache healed(Opts());
    for (uint64_t i = 0; i < kRecords; ++i) {
      EXPECT_TRUE(healed.Lookup(key(i)).has_value()) << "where " << where;
    }
  }
}

TEST_F(CacheLogTest, HundredsOfStoresCreateOnlyTheShardLogsAndLocks) {
  {
    PipelineCache cache(Opts());
    for (uint64_t i = 0; i < 200; ++i) {
      cache.Store(CacheKey{i * 31 + 1, i * 0x9e3779b97f4a7c15ULL}, Verdict(i));
    }
  }
  std::set<std::string> allowed;
  for (size_t s = 0; s < PipelineCache::kDiskShards; ++s) {
    std::string log = fs::path(PipelineCache::LogPath(
                                   dir_.string(), KeyInShard(0, s)))
                          .filename()
                          .string();
    allowed.insert(log);
    allowed.insert(log.substr(0, log.size() - 4) + ".lock");
  }
  size_t logs = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir_)) {
    std::string name = e.path().filename().string();
    EXPECT_TRUE(e.is_regular_file()) << name;
    EXPECT_EQ(allowed.count(name), 1u) << name;
    if (e.path().extension() == ".hsl") ++logs;
  }
  EXPECT_LE(logs, PipelineCache::kDiskShards);
  EXPECT_GT(logs, 1u);
}

TEST_F(CacheLogTest, ConcurrentAppendsThroughOneHandleNeverInterleave) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  auto key = [](uint64_t i) { return KeyInShard(i, 6); };
  PipelineCache writer(Opts());
  PipelineCache reader(Opts(/*max_entries=*/1));
  std::atomic<bool> done{false};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> reader_hits{0};
  std::thread reading([&] {
    for (uint64_t n = 0; !done.load(); ++n) {
      uint64_t i = (n * 7) % kTotal;
      auto hit = reader.Lookup(key(i));
      if (!hit.has_value()) continue;
      reader_hits.fetch_add(1);
      if (hit->steps != i || hit->explanation != Verdict(i).explanation) {
        wrong.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t j = 0; j < kPerThread; ++j) {
        uint64_t i = j * kThreads + static_cast<uint64_t>(t);
        writer.Store(key(i), Verdict(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true);
  reading.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(reader.stats().disk_corrupt, 0u);
  EXPECT_EQ(writer.stats().lease_acquisitions, kTotal);
  EXPECT_EQ(writer.stats().torn_tails_repaired, 0u);

  // Every record is whole: the log is exactly kTotal equal records,
  // and each one reads back.
  const uintmax_t size =
      fs::file_size(PipelineCache::LogPath(dir_.string(), key(0)));
  EXPECT_EQ(size % kTotal, 0u);
  PipelineCache fresh(Opts());
  for (uint64_t i = 0; i < kTotal; ++i) {
    auto hit = fresh.Lookup(key(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->steps, i);
  }
  EXPECT_EQ(fresh.stats().disk_corrupt, 0u);
}

}  // namespace
}  // namespace hornsafe
