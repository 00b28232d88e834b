// Disk-tier robustness: no corruption of an on-disk cache log may
// crash the process or change a verdict — a damaged record is always a
// clean miss that the analyzer recomputes (and the next store
// supersedes or, for a torn tail, truncates). Faults are injected two
// ways: physically (truncating / bit-flipping / zero-filling the .hsl
// logs on disk) and through the deterministic FaultInjector wrapping
// every disk syscall.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "parser/parser.h"
#include "util/fault.h"
#include "util/proc.h"
#include "util/rng.h"
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
    "?- r(X).\n"
    "?- s(X,Y).\n";

class CacheFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           StrCat("hornsafe_cache_fault_", ::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name(),
                  "_", getpid());
    fs::remove_all(dir_);
    auto parsed = ParseProgram(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    program_ = std::make_unique<Program>(std::move(*parsed));
  }

  void TearDown() override {
    // Never leak injection into other tests in this binary.
    FaultInjector::Global().Configure("");
    fs::remove_all(dir_);
  }

  /// Analyzes with a fresh disk-backed cache and returns the rendered
  /// verdicts (safety + explanation per position, in query order).
  std::vector<std::string> Analyze(PipelineCacheStats* stats_out = nullptr) {
    PipelineCache::Options copts;
    copts.dir = dir_.string();
    copts.retry_backoff_us = 0;  // keep injected-retry tests fast
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

  /// The shard logs holding at least one byte.
  std::vector<fs::path> LogFiles() const {
    std::vector<fs::path> files;
    if (!fs::exists(dir_)) return files;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".hsl" && e.file_size() > 0) {
        files.push_back(e.path());
      }
    }
    return files;
  }

  fs::path dir_;
  std::unique_ptr<Program> program_;
  PipelineCacheStats last_stats_;
};

TEST_F(CacheFaultTest, RandomizedCorruptionAlwaysCleanMissNeverWrongVerdict) {
  std::vector<std::string> golden = Analyze();  // cold run populates disk
  ASSERT_FALSE(golden.empty());
  ASSERT_FALSE(LogFiles().empty());

  Rng rng(0xfa5742);
  for (int round = 0; round < 30; ++round) {
    // Re-populate, then damage every log a random way.
    Analyze();
    std::vector<fs::path> files = LogFiles();
    ASSERT_FALSE(files.empty());
    for (const fs::path& f : files) {
      uint64_t size = fs::file_size(f);
      switch (rng.Next() % 4) {
        case 0: {  // truncate to a random prefix
          fs::resize_file(f, rng.Next() % (size ? size : 1));
          break;
        }
        case 1: {  // flip one random bit
          std::fstream s(f, std::ios::in | std::ios::out |
                                std::ios::binary);
          uint64_t byte = rng.Next() % size;
          s.seekg(static_cast<std::streamoff>(byte));
          char c = 0;
          s.get(c);
          c ^= static_cast<char>(1u << (rng.Next() % 8));
          s.seekp(static_cast<std::streamoff>(byte));
          s.put(c);
          break;
        }
        case 2: {  // zero-fill the whole file
          std::ofstream s(f, std::ios::binary | std::ios::trunc);
          std::string zeros(size, '\0');
          s.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
          break;
        }
        case 3: {  // empty file
          std::ofstream s(f, std::ios::binary | std::ios::trunc);
          break;
        }
      }
    }
    // Every damaged record must read as a miss and the verdicts must be
    // bit-identical to the cold run — never a crash, never a wrong or
    // missing verdict.
    std::vector<std::string> warm = Analyze();
    EXPECT_EQ(warm, golden) << "round " << round;
  }
}

TEST_F(CacheFaultTest, ZeroFilledLogSelfHealsOnTheNextStore) {
  Analyze();
  std::vector<fs::path> files = LogFiles();
  ASSERT_FALSE(files.empty());
  // Zero-fill one log: no record survives, and the next store to it
  // truncates the zeros as a torn tail before appending...
  uint64_t size = fs::file_size(files[0]);
  std::ofstream(files[0], std::ios::binary | std::ios::trunc)
      << std::string(size, '\0');
  PipelineCacheStats healing;
  Analyze(&healing);
  EXPECT_GE(healing.torn_tails_repaired, 1u);
  // ...so a third run is served entirely from valid records.
  EXPECT_EQ(LogFiles().size(), files.size());
  PipelineCacheStats healed;
  std::vector<std::string> verdicts = Analyze(&healed);
  EXPECT_FALSE(verdicts.empty());
  EXPECT_EQ(healed.disk_corrupt, 0u);
  EXPECT_EQ(healed.torn_tails_repaired, 0u);
}

TEST_F(CacheFaultTest, InjectedFaultsNeverChangeVerdicts) {
  std::vector<std::string> golden = Analyze();

  // Hammer every failure mode at once, deterministically.
  ASSERT_TRUE(FaultInjector::Global().Configure(
      "read_error=0.3,write_error=0.2,short_write=0.2,torn_append=0.3,"
      "bit_flip=0.3,enospc=0.2,seed=1234"));
  for (int round = 0; round < 10; ++round) {
    std::vector<std::string> faulted = Analyze();
    EXPECT_EQ(faulted, golden) << "round " << round;
  }
  FaultInjector::Global().Configure("");
  std::vector<std::string> after = Analyze();
  EXPECT_EQ(after, golden);
}

TEST_F(CacheFaultTest, EnospcIsANonFatalSkip) {
  ASSERT_TRUE(FaultInjector::Global().Configure("enospc=1,seed=5"));
  std::vector<std::string> verdicts = Analyze();
  EXPECT_FALSE(verdicts.empty());
  // Every store was skipped: the disk tier holds no records, but the
  // analysis succeeded from memory.
  EXPECT_TRUE(LogFiles().empty());
  FaultInjector::Global().Configure("");
}

TEST_F(CacheFaultTest, StoreWaitsForAShardLockHeldElsewhere) {
  // Another process (here: another lock description) holding a shard
  // lock delays a store into that shard; it never interleaves with it.
  CacheKey key{4242, 0x37};  // shard 7
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  v.explanation = "lock probe";
  PipelineCache::Options copts;
  copts.dir = dir_.string();
  PipelineCache cache(copts);
  fs::path log = PipelineCache::LogPath(dir_.string(), key);
  std::string lock_path = log.string();
  lock_path.replace(lock_path.size() - 4, 4, ".lock");
  auto held = FileLock::Acquire(lock_path);
  ASSERT_TRUE(held.ok() && held->held());
  std::atomic<bool> stored{false};
  std::thread writer([&] {
    cache.Store(key, v);
    stored.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stored.load());
  EXPECT_FALSE(fs::exists(log) && fs::file_size(log) > 0);
  held->Release();
  writer.join();
  EXPECT_TRUE(stored.load());
  PipelineCache reader(copts);
  EXPECT_TRUE(reader.Lookup(key).has_value());
  EXPECT_EQ(cache.stats().lease_acquisitions, 1u);
}

TEST_F(CacheFaultTest, InjectedFaultCounterParity) {
  // Satellite S1: every injected disk fault is visible in exactly one
  // stats counter. Each kind is driven alone at probability 1 with
  // retries disabled, so `injected[kind]` must equal its counter.
  auto stats_with = [&](const char* spec, int* injected_out,
                        FaultKind kind) {
    fs::remove_all(dir_);
    PipelineCache::Options copts;
    copts.dir = dir_.string();
    copts.disk_retries = 0;
    copts.retry_backoff_us = 0;
    // Populate one valid entry fault-free, then run one faulted store
    // and one faulted fresh-instance lookup.
    FaultInjector::Global().Configure("");
    CacheKey key{12345, 67890};
    CachedVerdict v;
    v.verdict = Safety::kSafe;
    v.steps = 11;
    v.explanation = "parity probe";
    {
      PipelineCache warmup(copts);
      warmup.Store(key, v);
    }
    ASSERT_TRUE(FaultInjector::Global().Configure(spec));
    FaultInjector::Counters before = FaultInjector::Global().counters();
    PipelineCache cache(copts);
    CacheKey key2{22222, 33333};
    cache.Store(key2, v);   // exercises the write path
    cache.Lookup(key);      // exercises the read path (disk, not memory)
    FaultInjector::Counters after = FaultInjector::Global().counters();
    FaultInjector::Global().Configure("");
    *injected_out =
        static_cast<int>(after.injected[static_cast<size_t>(kind)] -
                         before.injected[static_cast<size_t>(kind)]);
    ASSERT_GT(*injected_out, 0) << spec;
    last_stats_ = cache.stats();
  };

  int n = 0;
  stats_with("read_error=1,seed=7", &n, FaultKind::kReadError);
  EXPECT_EQ(last_stats_.disk_read_failures, static_cast<uint64_t>(n));
  EXPECT_EQ(last_stats_.disk_write_failures + last_stats_.disk_corrupt +
                last_stats_.disk_write_skips,
            0u);

  stats_with("write_error=1,seed=7", &n, FaultKind::kWriteError);
  EXPECT_EQ(last_stats_.disk_write_failures, static_cast<uint64_t>(n));
  EXPECT_EQ(last_stats_.disk_read_failures + last_stats_.disk_corrupt +
                last_stats_.disk_write_skips,
            0u);

  stats_with("short_write=1,seed=7", &n, FaultKind::kShortWrite);
  EXPECT_EQ(last_stats_.disk_write_failures, static_cast<uint64_t>(n));
  EXPECT_EQ(last_stats_.disk_read_failures + last_stats_.disk_corrupt +
                last_stats_.disk_write_skips,
            0u);

  // ENOSPC: the S1 regression — every injection lands in
  // disk_write_skips, never in disk_write_failures (the sync point's
  // share is covered by FailedFlushCountsOnceAndKeepsEveryStoredVerdict).
  stats_with("enospc=1,seed=7", &n, FaultKind::kEnospc);
  EXPECT_EQ(last_stats_.disk_write_skips, static_cast<uint64_t>(n));
  EXPECT_EQ(last_stats_.disk_read_failures + last_stats_.disk_corrupt +
                last_stats_.disk_write_failures,
            0u);
}

TEST_F(CacheFaultTest, FailedFlushCountsOnceAndKeepsEveryStoredVerdict) {
  // The sync point moved from every store to Flush. A fault injected
  // there still surfaces in exactly one counter — ENOSPC as a skip, EIO
  // as a failure — and costs no verdict: the appended records stay in
  // the log and are served, durable or not.
  PipelineCache::Options copts;
  copts.dir = dir_.string();
  copts.disk_retries = 0;
  copts.retry_backoff_us = 0;
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  v.explanation = "flush probe";
  auto key = [](uint64_t i) { return CacheKey{i + 1, (i << 4) | (i % 3)}; };
  auto injected = [](FaultKind kind) {
    return FaultInjector::Global()
        .counters()
        .injected[static_cast<size_t>(kind)];
  };
  PipelineCache cache(copts);
  for (uint64_t i = 0; i < 12; ++i) cache.Store(key(i), v);  // 3 shards

  ASSERT_TRUE(FaultInjector::Global().Configure("enospc=1,seed=9"));
  const uint64_t enospc_before = injected(FaultKind::kEnospc);
  cache.Flush();
  const uint64_t enospc = injected(FaultKind::kEnospc) - enospc_before;
  EXPECT_EQ(enospc, 3u);
  EXPECT_EQ(cache.stats().disk_write_skips, enospc);
  EXPECT_EQ(cache.stats().disk_write_failures, 0u);

  ASSERT_TRUE(FaultInjector::Global().Configure("write_error=1,seed=9"));
  const uint64_t eio_before = injected(FaultKind::kWriteError);
  cache.Flush();  // the skipped shards are still unsynced
  const uint64_t eio = injected(FaultKind::kWriteError) - eio_before;
  FaultInjector::Global().Configure("");
  EXPECT_EQ(eio, 3u);
  EXPECT_EQ(cache.stats().disk_write_failures, eio);
  EXPECT_EQ(cache.stats().disk_write_skips, enospc);
  EXPECT_EQ(cache.stats().disk_read_failures + cache.stats().disk_corrupt,
            0u);

  PipelineCache reader(copts);
  for (uint64_t i = 0; i < 12; ++i) {
    auto hit = reader.Lookup(key(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->explanation, "flush probe");
  }
  EXPECT_EQ(reader.stats().disk_hits, 12u);
}

TEST_F(CacheFaultTest, StoresIntoOneShardReachTheSyncPointOncePerFlush) {
  // Group commit: N stores into one shard cost one sync at the next
  // Flush, not N. With write_error armed only around Flush, every sync
  // attempt is one injected decision, so the injector counts them.
  PipelineCache::Options copts;
  copts.dir = dir_.string();
  copts.disk_retries = 0;
  copts.retry_backoff_us = 0;
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  auto syncs_during_flush = [&](PipelineCache& cache) {
    auto count = [] {
      return FaultInjector::Global()
          .counters()
          .injected[static_cast<size_t>(FaultKind::kWriteError)];
    };
    EXPECT_TRUE(FaultInjector::Global().Configure("write_error=1,seed=4"));
    const uint64_t before = count();
    cache.Flush();
    const uint64_t after = count();
    FaultInjector::Global().Configure("");
    return after - before;
  };
  PipelineCache cache(copts);
  constexpr uint64_t kStores = 40;
  for (uint64_t i = 0; i < kStores; ++i) {
    cache.Store(CacheKey{i + 1, (i << 4) | 0x5}, v);  // all in shard 5
  }
  EXPECT_EQ(syncs_during_flush(cache), 1u);
  EXPECT_EQ(cache.stats().disk_write_failures, 1u);
  cache.Flush();  // fault-free: the failed shard syncs now
  EXPECT_EQ(syncs_during_flush(cache), 0u);  // nothing left to sync
  cache.Store(CacheKey{999, 0x5}, v);
  cache.Store(CacheKey{998, 0x7}, v);
  EXPECT_EQ(syncs_during_flush(cache), 2u);  // one per touched shard
  EXPECT_EQ(cache.stats().lease_acquisitions, kStores + 2);
}

TEST_F(CacheFaultTest, TornAppendIsNeverServedAndIsRepairedByTheNextStore) {
  // torn_append damages the log at WRITE time (a record prefix the
  // writer believes complete); no reader serves it — a plain miss —
  // and the next store to the shard truncates it.
  fs::remove_all(dir_);
  PipelineCache::Options copts;
  copts.dir = dir_.string();
  copts.disk_retries = 0;
  copts.retry_backoff_us = 0;
  CacheKey key{777, 888};
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  v.explanation = "corruption probe";
  ASSERT_TRUE(FaultInjector::Global().Configure("torn_append=1,seed=3"));
  {
    PipelineCache writer(copts);
    writer.Store(key, v);
    // The tear is silent at write time: no write-side counter moves.
    EXPECT_EQ(writer.stats().disk_write_failures, 0u);
    EXPECT_EQ(writer.stats().disk_write_skips, 0u);
  }
  FaultInjector::Global().Configure("");
  fs::path log = PipelineCache::LogPath(dir_.string(), key);
  const bool left_bytes = fs::file_size(log) > 0;
  PipelineCache reader(copts);
  EXPECT_FALSE(reader.Lookup(key).has_value());
  EXPECT_EQ(reader.stats().disk_misses, 1u);
  EXPECT_EQ(reader.stats().disk_corrupt, 0u);
  reader.Store(key, v);
  EXPECT_EQ(reader.stats().torn_tails_repaired, left_bytes ? 1u : 0u);
  PipelineCache after(copts);
  EXPECT_TRUE(after.Lookup(key).has_value());
}

TEST_F(CacheFaultTest, BitFlipSurfacesAsCorruptAtTheReadPoint) {
  // bit_flip corrupts the READ-back payload (media corruption): a
  // clean entry on disk, a flipped bit in the reader's buffer. The
  // checksum must catch every injection as disk_corrupt.
  fs::remove_all(dir_);
  PipelineCache::Options copts;
  copts.dir = dir_.string();
  copts.disk_retries = 0;
  copts.retry_backoff_us = 0;
  CacheKey key{777, 888};
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  v.explanation = "corruption probe";
  {
    PipelineCache writer(copts);
    writer.Store(key, v);
  }
  ASSERT_TRUE(FaultInjector::Global().Configure("bit_flip=1,seed=3"));
  PipelineCache reader(copts);
  EXPECT_FALSE(reader.Lookup(key).has_value());
  FaultInjector::Global().Configure("");
  EXPECT_EQ(reader.stats().disk_corrupt, 1u);
  EXPECT_EQ(reader.stats().disk_read_failures, 0u);
}

}  // namespace
}  // namespace hornsafe
