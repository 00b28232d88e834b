#include "core/pipeline_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "core/analyzer.h"
#include "parser/parser.h"
#include "util/proc.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

CacheKey Key(uint64_t n) { return CacheKey{n * 31 + 7, n}; }

CachedVerdict SafeVerdict(uint64_t steps) {
  CachedVerdict v;
  v.verdict = Safety::kSafe;
  v.steps = steps;
  v.graphs_checked = steps / 2;
  v.memo_hits = 3;
  v.memo_misses = 4;
  v.scc_short_circuits = 5;
  v.explanation = "every AND-graph satisfies the subset condition";
  return v;
}

/// A unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("hornsafe_cache_test_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(PipelineCacheTest, MemoryRoundtrip) {
  PipelineCache cache;
  EXPECT_FALSE(cache.Lookup(Key(1)).has_value());
  cache.Store(Key(1), SafeVerdict(100));
  auto hit = cache.Lookup(Key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, Safety::kSafe);
  EXPECT_EQ(hit->steps, 100u);
  EXPECT_EQ(hit->graphs_checked, 50u);
  EXPECT_EQ(hit->explanation,
            "every AND-graph satisfies the subset condition");
  // A key differing only in `hi` is a different entry.
  CacheKey other = Key(1);
  other.hi ^= 1;
  EXPECT_FALSE(cache.Lookup(other).has_value());
  PipelineCacheStats s = cache.stats();
  EXPECT_EQ(s.verdict_hits, 1u);
  EXPECT_EQ(s.verdict_misses, 2u);
  EXPECT_EQ(s.verdict_insertions, 1u);
}

TEST(PipelineCacheTest, LruEviction) {
  PipelineCache::Options opts;
  opts.max_entries = 4;
  PipelineCache cache(opts);
  for (uint64_t i = 0; i < 8; ++i) cache.Store(Key(i), SafeVerdict(i));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().verdict_evictions, 4u);
  // Oldest entries are gone, newest survive.
  EXPECT_FALSE(cache.Lookup(Key(0)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(7)).has_value());
  // Touching an entry protects it from the next eviction.
  ASSERT_TRUE(cache.Lookup(Key(4)).has_value());
  cache.Store(Key(100), SafeVerdict(1));
  EXPECT_TRUE(cache.Lookup(Key(4)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(5)).has_value());
}

TEST(PipelineCacheTest, DiskRoundtripAcrossInstances) {
  TempDir dir("roundtrip");
  PipelineCache::Options opts;
  opts.dir = dir.str();
  {
    PipelineCache writer(opts);
    writer.Store(Key(42), SafeVerdict(1234));
  }
  PipelineCache reader(opts);
  auto hit = reader.Lookup(Key(42));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->steps, 1234u);
  EXPECT_EQ(hit->explanation,
            "every AND-graph satisfies the subset condition");
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // Promoted into memory: a second lookup does not touch disk again.
  reader.Lookup(Key(42));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().verdict_hits, 2u);
}

TEST(PipelineCacheTest, CorruptRecordIsAMissAndIsSuperseded) {
  TempDir dir("corrupt");
  PipelineCache::Options opts;
  opts.dir = dir.str();
  {
    PipelineCache writer(opts);
    writer.Store(Key(7), SafeVerdict(9));
    fs::path log = PipelineCache::LogPath(dir.str(), Key(7));
    ASSERT_TRUE(fs::exists(log));
    // Flip a key byte: the record checksum must catch it.
    std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('\xff');
  }
  PipelineCache reader(opts);
  EXPECT_FALSE(reader.Lookup(Key(7)).has_value());
  EXPECT_EQ(reader.stats().disk_corrupt, 1u);
  // The next store of the key appends a record that supersedes it.
  reader.Store(Key(7), SafeVerdict(9));
  PipelineCache reader2(opts);
  auto hit = reader2.Lookup(Key(7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->steps, 9u);
}

TEST(PipelineCacheTest, TruncatedAndGarbageLogsAreMissesAndGetRepaired) {
  TempDir dir("garbage");
  PipelineCache::Options opts;
  opts.dir = dir.str();
  fs::create_directories(dir.path);
  auto write_log = [&](const CacheKey& key, const std::string& bytes) {
    std::ofstream f(PipelineCache::LogPath(dir.str(), key), std::ios::binary);
    f << bytes;
  };
  write_log(Key(1), "");                    // empty
  write_log(Key(2), "HSLR");                // truncated header
  write_log(Key(3), std::string(64, 'x'));  // wrong magic
  PipelineCache cache(opts);
  for (uint64_t i = 1; i <= 3; ++i) {
    EXPECT_FALSE(cache.Lookup(Key(i)).has_value());
  }
  EXPECT_EQ(cache.stats().disk_misses, 3u);
  // Bytes that hold no record are a tail the next store truncates.
  for (uint64_t i = 1; i <= 3; ++i) cache.Store(Key(i), SafeVerdict(i));
  EXPECT_EQ(cache.stats().torn_tails_repaired, 2u);
  PipelineCache reader(opts);
  for (uint64_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(reader.Lookup(Key(i)).has_value());
  }
  EXPECT_EQ(reader.stats().disk_corrupt, 0u);
}

/// FNV-1a, as the log records use it.
uint64_t Fnv(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(PipelineCacheTest, VersionMismatchIsAMiss) {
  TempDir dir("version");
  PipelineCache::Options opts;
  opts.dir = dir.str();
  fs::path log = PipelineCache::LogPath(dir.str(), Key(5));
  {
    PipelineCache writer(opts);
    writer.Store(Key(5), SafeVerdict(9));
  }
  // Bump the format version (bytes 8..11, after magic and length) and
  // re-seal the checksum, so only the version check can reject it.
  std::string bytes;
  {
    std::ifstream in(log, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 16u);
  bytes[8] = static_cast<char>(PipelineCache::kDiskFormatVersion + 1);
  uint64_t sum = Fnv(bytes.substr(4, bytes.size() - 12));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
  }
  std::ofstream(log, std::ios::binary | std::ios::trunc) << bytes;
  PipelineCache reader(opts);
  EXPECT_FALSE(reader.Lookup(Key(5)).has_value());
  EXPECT_EQ(reader.stats().disk_corrupt, 1u);
}

TEST(PipelineCacheTest, ShardLayoutIsKeyedByLowBits) {
  CacheKey k{0xabc, 0x123};  // lo & 0xf == 3
  EXPECT_EQ(PipelineCache::LogPath("/d", k), "/d/shard-3.hsl");
}

TEST(PipelineCacheTest, CompactionEnforcesSizeAndAgeBounds) {
  TempDir dir("compact");
  PipelineCache::Options opts;
  opts.dir = dir.str();
  PipelineCache cache(opts);
  for (uint64_t i = 0; i < 32; ++i) cache.Store(Key(i), SafeVerdict(i));
  auto log_bytes = [&] {
    uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(dir.path)) {
      if (e.path().extension() == ".hsl") total += e.file_size();
    }
    return total;
  };

  // Unbounded pass over logs with nothing to drop: no log is rewritten.
  auto noop = cache.Compact({});
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_TRUE(noop->ran);
  EXPECT_EQ(noop->entries_scanned, 32u);
  EXPECT_EQ(noop->entries_removed, 0u);
  EXPECT_EQ(noop->logs_rewritten, 0u);

  // Size bound: shrink to ~4 entries' worth of bytes (records are all
  // the same length here).
  uint64_t entry_bytes = log_bytes() / 32;
  auto sized = cache.Compact({.max_bytes = 4 * entry_bytes});
  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  EXPECT_TRUE(sized->ran);
  EXPECT_EQ(sized->entries_removed, 28u);
  EXPECT_EQ(sized->bytes_removed, 28 * entry_bytes);
  EXPECT_GT(sized->logs_rewritten, 0u);
  EXPECT_EQ(log_bytes(), 4 * entry_bytes);

  // Age bound: once the survivors are older than a second, expire
  // everything older than that.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  auto aged = cache.Compact({.max_age_seconds = 1});
  ASSERT_TRUE(aged.ok()) << aged.status().ToString();
  EXPECT_EQ(aged->entries_removed, 4u);
  EXPECT_EQ(log_bytes(), 0u);
  EXPECT_EQ(cache.stats().compactions_run, 3u);
  EXPECT_EQ(cache.stats().compaction_entries_removed, 32u);
}

TEST(PipelineCacheTest, CompactionIsSingleWriterElected) {
  TempDir dir("compactlock");
  PipelineCache::Options opts;
  opts.dir = dir.str();
  PipelineCache cache(opts);
  cache.Store(Key(3), SafeVerdict(3));
  // Hold the compaction lock as "another process" would.
  auto held = FileLock::TryAcquire(dir.str() + "/.compact.lock");
  ASSERT_TRUE(held.ok() && held->held());
  auto skipped = cache.Compact({});
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_FALSE(skipped->ran);
  EXPECT_EQ(cache.stats().compactions_skipped, 1u);
  held->Release();
  auto ran = cache.Compact({});
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(ran->ran);
}

TEST(PipelineCacheTest, KeyHexIsFilesystemSafeAndUnique) {
  EXPECT_EQ((CacheKey{0, 0}).ToHex(),
            "0000000000000000-0000000000000000");
  EXPECT_EQ((CacheKey{0xdeadbeefULL, 0x123456789abcdef0ULL}).ToHex(),
            "00000000deadbeef-123456789abcdef0");
}

TEST(PipelineCacheTest, EmptinessTierRoundtrip) {
  PipelineCache cache;
  std::vector<bool> bits = {true, false, true};
  EXPECT_FALSE(cache.LookupEmptiness(99).has_value());
  cache.StoreEmptiness(99, bits);
  auto hit = cache.LookupEmptiness(99);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, bits);
  PipelineCacheStats s = cache.stats();
  EXPECT_EQ(s.emptiness_hits, 1u);
  EXPECT_EQ(s.emptiness_misses, 1u);
}

TEST(PipelineCacheTest, InvalidationCounter) {
  PipelineCache cache;
  cache.NoteInvalidatedCones(3);
  cache.NoteInvalidatedCones(2);
  EXPECT_EQ(cache.stats().cones_invalidated, 5u);
}

std::shared_ptr<const NodeTableSegment> OneNodeSegment(uint32_t tag) {
  auto seg = std::make_shared<NodeTableSegment>();
  seg->num_pred_slots = 1;
  SegmentNode n;
  n.kind = PropNodeKind::kHeadArg;
  n.pred_slot = 0;
  n.position = tag;
  seg->nodes.push_back(n);
  return seg;
}

TEST(PipelineCacheTest, SegmentTierRoundtripAndKeyStructure) {
  PipelineCache cache;
  CacheKey key = PipelineCache::SegmentKey(42, /*mode_bits=*/5);
  EXPECT_EQ(cache.LookupSegment(key), nullptr);
  std::shared_ptr<const NodeTableSegment> resident =
      cache.StoreSegment(key, OneNodeSegment(7));
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(cache.LookupSegment(key).get(), resident.get());
  // The prune-mode bits are part of the key: the same component hash
  // built under different modes is a distinct entry.
  EXPECT_EQ(cache.LookupSegment(PipelineCache::SegmentKey(42, 4)), nullptr);
  PipelineCacheStats s = cache.stats();
  EXPECT_EQ(s.segment_hits, 1u);
  EXPECT_EQ(s.segment_misses, 2u);
  EXPECT_EQ(s.segment_insertions, 1u);
}

TEST(PipelineCacheTest, SegmentTierKeepsIncumbentOnRacingStore) {
  // Two builders racing on the same component produce equivalent
  // encodings; the incumbent must win so every snapshot shares one
  // object (and the accounting counts its nodes once).
  PipelineCache cache;
  CacheKey key = PipelineCache::SegmentKey(7, 1);
  std::shared_ptr<const NodeTableSegment> first =
      cache.StoreSegment(key, OneNodeSegment(1));
  std::shared_ptr<const NodeTableSegment> second =
      cache.StoreSegment(key, OneNodeSegment(1));
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(cache.stats().segment_insertions, 1u);
}

TEST(PipelineCacheTest, SegmentTierEvictsLruButPinsStayAlive) {
  PipelineCache cache;
  CacheKey key0 = PipelineCache::SegmentKey(0, 0);
  std::shared_ptr<const NodeTableSegment> pinned =
      cache.StoreSegment(key0, OneNodeSegment(0));
  for (uint64_t i = 1; i < 300; ++i) {  // kMaxSegmentEntries is 256
    cache.StoreSegment(PipelineCache::SegmentKey(i, 0),
                       OneNodeSegment(static_cast<uint32_t>(i)));
  }
  PipelineCacheStats s = cache.stats();
  EXPECT_EQ(s.segment_insertions, 300u);
  EXPECT_GT(s.segment_evictions, 0u);
  EXPECT_EQ(cache.LookupSegment(key0), nullptr);
  EXPECT_NE(cache.LookupSegment(PipelineCache::SegmentKey(299, 0)), nullptr);
  // Eviction dropped the cache's reference, not ours: a segment pinned
  // by a retired snapshot stays fully usable.
  EXPECT_EQ(pinned->nodes.size(), 1u);
  EXPECT_EQ(pinned.use_count(), 1);
}

Program ParseOrDie(const std::string& text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Two independent guarded-recursion modules — two predicate
/// components, each encoded as its own segment.
std::string TwoModuleText() {
  return ".infinite f1/2.\n.fd f1: 2 -> 1.\n"
         "r1(X) :- f1(X,Y), r1(Y), g1(Y).\n"
         "r1(X) :- base1(X).\n"
         "?- r1(X).\n"
         ".infinite f2/2.\n.fd f2: 2 -> 1.\n"
         "r2(X) :- f2(X,Y), r2(Y), g2(Y).\n"
         "r2(X) :- base2(X).\n"
         "?- r2(X).\n";
}

TEST(PipelineCacheTest, CorruptSegmentEntryFallsBackBitIdentical) {
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto prime = SafetyAnalyzer::Create(ParseOrDie(TwoModuleText()), opts);
  ASSERT_TRUE(prime.ok()) << prime.status().ToString();
  ASSERT_GT(prime->counters().segments_encoded, 0u);
  // Mangle every resident entry in place (the spans hold the same
  // objects the cache serves) so the next build's grafts cannot
  // validate: pred_slot points far outside the slot table.
  size_t mangled = 0;
  for (const SegmentSpan& sp : prime->system().spans()) {
    if (sp.segment == nullptr || sp.segment->nodes.empty()) continue;
    const_cast<NodeTableSegment*>(sp.segment.get())
        ->nodes.front()
        .pred_slot = 1 << 20;
    ++mangled;
  }
  ASSERT_GT(mangled, 0u);
  auto warm = SafetyAnalyzer::Create(ParseOrDie(TwoModuleText()), opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // Every graft was rejected by validation and re-interned fresh...
  EXPECT_GT(warm->counters().segment_grafts_rejected, 0u);
  EXPECT_EQ(warm->counters().segments_grafted, 0u);
  // ...and the result is bit-identical to an uncached build.
  auto cold = SafetyAnalyzer::Create(ParseOrDie(TwoModuleText()));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(warm->system().ToString(warm->canonical()),
            cold->system().ToString(cold->canonical()));
  std::vector<QueryAnalysis> wq = warm->AnalyzeQueries();
  std::vector<QueryAnalysis> cq = cold->AnalyzeQueries();
  ASSERT_EQ(wq.size(), cq.size());
  for (size_t i = 0; i < wq.size(); ++i) {
    EXPECT_EQ(wq[i].overall, cq[i].overall) << "query " << i;
  }
}

TEST(PipelineCacheTest, CanonTierSharesOneFrozenArtifact) {
  PipelineCache cache;
  EXPECT_FALSE(cache.LookupCanonicalization(11, 0).has_value());
  auto canon = std::make_shared<const CanonicalizationResult>();
  cache.StoreCanonicalization(11, 0, {canon, {1, 2, 3}});
  auto hit = cache.LookupCanonicalization(11, 0);
  ASSERT_TRUE(hit.has_value());
  // The tier hands back the same frozen object, not a deep copy, and
  // the display-variable ids ride along with it.
  EXPECT_EQ(hit->canon.get(), canon.get());
  EXPECT_EQ(hit->display_vars, (std::vector<TermId>{1, 2, 3}));
  // Option bits are part of the key; null artifacts are not stored.
  EXPECT_FALSE(cache.LookupCanonicalization(11, 1).has_value());
  cache.StoreCanonicalization(12, 0, {nullptr, {}});
  EXPECT_FALSE(cache.LookupCanonicalization(12, 0).has_value());
}

}  // namespace
}  // namespace hornsafe
