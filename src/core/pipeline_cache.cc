#include "core/pipeline_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "lang/struct_hash.h"
#include "util/fault.h"
#include "util/proc.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

constexpr char kRecordMagic[4] = {'H', 'S', 'L', 'R'};
/// Framing around a record body: magic, body length, checksum.
constexpr size_t kRecordOverhead = 4 + 4 + 8;
/// Bodies are a few hundred bytes; a larger length field is damage.
constexpr uint32_t kMaxBodyLength = 1u << 20;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool ReadU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + i]))
          << (8 * i);
  }
  *pos += 4;
  return true;
}

bool ReadU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + i]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

/// Raw FNV-1a over the serialized payload (not MixHash-finalized; this
/// is an integrity check, not an addressing hash).
uint64_t Checksum(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// One decoded log record.
struct LogRecord {
  CacheKey key;
  int64_t stored_ns = 0;
  CachedVerdict verdict;
  /// Whole record, framing included.
  uint32_t length = 0;
};

/// Record layout: "HSLR" | u32 body length | body | u64 FNV over the
/// length and body. Body: u32 format version | u64 key.hi | u64 key.lo
/// | i64 store time (ns since the epoch) | u32 verdict | u64 steps,
/// graphs, memo hits, memo misses, SCC short-circuits | u32 explanation
/// length | explanation bytes. Little-endian throughout.
std::string EncodeRecord(const CacheKey& key, int64_t stored_ns,
                         const CachedVerdict& v) {
  std::string out(kRecordMagic, sizeof(kRecordMagic));
  AppendU32(&out, 0);  // body length, patched below
  AppendU32(&out, PipelineCache::kDiskFormatVersion);
  AppendU64(&out, key.hi);
  AppendU64(&out, key.lo);
  AppendU64(&out, static_cast<uint64_t>(stored_ns));
  AppendU32(&out, static_cast<uint32_t>(v.verdict));
  AppendU64(&out, v.steps);
  AppendU64(&out, v.graphs_checked);
  AppendU64(&out, v.memo_hits);
  AppendU64(&out, v.memo_misses);
  AppendU64(&out, v.scc_short_circuits);
  AppendU32(&out, static_cast<uint32_t>(v.explanation.size()));
  out += v.explanation;
  std::string length;
  AppendU32(&length, static_cast<uint32_t>(out.size() - 8));
  out.replace(4, 4, length);
  AppendU64(&out, Checksum(std::string_view(out).substr(4)));
  return out;
}

enum class Parse {
  kOk,
  /// The framing holds (magic, and a length that fits the buffer) but
  /// the checksum or the body does not check out.
  kCorrupt,
  /// No record starts here: bad magic, or a length that runs past the
  /// buffer (a torn append, or one still being written).
  kUnframed,
};

Parse ParseRecord(std::string_view buf, size_t pos, LogRecord* rec) {
  if (buf.size() - pos < kRecordOverhead ||
      std::memcmp(buf.data() + pos, kRecordMagic, sizeof(kRecordMagic)) !=
          0) {
    return Parse::kUnframed;
  }
  size_t p = pos + sizeof(kRecordMagic);
  uint32_t body_len = 0;
  ReadU32(buf, &p, &body_len);
  if (body_len > kMaxBodyLength ||
      body_len > buf.size() - pos - kRecordOverhead) {
    return Parse::kUnframed;
  }
  rec->length = static_cast<uint32_t>(body_len + kRecordOverhead);
  size_t sum_at = p + body_len;
  uint64_t sum = 0;
  ReadU64(buf, &sum_at, &sum);
  if (sum != Checksum(buf.substr(pos + 4, 4 + body_len))) {
    return Parse::kCorrupt;
  }
  std::string_view body = buf.substr(0, p + body_len);
  uint32_t version = 0, verdict_raw = 0, explanation_len = 0;
  uint64_t stored = 0;
  CachedVerdict& v = rec->verdict;
  if (!ReadU32(body, &p, &version) ||
      version != PipelineCache::kDiskFormatVersion ||
      !ReadU64(body, &p, &rec->key.hi) || !ReadU64(body, &p, &rec->key.lo) ||
      !ReadU64(body, &p, &stored) || !ReadU32(body, &p, &verdict_raw) ||
      verdict_raw > 2 || !ReadU64(body, &p, &v.steps) ||
      !ReadU64(body, &p, &v.graphs_checked) ||
      !ReadU64(body, &p, &v.memo_hits) ||
      !ReadU64(body, &p, &v.memo_misses) ||
      !ReadU64(body, &p, &v.scc_short_circuits) ||
      !ReadU32(body, &p, &explanation_len) ||
      p + explanation_len != body.size()) {
    return Parse::kCorrupt;
  }
  rec->stored_ns = static_cast<int64_t>(stored);
  v.verdict = static_cast<Safety>(verdict_raw);
  v.explanation.assign(body.substr(p, explanation_len));
  return Parse::kOk;
}

/// Offset of the first valid record at or after `from`, or npos.
size_t NextRecord(std::string_view buf, size_t from) {
  std::string_view magic(kRecordMagic, sizeof(kRecordMagic));
  LogRecord rec;
  for (size_t q = buf.find(magic, from); q != std::string_view::npos;
       q = buf.find(magic, q + 1)) {
    if (ParseRecord(buf, q, &rec) == Parse::kOk) return q;
  }
  return std::string_view::npos;
}

struct ScanResult {
  /// Bytes consumed; anything past this is the tail — a torn append or
  /// one still in flight.
  size_t end = 0;
  /// Damaged records (or unframed stretches) skipped.
  uint64_t corrupt = 0;
};

/// Parses log bytes `buf` that start at file offset `base`, calling
/// `on_record(record, offset)` for every valid record in order. Damage
/// costs only the bytes it covers: the scan resumes at the next valid
/// record. Bytes after the last valid record are the tail, except a
/// complete-but-corrupt final record, which is skipped as damage.
template <typename Fn>
ScanResult ScanLog(std::string_view buf, uint64_t base, Fn on_record) {
  ScanResult res;
  LogRecord rec;
  size_t pos = 0;
  while (pos < buf.size()) {
    Parse parsed = ParseRecord(buf, pos, &rec);
    if (parsed == Parse::kOk) {
      on_record(rec, base + pos);
      pos += rec.length;
      res.end = pos;
      continue;
    }
    // Resynchronize past the damage: a flipped length byte must not
    // swallow the records behind it, so search rather than trust it.
    bool framed = parsed == Parse::kCorrupt;
    size_t framed_end = framed ? pos + rec.length : 0;
    size_t next = NextRecord(buf, pos + 1);
    if (next != std::string_view::npos) {
      ++res.corrupt;
      pos = res.end = next;
      continue;
    }
    if (framed && framed_end == buf.size()) {
      ++res.corrupt;
      res.end = framed_end;
    }
    break;
  }
  return res;
}

/// Reads `len` bytes at `offset`, retrying EINTR; short at end of file.
bool ReadAt(int fd, uint64_t offset, size_t len, std::string* out) {
  out->resize(len);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::pread(fd, out->data() + got, len - got,
                        static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  return true;
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 &&
            ReadAt(fd, 0, static_cast<size_t>(st.st_size), out);
  ::close(fd);
  return ok;
}

bool WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool IsFullDisk(int err) { return err == ENOSPC || err == EDQUOT; }

std::string ShardFile(const std::string& dir, size_t shard,
                      const char* suffix) {
  static const char kHex[] = "0123456789abcdef";
  return StrCat(dir, "/shard-", std::string(1, kHex[shard]), suffix);
}

size_t DiskShardOf(const CacheKey& key) {
  return static_cast<size_t>(key.lo & (PipelineCache::kDiskShards - 1));
}

}  // namespace

std::string CacheKey::ToHex() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

PipelineCache::PipelineCache(Options options)
    : options_(std::move(options)) {
  if (options_.max_entries == 0) options_.max_entries = 1;
  if (options_.disk_retries < 0) options_.disk_retries = 0;
  shard_count_ =
      options_.max_entries >= kVerdictShards * 64 ? kVerdictShards : 1;
  shard_capacity_ =
      (options_.max_entries + shard_count_ - 1) / shard_count_;
  if (options_.dir.empty()) return;
  // On failure there is no disk tier this run: every store fails to
  // take its shard lock and counts a write failure.
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
}

PipelineCache::~PipelineCache() {
  Flush();
  for (DiskShard& shard : disk_) {
    if (shard.log_fd >= 0) ::close(shard.log_fd);
  }
}

std::string PipelineCache::LogPath(const std::string& dir,
                                   const CacheKey& key) {
  return ShardFile(dir, DiskShardOf(key), ".hsl");
}

std::optional<CachedVerdict> PipelineCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.stats.verdict_hits;
      return it->second->verdict;
    }
  }
  if (!options_.dir.empty()) {
    std::optional<CachedVerdict> from_disk = DiskLookup(key);
    if (from_disk) {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.stats.verdict_hits;
      if (shard.index.find(key) == shard.index.end()) {
        InsertLocked(shard, key, *from_disk);
      }
      return from_disk;
    }
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.stats.verdict_misses;
  return std::nullopt;
}

void PipelineCache::Store(const CacheKey& key, const CachedVerdict& verdict) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->verdict = verdict;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      InsertLocked(shard, key, verdict);
      ++shard.stats.verdict_insertions;
    }
  }
  if (!options_.dir.empty()) DiskStore(key, verdict);
}

void PipelineCache::InsertLocked(Shard& shard, const CacheKey& key,
                                 const CachedVerdict& verdict) {
  shard.lru.push_front({key, verdict});
  shard.index[key] = shard.lru.begin();
  while (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.stats.verdict_evictions;
  }
}

void PipelineCache::RetryBackoff(int attempt) {
  Count(&PipelineCacheStats::disk_retry_attempts);
  if (options_.retry_backoff_us == 0) return;
  uint64_t us = static_cast<uint64_t>(options_.retry_backoff_us)
                << (attempt > 0 ? attempt - 1 : 0);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void PipelineCache::Count(uint64_t PipelineCacheStats::*field) {
  std::lock_guard<std::mutex> lock(misc_mu_);
  ++(misc_stats_.*field);
}

PipelineCache::LogSync PipelineCache::SyncShardLocked(size_t s, bool writer) {
  DiskShard& shard = disk_[s];
  std::string path = ShardFile(options_.dir, s, ".hsl");
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno != ENOENT) return LogSync::kFailed;
    if (!writer) return LogSync::kMissing;
    st.st_ino = 0;  // forces the (creating) open below
  }
  if (shard.log_fd < 0 || static_cast<uint64_t>(st.st_ino) != shard.ino ||
      static_cast<uint64_t>(st.st_dev) != shard.dev ||
      static_cast<uint64_t>(st.st_size) < shard.indexed_end) {
    // First use, a compaction renamed a new log into place, or the file
    // shrank under us: index the current inode from scratch.
    if (shard.log_fd >= 0) ::close(shard.log_fd);
    shard.index.clear();
    shard.indexed_end = 0;
    const int create = writer ? O_CREAT : 0;
    shard.log_fd =
        ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC | create, 0644);
    if (shard.log_fd < 0 || ::fstat(shard.log_fd, &st) != 0) {
      const bool missing = errno == ENOENT;
      if (shard.log_fd >= 0) ::close(shard.log_fd);
      shard.log_fd = -1;
      return missing ? LogSync::kMissing : LogSync::kFailed;
    }
    shard.dev = static_cast<uint64_t>(st.st_dev);
    shard.ino = static_cast<uint64_t>(st.st_ino);
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size <= shard.indexed_end) return LogSync::kReady;

  std::string buf;
  if (!ReadAt(shard.log_fd, shard.indexed_end, size - shard.indexed_end,
              &buf)) {
    return LogSync::kFailed;
  }
  ScanResult scan = ScanLog(buf, shard.indexed_end,
                            [&](const LogRecord& rec, uint64_t offset) {
                              shard.index[rec.key] = {offset, rec.length};
                            });
  bool repaired = false;
  if (writer && scan.end < buf.size()) {
    // Under the flock no append is in flight, so bytes past the last
    // valid record belong to a writer that died or tore mid-append.
    if (::ftruncate(shard.log_fd,
                    static_cast<off_t>(shard.indexed_end + scan.end)) != 0) {
      return LogSync::kFailed;
    }
    repaired = true;
  }
  shard.indexed_end += scan.end;
  if (scan.corrupt > 0 || repaired) {
    std::lock_guard<std::mutex> lock(misc_mu_);
    misc_stats_.disk_corrupt += scan.corrupt;
    misc_stats_.torn_tails_repaired += repaired ? 1 : 0;
  }
  return LogSync::kReady;
}

std::optional<CachedVerdict> PipelineCache::DiskLookup(const CacheKey& key) {
  DiskShard& shard = disk_[DiskShardOf(key)];
  FaultInjector& faults = FaultInjector::Global();
  std::string data;
  RecordRef ref;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) RetryBackoff(attempt);
    faults.MaybeCrash();
    // EIO is transient: retry with backoff, then degrade to a miss.
    bool read_ok = !faults.ShouldInject(FaultKind::kReadError);
    if (read_ok) {
      std::lock_guard<std::mutex> lock(shard.mu);
      LogSync sync = SyncShardLocked(DiskShardOf(key), false);
      auto it = shard.index.find(key);
      if (sync == LogSync::kMissing ||
          (sync == LogSync::kReady && it == shard.index.end())) {
        Count(&PipelineCacheStats::disk_misses);
        return std::nullopt;
      }
      read_ok = sync == LogSync::kReady;
      if (read_ok) {
        ref = it->second;
        read_ok = ReadAt(shard.log_fd, ref.offset, ref.length, &data);
      }
    }
    if (read_ok) break;
    if (attempt >= options_.disk_retries) {
      Count(&PipelineCacheStats::disk_read_failures);
      return std::nullopt;
    }
  }
  // Media corruption: flip one bit of what we read back. Re-verifying
  // the record below catches it.
  if (faults.ShouldInject(FaultKind::kBitFlip)) faults.CorruptOneBit(&data);

  LogRecord rec;
  if (ParseRecord(data, 0, &rec) != Parse::kOk || rec.length != data.size() ||
      !(rec.key == key)) {
    // A bad record is just a miss. Forget it so it is not re-read; the
    // next store of the key appends a record that supersedes it.
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end() && it->second.offset == ref.offset) {
        shard.index.erase(it);
      }
    }
    Count(&PipelineCacheStats::disk_corrupt);
    return std::nullopt;
  }
  Count(&PipelineCacheStats::disk_hits);
  return std::move(rec.verdict);
}

void PipelineCache::DiskStore(const CacheKey& key,
                              const CachedVerdict& verdict) {
  const size_t s = DiskShardOf(key);
  DiskShard& shard = disk_[s];
  const std::string record = EncodeRecord(key, NowNs(), verdict);
  FaultInjector& faults = FaultInjector::Global();

  faults.MaybeCrash();
  // Both locks: the mutex guards this handle's view of the shard (its
  // descriptor and index), the flock orders every writer of the log
  // across handles and processes. The kernel drops the flock if we die.
  std::lock_guard<std::mutex> guard(shard.mu);
  auto lock = FileLock::Acquire(ShardFile(options_.dir, s, ".lock"));
  if (!lock.ok()) return Count(&PipelineCacheStats::disk_write_failures);
  Count(&PipelineCacheStats::lease_acquisitions);
  faults.MaybeCrash();

  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) RetryBackoff(attempt);
    if (SyncShardLocked(s, true) != LogSync::kReady) {
      if (attempt < options_.disk_retries) continue;
      return Count(&PipelineCacheStats::disk_write_failures);
    }
    // Synced under the flock: the log ends exactly at indexed_end.
    const uint64_t start = shard.indexed_end;
    // How much of the record reaches the log: all of it, nothing (a
    // full disk, EIO), a prefix the writer sees fail (short write), or
    // a prefix the writer never learns about (torn append: the write
    // "succeeded" but the bytes past the prefix were lost before the
    // next Flush synced them).
    const bool enospc = faults.ShouldInject(FaultKind::kEnospc);
    std::string_view bytes = record;
    bool injected_failure = false;
    bool torn = false;
    if (enospc) {
      bytes = {};
    } else if (faults.ShouldInject(FaultKind::kWriteError)) {
      bytes = {};
      injected_failure = true;
    } else if (faults.ShouldInject(FaultKind::kShortWrite)) {
      bytes = bytes.substr(0, faults.TornLength(record.size()));
      injected_failure = true;
    } else if (faults.ShouldInject(FaultKind::kTornAppend)) {
      bytes = bytes.substr(0, faults.TornLength(record.size()));
      torn = true;
    }
    bool wrote = WriteAll(shard.log_fd, bytes);
    bool full_disk = enospc || (!wrote && IsFullDisk(errno));
    faults.MaybeCrash();
    if (torn) return;  // the next store to this shard repairs the tail
    if (wrote && !injected_failure && !full_disk) {
      shard.index[key] = {start, static_cast<uint32_t>(record.size())};
      shard.indexed_end = start + record.size();
      shard.unsynced = true;
      faults.MaybeCrash();
      return;
    }
    // Drop whatever part of the record reached the log; a failed
    // append must not leave a prefix behind it.
    if (::ftruncate(shard.log_fd, static_cast<off_t>(start)) != 0) {
      // The leftover prefix is a torn tail; the next store repairs it.
    }
    if (full_disk) return Count(&PipelineCacheStats::disk_write_skips);
    if (attempt < options_.disk_retries) continue;
    return Count(&PipelineCacheStats::disk_write_failures);
  }
}

void PipelineCache::Flush() {
  if (options_.dir.empty()) return;
  FaultInjector& faults = FaultInjector::Global();
  for (DiskShard& shard : disk_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    if (!shard.unsynced || shard.log_fd < 0) continue;
    for (int attempt = 0;; ++attempt) {
      if (attempt > 0) RetryBackoff(attempt);
      faults.MaybeCrash();
      // One fired decision surfaces in exactly one counter: a full
      // disk is a skip, any other sync error a failure once the
      // retries run out.
      bool full_disk = faults.ShouldInject(FaultKind::kEnospc);
      bool synced = false;
      if (!full_disk && !faults.ShouldInject(FaultKind::kWriteError)) {
        synced = ::fdatasync(shard.log_fd) == 0;
        full_disk = !synced && IsFullDisk(errno);
      }
      if (synced) {
        shard.unsynced = false;
        break;
      }
      if (full_disk) {
        Count(&PipelineCacheStats::disk_write_skips);
        break;
      }
      if (attempt < options_.disk_retries) continue;
      Count(&PipelineCacheStats::disk_write_failures);
      break;
    }
  }
}

Result<PipelineCache::CompactionResult> PipelineCache::Compact(
    const CompactionOptions& bounds) {
  if (options_.dir.empty()) {
    return Status::NotFound("cache has no disk tier");
  }
  CompactionResult res;
  FaultInjector& faults = FaultInjector::Global();

  // Single-writer election: whoever holds .compact.lock runs the pass;
  // everyone else reports a clean skip. The lock dies with the holder,
  // so a killed compactor never blocks the next one.
  auto lock_or = FileLock::TryAcquire(StrCat(options_.dir, "/.compact.lock"));
  if (!lock_or.ok()) return lock_or.status();
  if (!lock_or.value().held()) {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.compactions_skipped;
    return res;
  }
  FileLock compact_lock = std::move(lock_or.value());

  // The live entry of a key is its latest valid record.
  struct Live {
    int64_t stored_ns;
    uint32_t length;
    uint64_t offset;
  };
  using LiveMap = std::unordered_map<CacheKey, Live, CacheKeyHash>;
  auto live_entries = [](std::string_view log) {
    LiveMap live;
    ScanLog(log, 0, [&](const LogRecord& rec, uint64_t offset) {
      live[rec.key] = {rec.stored_ns, rec.length, offset};
    });
    return live;
  };

  // Pass 1, without the shard locks: pick the victims, oldest first.
  // Concurrent appends only add newer records, which pass 2 keeps.
  struct Candidate {
    int64_t stored_ns;
    size_t shard;
    uint64_t offset;
    uint32_t length;
  };
  std::vector<Candidate> candidates;
  uint64_t total_bytes = 0;
  std::array<bool, kDiskShards> has_log{};
  std::string log;
  for (size_t s = 0; s < kDiskShards; ++s) {
    if (!ReadWholeFile(ShardFile(options_.dir, s, ".hsl"), &log)) continue;
    has_log[s] = !log.empty();
    for (const auto& [key, e] : live_entries(log)) {
      candidates.push_back({e.stored_ns, s, e.offset, e.length});
      total_bytes += e.length;
    }
  }
  res.entries_scanned = candidates.size();
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.stored_ns, a.shard, a.offset) <
                     std::tie(b.stored_ns, b.shard, b.offset);
            });
  const int64_t now = NowNs();
  std::array<std::unordered_set<uint64_t>, kDiskShards> victims;
  for (const Candidate& c : candidates) {
    bool expired = bounds.max_age_seconds > 0 &&
                   now - c.stored_ns >= bounds.max_age_seconds * 1000000000LL;
    bool over_budget = bounds.max_bytes > 0 && total_bytes > bounds.max_bytes;
    if (!expired && !over_budget) continue;
    victims[c.shard].insert(c.offset);
    total_bytes -= c.length;
  }

  // Pass 2, one shard at a time under its flock: rewrite the log with
  // its surviving live records (in log order) whenever that drops
  // anything — a victim, a superseded record, damaged bytes. The new
  // log replaces the old by rename, so a crash at any point leaves one
  // or the other; readers notice the new inode on their next lookup.
  for (size_t s = 0; s < kDiskShards; ++s) {
    if (!has_log[s]) continue;
    const std::string path = ShardFile(options_.dir, s, ".hsl");
    faults.MaybeCrash();
    auto shard_lock = FileLock::Acquire(ShardFile(options_.dir, s, ".lock"));
    if (!shard_lock.ok() || !ReadWholeFile(path, &log) || log.empty()) {
      continue;
    }
    std::vector<Live> keep;
    uint64_t removed = 0, removed_bytes = 0;
    for (const auto& [key, e] : live_entries(log)) {
      if (victims[s].count(e.offset) > 0) {
        ++removed;
        removed_bytes += e.length;
      } else {
        keep.push_back(e);
      }
    }
    std::sort(keep.begin(), keep.end(), [](const Live& a, const Live& b) {
      return a.offset < b.offset;
    });
    std::string rewritten;
    for (const Live& e : keep) rewritten.append(log, e.offset, e.length);
    if (rewritten.size() == log.size()) continue;
    const std::string tmp = StrCat(path, ".compact");
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) continue;
    bool ok = WriteAll(fd, rewritten) && ::fsync(fd) == 0;
    ::close(fd);
    faults.MaybeCrash();
    if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      continue;
    }
    res.entries_removed += removed;
    res.bytes_removed += removed_bytes;
    ++res.logs_rewritten;
  }

  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.compactions_run;
    misc_stats_.compaction_entries_removed += res.entries_removed;
    misc_stats_.compaction_bytes_removed += res.bytes_removed;
  }
  res.ran = true;
  return res;
}

Result<PipelineCache::CompactionResult> PipelineCache::CompactDir(
    const std::string& dir, const CompactionOptions& bounds) {
  Options options;
  options.max_entries = 64;  // tool handle: the memory tier is unused
  options.dir = dir;
  PipelineCache cache(options);
  return cache.Compact(bounds);
}

CacheKey PipelineCache::SegmentKey(uint64_t component_hash,
                                   uint32_t mode_bits) {
  uint64_t lo = CombineHash(component_hash, mode_bits);
  uint64_t hi = CombineHash(MixHash(component_hash ^ 0x7365676d656e7431ULL),
                            mode_bits + 1);
  return {hi, lo};
}

std::shared_ptr<const NodeTableSegment> PipelineCache::LookupSegment(
    const CacheKey& key) {
  std::lock_guard<std::mutex> lock(segment_mu_);
  auto it = segment_index_.find(key);
  if (it == segment_index_.end()) {
    ++segment_stats_.segment_misses;
    return nullptr;
  }
  segments_.splice(segments_.begin(), segments_, it->second);
  ++segment_stats_.segment_hits;
  return segments_.front().second;
}

std::shared_ptr<const NodeTableSegment> PipelineCache::StoreSegment(
    const CacheKey& key, std::shared_ptr<const NodeTableSegment> segment) {
  if (segment == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(segment_mu_);
  auto it = segment_index_.find(key);
  if (it != segment_index_.end()) {
    // Content-addressed: a racing builder encoded an equivalent span,
    // so keep the incumbent — the caller adopts it, which is what lets
    // consecutive snapshots share one allocation.
    segments_.splice(segments_.begin(), segments_, it->second);
    return segments_.front().second;
  }
  segments_.emplace_front(key, std::move(segment));
  segment_index_[key] = segments_.begin();
  ++segment_stats_.segment_insertions;
  while (segments_.size() > kMaxSegmentEntries) {
    segment_index_.erase(segments_.back().first);
    segments_.pop_back();
    ++segment_stats_.segment_evictions;
  }
  return segments_.front().second;
}

void PipelineCache::NoteInvalidatedCones(size_t count) {
  std::lock_guard<std::mutex> lock(misc_mu_);
  misc_stats_.cones_invalidated += count;
}

PipelineCacheStats PipelineCache::stats() const {
  PipelineCacheStats out;
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    out = misc_stats_;
  }
  {
    std::lock_guard<std::mutex> lock(segment_mu_);
    MergeStats(segment_stats_, &out);
  }
  // Per-shard tallies are exact (every bump happens under the shard
  // lock); the sum is a consistent-enough snapshot — a concurrent
  // lookup may land before or after it, same as with one global lock.
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    MergeStats(shard.stats, &out);
  }
  return out;
}

size_t PipelineCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace hornsafe
