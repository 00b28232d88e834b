#ifndef HORNSAFE_CORE_PIPELINE_CACHE_H_
#define HORNSAFE_CORE_PIPELINE_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "andor/adorn.h"
#include "andor/segment.h"
#include "andor/subset.h"
#include "canonical/canonical.h"
#include "fd/fd.h"
#include "lang/fingerprint.h"
#include "lang/program.h"
#include "util/status.h"

namespace hornsafe {

/// 128-bit content-addressed cache key. `lo` is the primary structural
/// hash (cone fingerprint + context); `hi` re-mixes the same inputs
/// under an independent seed so that a single 64-bit collision cannot
/// alias two entries.
struct CacheKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const CacheKey& o) const {
    return hi == o.hi && lo == o.lo;
  }

  /// Filesystem-safe rendering ("<hi hex>-<lo hex>").
  std::string ToHex() const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    return static_cast<size_t>(k.hi ^ k.lo);
  }
};

/// One cached per-argument-position subset-search outcome: the verdict
/// with the exact cost metadata and final explanation string the cold
/// search produced. kUnsafe results are never cached — their witness
/// explanations embed global node ids that shift under edits, so they
/// are recomputed to stay bit-identical to a cold run (DESIGN.md, D12).
struct CachedVerdict {
  Safety verdict = Safety::kUndecided;
  uint64_t steps = 0;
  uint64_t graphs_checked = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t scc_short_circuits = 0;
  std::string explanation;
};

/// Hit/miss/eviction accounting across every tier (CLI `--stats`).
struct PipelineCacheStats {
  uint64_t verdict_hits = 0;
  uint64_t verdict_misses = 0;
  uint64_t verdict_insertions = 0;
  uint64_t verdict_evictions = 0;
  uint64_t disk_hits = 0;
  uint64_t disk_misses = 0;
  uint64_t disk_corrupt = 0;
  uint64_t disk_write_failures = 0;
  /// Lookups abandoned after exhausting read retries (EIO) — served as
  /// misses; the analyzer recomputes.
  uint64_t disk_read_failures = 0;
  /// Stores skipped non-fatally because the filesystem is full
  /// (ENOSPC): the cache degrades to memory-only for that entry.
  uint64_t disk_write_skips = 0;
  /// Transient disk faults that were retried (any tier, any attempt).
  uint64_t disk_retry_attempts = 0;
  // --- Multi-writer disk-tier coordination (DESIGN.md, D16) ---
  /// Shard log locks taken by this handle's stores: exactly one per
  /// disk store.
  uint64_t lease_acquisitions = 0;
  /// Torn tails (bytes past the last valid record, left by a writer
  /// that died or was torn mid-append) truncated by this handle's
  /// stores before appending.
  uint64_t torn_tails_repaired = 0;
  /// Compaction passes completed by this handle / skipped because
  /// another process held the compaction lock.
  uint64_t compactions_run = 0;
  uint64_t compactions_skipped = 0;
  uint64_t compaction_entries_removed = 0;
  uint64_t compaction_bytes_removed = 0;
  /// Dirty cones reported by SafetyAnalyzer::Update — edits whose cone
  /// fingerprints changed and whose old entries became unreachable.
  uint64_t cones_invalidated = 0;
  uint64_t canon_hits = 0;
  uint64_t canon_misses = 0;
  uint64_t emptiness_hits = 0;
  uint64_t emptiness_misses = 0;
  /// Node-table segment tier (per-component spans with prune verdicts
  /// and SCC slices — andor/segment.h).
  uint64_t segment_hits = 0;
  uint64_t segment_misses = 0;
  uint64_t segment_insertions = 0;
  uint64_t segment_evictions = 0;
  /// Shared frozen FD closure indexes (FdClosureCache).
  uint64_t fd_index_hits = 0;
  uint64_t fd_index_misses = 0;
  /// Per-predicate structural-hash memo (PredicateHashMemo).
  uint64_t pred_hash_hits = 0;
  uint64_t pred_hash_misses = 0;
};

/// Cross-query cache for the safety pipeline, shared by any number of
/// `SafetyAnalyzer` builds (and across processes through the disk tier).
///
/// Tiers, from hottest to coldest:
///
///   * *verdict tier* — (cone fingerprint, analysis context, adornment,
///     position) -> CachedVerdict. In-memory LRU backed by an optional
///     on-disk directory (write-through; lookups fall back to disk and
///     promote). This is the tier that skips exponential subset
///     searches. Lock-striped across kVerdictShards slices keyed by the
///     low bits of the 128-bit key, so serve workers checking distinct
///     cones never contend on one mutex; hit/miss/insert/evict counters
///     are kept per shard and summed by `stats()`, so they stay exact
///     under any number of concurrent readers.
///   * *canonicalization tier* — strict program hash -> Algorithm 1
///     output, keyed on the exact rendered listing so the cached copy
///     is bit-identical to what a cold run would rebuild. Small LRU.
///   * *emptiness tier* — strict canonical-program hash -> the
///     Algorithm 3 LFP bits (T₀ flags). Small LRU.
///   * *adornment sets* — the pattern-keyed AdornmentCache, shared
///     across rebuilds (its keys are program-independent grouping
///     patterns, so reuse across arbitrary programs is sound).
///
/// Every tier is thread-safe: one PipelineCache serves any number of
/// concurrent analyzer builds and subset searches (serve workers share
/// one instance — see DESIGN.md, D14). The artifact tiers sit behind a
/// single mutex (they are touched once per pipeline build, not per
/// search, so striping them would buy nothing).
///
/// Disk format: one append-only log per shard, `<dir>/shard-<x>.hsl`
/// (16 shards keyed by the low bits of `key.lo`). Each record is
/// self-checksummed: magic, length, format version, key, store time,
/// the verdict fields and an FNV sum. A store appends one record under
/// the handle's shard mutex and the shard's flock (`shard-<x>.lock`),
/// so every other handle sees it on its next lookup; `Flush()` makes
/// the appends durable, one `fdatasync` per shard written since the
/// last flush (group commit: callers flush once per unit of work, and
/// the destructor flushes whatever is left). Readers keep a key ->
/// offset index per shard, extend it by parsing only the bytes
/// appended since their last look, re-verify the checksum of every
/// record they serve (a bad record is a counted miss; the next store of
/// that key supersedes it), and rebuild it when the log's inode
/// changes. Transient I/O errors are retried with exponential backoff
/// (`disk_retries`); a full disk (ENOSPC) downgrades the store to
/// memory-only instead of failing the analysis. Every disk syscall is
/// wrapped by the process-wide `FaultInjector` (util/fault.h), so the
/// failure paths are exercised deterministically in tests. See
/// DESIGN.md, D13.
///
/// Multi-writer coordination (DESIGN.md, D16): any number of processes
/// may share one cache directory. A writer that dies mid-append leaves
/// at most a torn tail; the next store to that shard finds the bytes
/// past the last valid record and truncates them before appending
/// (`torn_tails_repaired`), and no reader ever indexes them.
/// `Compact()` runs a single-writer (flock-elected), size- and
/// age-bounded GC pass that rewrites each log by rename and is
/// crash-interruptible at any syscall.
class PipelineCache {
 public:
  struct Options {
    /// Verdict-tier LRU capacity (entries).
    size_t max_entries = 1 << 16;
    /// On-disk tier root; empty disables the disk tier. Created on
    /// first store if missing.
    std::string dir;
    /// Transient disk failures (EIO on read/write/fsync/rename) are
    /// retried this many times before the operation is abandoned
    /// (lookup degrades to a miss, store is dropped). 0 disables
    /// retries.
    int disk_retries = 2;
    /// Backoff before retry k is `retry_backoff_us << (k-1)`
    /// microseconds (exponential, capped by the retry count).
    uint32_t retry_backoff_us = 100;
  };

  /// Bump when CachedVerdict's serialized layout changes; readers treat
  /// any other version as a miss.
  static constexpr uint32_t kDiskFormatVersion = 2;

  /// Disk-tier shard fan-out. Writers lock one shard log at a time, so
  /// 16 shards keep N fleet workers (typically <= cores) off each
  /// other's locks the same way the in-memory stripes do.
  static constexpr size_t kDiskShards = 16;

  /// The log holding `key`'s records ("<dir>/shard-<x>.hsl"). Exposed
  /// so tests and tools can inspect the log without re-deriving the
  /// layout.
  static std::string LogPath(const std::string& dir, const CacheKey& key);

  /// Bounds for one compaction/GC pass over the disk tier.
  struct CompactionOptions {
    /// Target total record bytes; the oldest entries are removed until
    /// the tier fits. 0 disables the size bound.
    uint64_t max_bytes = 0;
    /// Entries older than this are removed regardless of size. 0
    /// disables the age bound.
    int64_t max_age_seconds = 0;
  };

  struct CompactionResult {
    /// False when another process held the compaction lock — the pass
    /// was skipped, not failed (single-writer election).
    bool ran = false;
    uint64_t entries_scanned = 0;
    uint64_t entries_removed = 0;
    uint64_t bytes_removed = 0;
    /// Shard logs replaced by a rewritten copy.
    uint64_t logs_rewritten = 0;
  };

  PipelineCache() : PipelineCache(Options{}) {}
  explicit PipelineCache(Options options);
  ~PipelineCache();
  PipelineCache(const PipelineCache&) = delete;
  PipelineCache& operator=(const PipelineCache&) = delete;

  // --- Verdict tier (thread-safe) ---------------------------------------

  std::optional<CachedVerdict> Lookup(const CacheKey& key);
  /// Inserts into the memory tier and appends to the disk tier. The
  /// record is visible to every handle when this returns and durable
  /// after the next `Flush()`.
  void Store(const CacheKey& key, const CachedVerdict& verdict);

  /// `fdatasync`s every shard log this handle appended to since its
  /// last flush: one sync per shard, under the shard mutex but not the
  /// shard flock, so other writers keep appending meanwhile. A failed
  /// sync counts once (`disk_write_skips` for a full disk, else
  /// `disk_write_failures` after the retries) and leaves the shard for
  /// the next flush; its records stay indexed and served. No-op without
  /// a disk tier.
  void Flush();

  // --- Pipeline-artifact tiers (thread-safe) ----------------------------

  /// A cached canonicalization: the frozen Algorithm 1 output plus the
  /// display variables the storing build interned into its term pool
  /// (analyzer.h). Shared by pointer — the producing snapshot and every
  /// hitting snapshot read the same immutable object, so a tier hit
  /// copies two words instead of a whole Program.
  struct CanonArtifact {
    std::shared_ptr<const CanonicalizationResult> canon;
    std::vector<TermId> display_vars;
  };

  /// Canonicalization output for the strict-hashed input program, or
  /// nullopt. `options_bits` folds the CanonicalizeOptions flags.
  std::optional<CanonArtifact> LookupCanonicalization(
      uint64_t strict_hash, uint64_t options_bits);
  void StoreCanonicalization(uint64_t strict_hash, uint64_t options_bits,
                             CanonArtifact artifact);

  /// Algorithm 3 LFP bits for the strict-hashed canonical program.
  std::optional<std::vector<bool>> LookupEmptiness(uint64_t strict_hash);
  void StoreEmptiness(uint64_t strict_hash, const std::vector<bool>& bits);

  /// Shared adornment-set memo (grouping-pattern keyed, never evicted).
  AdornmentCache& adornments() { return adornments_; }

  /// Shared frozen FD closure indexes, keyed by (FdSetHash, arity,
  /// closure mode) — see fd/fd.h.
  FdClosureCache& fd_closures() { return fd_closures_; }

  /// Per-predicate structural-hash memo for ComputeFingerprints — see
  /// lang/fingerprint.h.
  PredicateHashMemo& pred_hashes() { return pred_hashes_; }

  // --- Segment tier (thread-safe) ---------------------------------------

  /// The cache key of one predicate component's node-table segment:
  /// `component_hash` folds the component's ordered rule-guard sequence
  /// and predicate emptiness bits, `mode_bits` the prune/closure flags
  /// (everything the build + prune + condensation of the span read).
  static CacheKey SegmentKey(uint64_t component_hash, uint32_t mode_bits);

  /// Cached segment for the component, or null. Immutable and safe to
  /// graft concurrently; grafting systems pin it by shared_ptr.
  std::shared_ptr<const NodeTableSegment> LookupSegment(const CacheKey& key);

  /// Stores a freshly encoded segment and returns the resident entry —
  /// the incumbent if one already exists (content-addressed, so a
  /// racing builder produced an equivalent encoding), else `segment`
  /// itself. Callers attach the returned pointer to their spans so
  /// consecutive snapshots share one allocation.
  std::shared_ptr<const NodeTableSegment> StoreSegment(
      const CacheKey& key, std::shared_ptr<const NodeTableSegment> segment);

  // --- Disk-tier maintenance (thread-safe) ------------------------------

  /// Runs one compaction/GC pass over the disk tier: elects itself the
  /// single compactor via `<dir>/.compact.lock` (busy -> `ran=false`),
  /// picks the age-expired entries and then the oldest ones until the
  /// tier fits `max_bytes`, rewrites every log that holds a victim, a
  /// superseded record or damaged bytes (latest valid record per key,
  /// written to a temp file, fsynced and renamed over the log under the
  /// shard lock). Each rename is the commit record of its log: a
  /// compactor killed at any syscall leaves every log either old or
  /// new. Errors are returned only for a missing disk tier or lock
  /// syscall failure.
  Result<CompactionResult> Compact(const CompactionOptions& bounds);

  /// Convenience for tools (`hornsafe cache-compact`, the fleet
  /// driver): opens `dir` and compacts it.
  static Result<CompactionResult> CompactDir(const std::string& dir,
                                             const CompactionOptions& bounds);

  // --- Accounting -------------------------------------------------------

  /// Records `count` dirty cones from an incremental Update.
  void NoteInvalidatedCones(size_t count);

  PipelineCacheStats stats() const;

  size_t size() const;
  const Options& options() const { return options_; }

  /// Verdict-tier lock stripes. 16 is far past the worker counts we
  /// serve (contention halves with every doubling; beyond the core
  /// count the extra stripes only cost a few empty maps).
  static constexpr size_t kVerdictShards = 16;

 private:
  struct VerdictEntry {
    CacheKey key;
    CachedVerdict verdict;
  };
  using Lru = std::list<VerdictEntry>;

  /// One lock stripe of the verdict tier: an independent LRU over the
  /// keys that hash to this shard, with its own counters (summed by
  /// `stats()` — per-shard tallies under the shard lock are exact, and
  /// aggregation on read keeps the hot path free of shared atomics).
  struct Shard {
    mutable std::mutex mu;
    Lru lru;  // front = most recently used
    std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    // `lo` is the fully mixed structural hash; its low bits are as good
    // as any.
    return shards_[static_cast<size_t>(key.lo) % shard_count_];
  }

  /// Where one record sits in its shard log.
  struct RecordRef {
    uint64_t offset = 0;
    uint32_t length = 0;
  };

  /// One shard log as this handle sees it. `mu` guards the descriptor
  /// and the index: readers hold it while they extend the index and
  /// read a record, writers hold it and the shard's flock for the whole
  /// append.
  struct DiskShard {
    std::mutex mu;
    int log_fd = -1;
    uint64_t dev = 0;
    uint64_t ino = 0;
    /// Log bytes already parsed into `index` (a record boundary).
    uint64_t indexed_end = 0;
    /// Appended to since the last successful `Flush()` sync.
    bool unsynced = false;
    std::unordered_map<CacheKey, RecordRef, CacheKeyHash> index;
  };

  std::optional<CachedVerdict> DiskLookup(const CacheKey& key);
  void DiskStore(const CacheKey& key, const CachedVerdict& verdict);
  enum class LogSync { kReady, kMissing, kFailed };
  /// Brings shard `s`'s index up to the log's current end, reopening
  /// the log when its path now names another inode (a compaction) or
  /// the file shrank. A `writer` (flock held) creates a missing log and
  /// truncates a torn tail; readers leave unparsed tail bytes alone.
  /// Caller holds `disk_[s].mu`.
  LogSync SyncShardLocked(size_t s, bool writer);
  /// Bumps one disk-tier counter of misc_stats_.
  void Count(uint64_t PipelineCacheStats::*field);
  /// Counts a retry and sleeps `retry_backoff_us << (attempt-1)` µs.
  void RetryBackoff(int attempt);
  /// Inserts into `shard`'s LRU assuming its lock is held; evicts as
  /// needed.
  void InsertLocked(Shard& shard, const CacheKey& key,
                    const CachedVerdict& verdict);

  Options options_;
  /// Active stripes: caches below kVerdictShards * 64 entries collapse
  /// to one stripe — exact global LRU for the tiny capacities tests and
  /// tuning configs use, where eviction order matters and contention
  /// does not; production-sized caches use all kVerdictShards.
  size_t shard_count_ = 1;
  /// Per-shard LRU capacity: ceil(max_entries / shard_count_), so the
  /// configured total is an upper bound within rounding. Eviction is
  /// per shard (a hot shard evicts while a cold one sits half-empty —
  /// the usual striped-LRU approximation).
  size_t shard_capacity_ = 1;
  std::array<Shard, kVerdictShards> shards_;

  std::array<DiskShard, kDiskShards> disk_;

  /// Guards the artifact tiers and the non-verdict counters (disk,
  /// invalidation, canon/emptiness). Never held during disk I/O.
  mutable std::mutex misc_mu_;
  /// Only the non-verdict fields are used; `stats()` overlays the
  /// verdict fields from the shards.
  PipelineCacheStats misc_stats_;

  /// Small LRUs for whole-pipeline artifacts (strict-hash keyed).
  static constexpr size_t kMaxArtifacts = 8;
  std::list<std::pair<CacheKey, CanonArtifact>> canon_;
  std::list<std::pair<uint64_t, std::vector<bool>>> emptiness_;
  AdornmentCache adornments_;
  FdClosureCache fd_closures_;
  PredicateHashMemo pred_hashes_;

  /// Segment tier: per-component node-table spans behind their own
  /// lock (probed once per component per build). LRU, one entry per
  /// (component hash, mode). Segments outlive eviction while any
  /// snapshot pins them — entries hold shared_ptrs.
  static constexpr size_t kMaxSegmentEntries = 256;
  mutable std::mutex segment_mu_;
  using SegmentLru = std::list<
      std::pair<CacheKey, std::shared_ptr<const NodeTableSegment>>>;
  SegmentLru segments_;
  std::unordered_map<CacheKey, SegmentLru::iterator, CacheKeyHash>
      segment_index_;
  uint64_t segment_hits_ = 0;
  uint64_t segment_misses_ = 0;
  uint64_t segment_insertions_ = 0;
  uint64_t segment_evictions_ = 0;
};

}  // namespace hornsafe

#endif  // HORNSAFE_CORE_PIPELINE_CACHE_H_
