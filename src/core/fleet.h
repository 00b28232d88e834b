#ifndef HORNSAFE_CORE_FLEET_H_
#define HORNSAFE_CORE_FLEET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline_cache.h"
#include "lang/program.h"
#include "util/json.h"
#include "util/status.h"

namespace hornsafe {

/// The fleet corpus driver: `hornsafe fleet <dir>` forks/execs N
/// worker processes over a directory tree of programs. Each worker
/// claims the next unanalyzed program whenever it is free and analyzes
/// it against one shared `--cache-dir`; the driver merges the results
/// into one report. Programs sharing library modules hit the same
/// verdict entries across processes (cone fingerprints are
/// content-addressed), so the corpus warms the cache superlinearly in
/// corpus overlap. Workers that crash (or are crash-injected via
/// HORNSAFE_FAULTS process_kill) are respawned, run the program they
/// had claimed first and then claim on; the shared cache's append-only
/// shard logs (DESIGN.md, D16) guarantee the crash cannot corrupt other
/// workers' verdicts.
struct FleetOptions {
  /// Directory tree scanned recursively for "*.hs" programs.
  std::string corpus_dir;
  /// Shared on-disk PipelineCache root; empty = each worker keeps a
  /// private in-memory cache (still dedupes within its own programs).
  std::string cache_dir;
  /// Worker processes (clamped to [1, 256] and the corpus size).
  int procs = 1;
  /// Analyzer threads per worker.
  int jobs = 1;
  /// Worker executable; empty = this binary (/proc/self/exe). Workers
  /// are invoked as `<exe> fleet-worker --shard LIST --out F ...`,
  /// where LIST is the corpus list they all claim from.
  std::string worker_exe;
  /// HORNSAFE_FAULTS spec exported to workers (soaks), with a seed
  /// derived from it per worker attempt; empty inherits the parent
  /// environment unchanged.
  std::string fault_spec;
  /// Crash-respawn budget across all workers. A worker that dies
  /// without its final summary line is respawned while it owes a
  /// claimed program or unclaimed ones remain; past the budget what it
  /// owed is reported as verdict "error".
  int max_respawns = 16;
  /// Run one PipelineCache::Compact pass (with these bounds) after the
  /// workers finish.
  bool compact_after = false;
  PipelineCache::CompactionOptions compact_bounds;
  /// Scratch directory for the program list, claim counter and worker
  /// output; empty = a fresh directory under TMPDIR, removed at the end.
  std::string scratch_dir;
};

/// One program's outcome, as reported by its worker.
struct FleetProgramResult {
  std::string path;  ///< corpus-relative
  /// "safe" | "unsafe" | "undecided" | "error" (load/analysis failure
  /// or exhausted respawn budget).
  std::string verdict;
  uint64_t queries = 0;
  double wall_seconds = 0;
  std::string error;  ///< non-empty iff verdict == "error"
  int worker = -1;    ///< worker slot that produced the result
};

/// Merged fleet outcome: per-program verdicts (sorted by path) plus
/// the aggregate cache and fault picture summed over worker summaries.
struct FleetReport {
  std::vector<FleetProgramResult> programs;
  uint64_t procs = 0;
  uint64_t corpus_size = 0;
  uint64_t analyzed = 0;
  uint64_t errors = 0;
  double wall_seconds = 0;

  // Cache stats summed across workers. In a cold, fault-free fleet run
  // every verdict-tier hit is a cross-program hit by construction: each
  // program is claimed and analyzed exactly once, so its own stores
  // cannot feed its own lookups — only another program's (same or
  // different worker; disk_hits isolates the cross-*process* share).
  uint64_t verdict_hits = 0;
  uint64_t verdict_misses = 0;
  uint64_t disk_hits = 0;
  uint64_t disk_misses = 0;
  uint64_t disk_corrupt = 0;
  uint64_t disk_write_skips = 0;
  uint64_t disk_read_failures = 0;
  /// Records appended to the shared disk tier (one per store attempt).
  uint64_t disk_stores = 0;
  uint64_t torn_tails_repaired = 0;
  double verdict_hit_rate = 0;  ///< hits / (hits + misses), 0 when cold-empty

  /// Faults the workers' injectors fired (summed per-kind over worker
  /// summaries; kills are visible as worker_crashes instead — a killed
  /// worker's counters die with it).
  uint64_t faults_injected = 0;
  uint64_t worker_crashes = 0;
  uint64_t respawns = 0;

  bool compaction_ran = false;
  uint64_t compaction_entries_removed = 0;

  Json ToJson() const;
  std::string ToText() const;
};

/// Recursively lists "*.hs" files under `corpus_dir`, sorted by
/// corpus-relative path.
std::vector<std::string> ListCorpus(const std::string& corpus_dir);

/// Runs the fleet: list the corpus once, spawn `procs` workers that
/// claim programs on demand, respawn crashed ones, merge per-program
/// results and worker summaries. Fails only on driver-level errors
/// (empty corpus, unusable scratch dir, spawn failure); per-program
/// failures become "error" verdicts.
Result<FleetReport> RunFleet(const FleetOptions& options);

/// Loads one program from `path` for analysis (parse + whatever
/// builtin registration the caller's analysis mode needs).
using ProgramLoader =
    std::function<Result<Program>(const std::string& path)>;

/// Worker-side entry point (the CLI dispatches `fleet-worker` here).
/// Re-runs what an earlier attempt claimed in `out_file` without
/// reporting it, then claims "<rel>\t<abs>" lines of `list_file` (via
/// the shared counter `<list_file>.next`) and analyzes them against
/// `cache_dir` until none are left. Appends a claim line per claim, one
/// JSON line per program and, after one `PipelineCache::Flush`, a final
/// summary line (cache + fault counters) to `out_file`. Returns the
/// process exit code. `loader` parses each program.
int FleetWorkerMain(const std::string& list_file,
                    const std::string& out_file,
                    const std::string& cache_dir, int jobs,
                    const ProgramLoader& loader);

}  // namespace hornsafe

#endif  // HORNSAFE_CORE_FLEET_H_
