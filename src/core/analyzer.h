#ifndef HORNSAFE_CORE_ANALYZER_H_
#define HORNSAFE_CORE_ANALYZER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "andor/adorn.h"
#include "andor/scc.h"
#include "andor/subset.h"
#include "andor/system.h"
#include "canonical/canonical.h"
#include "constraints/mono.h"
#include "core/pipeline_cache.h"
#include "lang/fingerprint.h"
#include "lang/program.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hornsafe {

/// Options controlling the full safety-analysis pipeline.
struct AnalyzerOptions {
  /// Algorithm 3: prune rules of provably empty predicates. Required for
  /// the subset condition to be exact (Theorem 4); disable only for
  /// ablation studies (Example 11 then reports a false "unsafe").
  bool apply_emptiness = true;
  /// Algorithm 4: prune rules mentioning never-binding nodes. Pure
  /// optimisation (Lemma 9); never changes verdicts.
  bool apply_reduction = true;
  /// Theorem 5: use monotonicity constraints to discharge candidate
  /// counterexample graphs whose cycles are finitely traversable.
  bool use_monotonicity = true;
  /// Algorithm 2, step 4: derive determinants from the Armstrong closure
  /// of the declared FDs instead of the declared FDs only.
  bool use_fd_closure = false;
  /// Canonicalization options (Algorithm 1).
  CanonicalizeOptions canonicalize;
  /// DFS budget for the subset-condition search, applied *per argument
  /// position* so verdicts do not depend on scheduling.
  uint64_t subset_budget = 5'000'000;
  /// Failure-model context: a wall-clock deadline plus an optional
  /// cancellation token, checked cooperatively by the pipeline build
  /// and by every subset search. Searches stopped by either degrade
  /// their position to kUndecided (with the StopReason recorded on the
  /// ArgumentVerdict) instead of aborting; such degraded verdicts are
  /// never written to the pipeline cache. This field is the *default*
  /// context, used by the legacy single-threaded entry points;
  /// concurrent callers (hornsafe serve workers) pass a per-request
  /// ExecContext to the snapshot-pinned overloads instead. Replaceable
  /// with `set_exec`. Not part of the cache context hash (a cached
  /// verdict is valid under any deadline).
  ExecContext exec;
  /// Worker threads for fanning per-argument-position subset searches
  /// across the pool: 1 = serial (default), 0 = hardware default.
  /// Verdicts and explanations are identical at every job count — each
  /// position searches under its own deterministic budget and a fresh
  /// memo table, and results are merged in position order.
  int jobs = 1;
  /// Cross-query pipeline cache (not owned; may outlive any number of
  /// analyzers and be shared between them — including between worker
  /// threads analyzing concurrently; every tier is thread-safe). When
  /// set, per-position subset verdicts are served by cone fingerprint,
  /// and the canonicalization / emptiness / adornment stages reuse
  /// cached artifacts. Results are bit-identical with and without a
  /// cache for entries produced by structurally identical cones
  /// (DESIGN.md, D12).
  PipelineCache* cache = nullptr;
};

/// Verdict for one argument position of an analyzed literal.
struct ArgumentVerdict {
  /// 0-based argument position.
  uint32_t position = 0;
  Safety safety = Safety::kUndecided;
  /// For undecided positions: why the search stopped (budget, deadline
  /// or cancellation). kNone for decided positions. Deterministic for
  /// kBudget and for deadlines already expired at analysis start;
  /// mid-search expiry may degrade a scheduling-dependent subset of
  /// positions (each still carries the correct reason).
  StopReason stop = StopReason::kNone;
  /// For unsafe positions: a rendering of the counterexample AND-graph;
  /// for safe/undecided positions: a short note.
  std::string explanation;
  /// Cost of deciding this position: DFS steps and complete AND-graphs
  /// examined by the subset search. Cache-invariant — a warm analysis
  /// reports the cold numbers (they are part of the cached entry), so
  /// verdict metadata is bit-identical cold vs warm; the work *actually*
  /// spent shows up in Counters instead.
  uint64_t steps = 0;
  uint64_t graphs_checked = 0;
};

/// Result of analyzing one query (or one predicate/adornment pair).
struct QueryAnalysis {
  /// The analyzed literal, in the analyzer's canonical program.
  Literal query;
  /// kSafe iff every argument is safe; kUnsafe if any argument is
  /// unsafe; kUndecided otherwise.
  Safety overall = Safety::kUndecided;
  std::vector<ArgumentVerdict> args;
  /// Human-readable one-line summary.
  std::string Summary(const Program& program) const;
};

/// One immutable build of the analysis pipeline: canonical program,
/// adorned program, pruned And-Or system, condensation, monotonicity
/// analyzer and cone fingerprints — everything a subset search reads.
///
/// A snapshot is frozen once `SafetyAnalyzer` publishes it: no member
/// function of the read path mutates it (display variables are
/// pre-interned at build time), so any number of worker threads may
/// analyze against the same snapshot concurrently while an `Update`
/// builds its successor off to the side. Snapshots are reference
/// counted (`std::shared_ptr`); a reader that pinned one keeps it alive
/// across any number of swaps (epoch-style reclamation — see DESIGN.md,
/// D14).
struct AnalysisSnapshot {
  /// The options this snapshot was built under. `exec` records the
  /// build-time context only; the read path takes a per-request
  /// ExecContext instead of consulting this copy.
  AnalyzerOptions options;
  /// Frozen Algorithm 1 output. Shared with the pipeline cache's
  /// canonicalization tier when one is configured: the tier and every
  /// snapshot built from the same input text point at one immutable
  /// object, so a tier hit costs no Program copy.
  std::shared_ptr<const CanonicalizationResult> canon;
  AdornedProgram adorned;
  AndOrSystem system;
  std::unique_ptr<MonotonicityAnalyzer> mono;
  std::unique_ptr<SccAnalysis> scc;
  /// Per-predicate structural fingerprints of the canonical program.
  ProgramFingerprints fps;
  /// Hash of everything besides the cone that can influence a subset
  /// search (option flags, budget, escape availability, whether the
  /// condensation materialised reach sets). Mixed into every cache
  /// key so entries never leak across analysis configurations.
  uint64_t context_hash = 0;
  /// Display variables "A1".."A<max arity>", interned at build time so
  /// that synthesising a display literal on the read path never touches
  /// the term pool.
  std::vector<TermId> display_vars;

  /// Pipeline size statistics (used by benches and EXPERIMENTS.md).
  struct Stats {
    size_t canonical_rules = 0;
    size_t adorned_rules = 0;
    size_t nodes = 0;
    size_t rules_total = 0;
    size_t rules_live = 0;
    size_t rules_pruned_emptiness = 0;
    size_t rules_pruned_reduction = 0;
    /// Wall time per pipeline stage of this build (ns): Algorithm 1,
    /// fingerprinting, FD index preparation, adornment, the
    /// Algorithm 2 build (including segment planning), Algorithm 3 + 4
    /// pruning, and condensation (+ monotonicity) — in pipeline order.
    uint64_t stage_canonicalize_ns = 0;
    uint64_t stage_fingerprint_ns = 0;
    uint64_t stage_fd_ns = 0;
    uint64_t stage_adorn_ns = 0;
    uint64_t stage_build_ns = 0;
    uint64_t stage_prune_ns = 0;
    uint64_t stage_scc_ns = 0;
    /// Segment-path tallies of this build (all 0 without a cache, or
    /// when the component partition is not contiguous): components
    /// planned, grafted wholesale from cached segments, rejected at
    /// graft validation, and freshly encoded into the segment tier.
    uint64_t segments_total = 0;
    uint64_t segments_grafted = 0;
    uint64_t segment_grafts_rejected = 0;
    uint64_t segments_encoded = 0;
    /// Nodes appended from shared segments vs interned fresh by the
    /// segment-planned build.
    uint64_t nodes_shared = 0;
    uint64_t nodes_owned = 0;
    /// Segments this snapshot holds alive (grafted or freshly encoded)
    /// and their resident bytes — the structurally shared part of the
    /// node table.
    uint64_t segments_live = 0;
    uint64_t node_table_bytes = 0;
  };
  Stats stats;
};

/// End-to-end implementation of the paper's decision procedure:
///
///   canonicalize (Alg. 1) -> adorn (H*) -> And-Or_H (Alg. 2)
///   -> emptiness pruning (Alg. 3) -> reduction (Alg. 4)
///   -> subset condition (Thms. 3/4) [+ monotonicity escape (Thm. 5)]
///
/// Construction runs the pipeline once and publishes the result as an
/// immutable `AnalysisSnapshot`; query analyses read the snapshot.
/// `Update` re-runs the (polynomial) pipeline for an edited program
/// into a *fresh* snapshot and swaps it in atomically, so concurrent
/// readers never observe a half-built program: a check that pinned the
/// old snapshot keeps answering from it, the next check sees the new
/// one. The shared `PipelineCache` skips the (exponential) subset
/// searches of every cone the edit did not reach.
///
/// Thread-safety: `snapshot()`, the snapshot-pinned Analyze overloads,
/// `Update` and `counters()` are safe to call concurrently from any
/// number of threads (updates serialize among themselves). The legacy
/// no-snapshot overloads and the introspection accessors read the
/// *current* snapshot and are intended for single-threaded use.
class SafetyAnalyzer {
 public:
  /// Builds the analyzer for `program` (any Horn program; Algorithm 1 is
  /// applied internally). Fails on invalid programs.
  static Result<SafetyAnalyzer> Create(const Program& program,
                                       const AnalyzerOptions& options = {});

  // --- Read path --------------------------------------------------------

  /// Pins the current snapshot: the returned pointer stays valid (and
  /// immutable) for as long as the caller holds it, across any number
  /// of concurrent Updates.
  std::shared_ptr<const AnalysisSnapshot> snapshot() const;

  /// Analyzes one predicate of `snap`'s canonical program under the
  /// given adornment (bit k set = argument k bound) and failure-model
  /// context. Safe to call concurrently from any number of threads.
  QueryAnalysis AnalyzePredicate(const AnalysisSnapshot& snap,
                                 PredicateId pred, uint64_t adornment_mask,
                                 const ExecContext& exec);

  /// Analyzes a literal of `snap`'s canonical program. Canonical
  /// queries are all-variable, so the all-free adornment applies.
  QueryAnalysis AnalyzeQueryLiteral(const AnalysisSnapshot& snap,
                                    const Literal& query,
                                    const ExecContext& exec);

  // Legacy single-threaded entry points: pin the current snapshot and
  // analyze under the default exec context (AnalyzerOptions::exec as
  // last set by `set_exec`).
  std::vector<QueryAnalysis> AnalyzeQueries();
  QueryAnalysis AnalyzePredicate(PredicateId pred, uint64_t adornment_mask);
  QueryAnalysis AnalyzeQueryLiteral(const Literal& query);

  // --- Incremental re-analysis ------------------------------------------

  /// Outcome of one `Update`: how much of the program the edit dirtied.
  struct UpdateStats {
    /// Canonical predicates in the updated program.
    size_t predicates = 0;
    /// Predicates whose cone fingerprint changed (or that are new) —
    /// their cached verdicts are unreachable and will be recomputed.
    size_t dirty_predicates = 0;
    /// Predicates whose cone fingerprint is unchanged — subsequent
    /// analyses serve their positions from the cache.
    size_t clean_predicates = 0;
  };

  /// Replaces the analyzed program with `program`: re-runs the
  /// polynomial pipeline (canonicalize/adorn/build/prune) into a fresh
  /// snapshot, diffs per-predicate cone fingerprints against the
  /// previous build, and publishes the fresh snapshot with one atomic
  /// swap. Concurrent checks that pinned the old snapshot are
  /// undisturbed; concurrent Updates serialize. With a configured
  /// cache, subsequent analyses recompute only the dirty cones;
  /// verdicts, explanations and per-position step counts are
  /// bit-identical to a cold analyzer built on `program`. Cumulative
  /// counters carry over. On error the published snapshot is unchanged.
  Result<UpdateStats> Update(const Program& program,
                             const ExecContext& exec);
  Result<UpdateStats> Update(const Program& program);

  /// Installs the default failure-model context used by the legacy
  /// no-snapshot entry points. Call between analyses only; concurrent
  /// callers pass their ExecContext per call instead.
  void set_exec(const ExecContext& exec);

  // --- Introspection ----------------------------------------------------

  // The accessors below read the *current* snapshot and return
  // references into it; they are meant for single-threaded callers
  // (CLI, tests). Concurrent readers must pin via `snapshot()` and read
  // the snapshot's fields directly, or the referenced build could be
  // reclaimed under them by an Update.
  const Program& canonical() const { return snapshot_ref().canon->program; }
  const CanonicalizationResult& canonicalization() const {
    return *snapshot_ref().canon;
  }
  const AdornedProgram& adorned() const { return snapshot_ref().adorned; }
  const AndOrSystem& system() const { return snapshot_ref().system; }
  const AnalyzerOptions& options() const { return snapshot_ref().options; }

  /// Cone fingerprints of the canonical program (lang/fingerprint.h).
  const ProgramFingerprints& fingerprints() const {
    return snapshot_ref().fps;
  }

  using Stats = AnalysisSnapshot::Stats;
  const Stats& stats() const { return snapshot_ref().stats; }

  /// Cumulative search counters across every analysis run on this
  /// analyzer (hornsafe_cli --stats). `steps` aggregates the budget
  /// spent by all positions, including ones searched on pool threads;
  /// positions served from the pipeline cache spend nothing here.
  struct Counters {
    uint64_t positions_analyzed = 0;
    uint64_t subset_searches = 0;
    uint64_t steps = 0;
    uint64_t graphs_checked = 0;
    uint64_t memo_hits = 0;
    uint64_t memo_misses = 0;
    uint64_t scc_short_circuits = 0;
    uint64_t parallel_tasks = 0;
    uint64_t serial_tasks = 0;
    /// Positions served from / missed in the pipeline cache (0 when no
    /// cache is configured).
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /// Snapshots published by Update (0 for a never-updated analyzer).
    uint64_t snapshot_swaps = 0;
    /// Cumulative per-stage wall time across every build this analyzer
    /// ran (Create + Updates), plus the subset-search stage across
    /// every analysis. Stage meanings: AnalysisSnapshot::Stats.
    uint64_t stage_canonicalize_ns = 0;
    uint64_t stage_fingerprint_ns = 0;
    uint64_t stage_fd_ns = 0;
    uint64_t stage_adorn_ns = 0;
    uint64_t stage_build_ns = 0;
    uint64_t stage_prune_ns = 0;
    uint64_t stage_scc_ns = 0;
    uint64_t stage_search_ns = 0;
    /// Node-table segment tallies across every build (DESIGN.md, D15):
    /// components planned / grafted / rejected / freshly encoded, and
    /// nodes appended from shared segments vs interned fresh.
    uint64_t segments_total = 0;
    uint64_t segments_grafted = 0;
    uint64_t segment_grafts_rejected = 0;
    uint64_t segments_encoded = 0;
    uint64_t nodes_shared = 0;
    uint64_t nodes_owned = 0;
    /// High-water marks across every snapshot this analyzer built: the
    /// node-table size and the resident bytes of its live segments.
    uint64_t node_table_peak_nodes = 0;
    uint64_t node_table_peak_bytes = 0;
  };
  Counters counters() const;

  /// The condensation shared by every subset search (computed once
  /// after pruning).
  const SccAnalysis& scc() const { return *snapshot_ref().scc; }

  SafetyAnalyzer(SafetyAnalyzer&&) = default;
  SafetyAnalyzer& operator=(SafetyAnalyzer&&) = default;

 private:
  SafetyAnalyzer() = default;

  /// Monotonic counters, accumulated from whichever thread finished the
  /// work. Individually exact; a concurrent reader may observe fields
  /// from slightly different instants (they are independent tallies,
  /// not a torn struct — each field is its own atomic).
  struct SharedCounters {
    std::atomic<uint64_t> positions_analyzed{0};
    std::atomic<uint64_t> subset_searches{0};
    std::atomic<uint64_t> steps{0};
    std::atomic<uint64_t> graphs_checked{0};
    std::atomic<uint64_t> memo_hits{0};
    std::atomic<uint64_t> memo_misses{0};
    std::atomic<uint64_t> scc_short_circuits{0};
    std::atomic<uint64_t> parallel_tasks{0};
    std::atomic<uint64_t> serial_tasks{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> snapshot_swaps{0};
    std::atomic<uint64_t> stage_canonicalize_ns{0};
    std::atomic<uint64_t> stage_fingerprint_ns{0};
    std::atomic<uint64_t> stage_fd_ns{0};
    std::atomic<uint64_t> stage_adorn_ns{0};
    std::atomic<uint64_t> stage_build_ns{0};
    std::atomic<uint64_t> stage_prune_ns{0};
    std::atomic<uint64_t> stage_scc_ns{0};
    std::atomic<uint64_t> stage_search_ns{0};
    std::atomic<uint64_t> segments_total{0};
    std::atomic<uint64_t> segments_grafted{0};
    std::atomic<uint64_t> segment_grafts_rejected{0};
    std::atomic<uint64_t> segments_encoded{0};
    std::atomic<uint64_t> nodes_shared{0};
    std::atomic<uint64_t> nodes_owned{0};
    /// Gauges, maintained with compare-exchange max (not fetch_add).
    std::atomic<uint64_t> node_table_peak_nodes{0};
    std::atomic<uint64_t> node_table_peak_bytes{0};
  };

  /// Everything that outlives snapshot swaps and analyzer moves:
  /// mutexes are not movable, so the analyzer owns this block through a
  /// shared_ptr and stays cheaply movable.
  struct Shared {
    /// Guards `snapshot` (pointer load/store only; never held while
    /// building or analyzing).
    mutable std::mutex snapshot_mu;
    std::shared_ptr<const AnalysisSnapshot> snapshot;
    /// Serializes Updates: one builder at a time, readers undisturbed.
    std::mutex update_mu;
    /// Guards lazy creation/growth of the search fan-out pool.
    std::mutex pool_mu;
    std::shared_ptr<ThreadPool> pool;
    /// Default exec for the legacy entry points (set_exec).
    std::mutex exec_mu;
    ExecContext default_exec;
    SharedCounters counters;
  };

  /// Runs the full (polynomial) pipeline for `program`, probing the
  /// cache's canonicalization/emptiness/adornment tiers when configured.
  static Result<std::shared_ptr<const AnalysisSnapshot>> BuildSnapshot(
      const Program& program, const AnalyzerOptions& options);

  static SubsetOptions MakeSubsetOptions(const AnalysisSnapshot& snap,
                                         const ExecContext& exec);

  /// The fan-out pool, created on first parallel analysis; grow-only
  /// (an in-flight analysis keeps its pinned pool alive).
  std::shared_ptr<ThreadPool> Pool(size_t threads);

  const AnalysisSnapshot& snapshot_ref() const;
  ExecContext default_exec() const;
  void Publish(std::shared_ptr<const AnalysisSnapshot> snap);

  /// Folds one build's stage breakdown and segment tallies into the
  /// cumulative counters (called by Create and every Update).
  void FoldBuildStats(const AnalysisSnapshot::Stats& stats);

  std::shared_ptr<Shared> shared_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_CORE_ANALYZER_H_
