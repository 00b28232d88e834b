#include "core/analyzer.h"

#include <algorithm>
#include <future>

#include "andor/build.h"
#include "andor/emptiness.h"
#include "andor/lfp.h"
#include "andor/reduce.h"
#include "andor/segment.h"
#include "lang/struct_hash.h"
#include "util/stage_timer.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

uint64_t CanonicalizeOptionBits(const CanonicalizeOptions& o) {
  return (o.add_function_fds ? 1u : 0u) |
         (o.add_constructor_fds ? 2u : 0u) |
         (o.add_constructor_monos ? 4u : 0u);
}

/// Builds the 128-bit verdict-tier key for one search: the predicate's
/// cone fingerprint plus the analysis context, adornment and position.
/// `hi` re-derives the same inputs under independent seeds.
CacheKey MakeVerdictKey(uint64_t cone_fp, uint64_t context_hash,
                        uint64_t adornment_mask, uint32_t position) {
  uint64_t lo = CombineHash(cone_fp, context_hash);
  lo = CombineHash(lo, adornment_mask);
  lo = CombineHash(lo, position);
  uint64_t hi = MixHash(cone_fp ^ 0x5ca1ab1e5eed0001ULL);
  hi = CombineHash(hi, MixHash(context_hash ^ 0x0ddba11d00000002ULL));
  hi = CombineHash(hi, adornment_mask + 1);
  hi = CombineHash(hi, position + 0x10000u);
  return {hi, lo};
}

}  // namespace

Json ArgumentVerdict::ToJson(bool with_explanation) const {
  Json arg = Json::Object();
  arg.Set("position", uint64_t{position});
  arg.Set("safety", SafetyName(safety));
  arg.Set("stop", StopReasonName(stop));
  arg.Set("steps", steps);
  arg.Set("graphs_checked", graphs_checked);
  if (with_explanation) arg.Set("explanation", explanation);
  return arg;
}

std::string QueryAnalysis::Summary(const Program& program) const {
  std::string out =
      StrCat(program.ToString(query), ": ", SafetyName(overall));
  if (!args.empty()) {
    out += " [";
    out += JoinMapped(args, ", ", [](const ArgumentVerdict& a) {
      return StrCat(a.position + 1, "=", SafetyName(a.safety));
    });
    out += "]";
  }
  return out;
}

Result<std::shared_ptr<const AnalysisSnapshot>> SafetyAnalyzer::BuildSnapshot(
    const Program& program, const AnalyzerOptions& options) {
  auto snap = std::make_shared<AnalysisSnapshot>();
  AnalysisSnapshot& s = *snap;
  s.options = options;
  PipelineCache* cache = options.cache;

  HORNSAFE_RETURN_IF_ERROR(program.Validate());
  HORNSAFE_RETURN_IF_ERROR(options.exec.Check("analyzer build"));
  StageTimer timer;

  // Algorithm 1. Display variables are interned while the canonical
  // program is still private; every later stage takes the program by
  // const reference and interns nothing.
  HORNSAFE_ASSIGN_OR_RETURN(CanonicalizationResult canon,
                            Canonicalize(program, options.canonicalize));
  uint32_t max_arity = 0;
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(canon.program.num_predicates()); ++p) {
    max_arity = std::max(max_arity, canon.program.predicate(p).arity);
  }
  s.display_vars.reserve(max_arity);
  for (uint32_t k = 0; k < max_arity; ++k) {
    s.display_vars.push_back(canon.program.Var(StrCat("A", k + 1)));
  }
  s.canon = std::make_shared<const CanonicalizationResult>(std::move(canon));
  s.stats.build.stage_canonicalize_ns = timer.LapNs();

  const Program& cp = s.canon->program;

  // Per-predicate cone fingerprints key the verdict tier.
  s.fps = ComputeFingerprints(cp);
  s.stats.build.stage_fingerprint_ns = timer.LapNs();

  HORNSAFE_RETURN_IF_ERROR(options.exec.Check("analyzer build"));

  // Algorithm 3 LFP bits, hoisted ahead of the build: the segment keys
  // below fold the emptiness bits of each component's predicates, so
  // they must be known before planning. The wall time still counts
  // against the prune stage (accumulated in two laps).
  std::optional<std::vector<bool>> empty;
  if (options.apply_emptiness) empty = EmptyPredicates(cp);
  s.stats.build.stage_prune_ns = timer.LapNs();

  HORNSAFE_ASSIGN_OR_RETURN(s.adorned, BuildAdornedProgram(cp));
  s.stats.build.stage_adorn_ns = timer.LapNs();

  // Segment planning (DESIGN.md, D15): Canonicalize emits rules
  // component-major, so the weakly connected predicate components tile
  // the rule list and the build runs one closed span per component.
  // With a cache, each component is looked up in the segment tier. The
  // key folds the component's ordered rule-guard sequence, the
  // emptiness bits of its predicates and the prune-mode flags —
  // everything the build + prune + condensation of that span read — so
  // a hit replays the post-prune span bit-identically and only the
  // edited component re-interns.
  SegmentPlan seg_plan = FreshPlan(ComputeComponentPartition(cp));
  SegmentBuildStats seg_stats;
  std::vector<CacheKey> seg_keys;
  const uint32_t seg_mode_bits = (options.apply_emptiness ? 2u : 0u) |
                                 (options.apply_reduction ? 4u : 0u);
  if (cache != nullptr) {
    seg_keys.reserve(seg_plan.components.size());
    for (SegmentGraft& g : seg_plan.components) {
      uint64_t h = MixHash(0x7365676d656e7430ULL);
      for (uint32_t ri = g.first_rule; ri < g.first_rule + g.num_rules;
           ++ri) {
        h = CombineHash(h, ComputeRuleGuard(cp, ri));
      }
      g.pred_of_slot =
          ComponentPredSlots(cp, {g.first_rule, g.num_rules});
      for (PredicateId p : g.pred_of_slot) {
        bool is_empty = empty && (*empty)[p];
        h = CombineHash(h, is_empty ? 1u : 0u);
      }
      h = CombineHash(h, g.num_rules);
      seg_keys.push_back(PipelineCache::SegmentKey(h, seg_mode_bits));
      g.segment = cache->LookupSegment(seg_keys.back());
    }
  }
  BuildOptions bopts;
  bopts.segments = &seg_plan;
  bopts.segment_stats = &seg_stats;

  HORNSAFE_ASSIGN_OR_RETURN(s.system,
                            BuildAndOrSystem(cp, s.adorned, bopts));
  s.stats.build.stage_build_ns = timer.LapNs();

  s.stats.canonical_rules = cp.rules().size();
  s.stats.adorned_rules = s.adorned.rules.size();
  s.stats.nodes = s.system.nodes().size();
  s.stats.rules_total = s.system.num_rules();

  // Prune scope: grafted spans were encoded post-prune (their deleted
  // bits replayed at graft time), so Algorithms 3 and 4 only visit the
  // freshly built spans; the grafted spans' tallies are stitched from
  // the segments. Prune is component-local (rules only reference nodes
  // of their own component, plus the shared terminals), so the scoped
  // runs produce the same deleted set as global ones.
  const std::vector<SegmentSpan>& spans = s.system.spans();
  std::vector<std::pair<uint32_t, uint32_t>> fresh_rules;
  std::vector<ReduceRange> fresh_ranges;
  size_t grafted_emptiness = 0;
  size_t grafted_reduction = 0;
  for (const SegmentSpan& sp : spans) {
    if (sp.grafted) {
      grafted_emptiness += sp.segment->pruned_emptiness;
      grafted_reduction += sp.segment->pruned_reduction;
    } else {
      fresh_rules.emplace_back(sp.rule_begin, sp.rule_end);
      fresh_ranges.push_back(
          {sp.node_begin, sp.node_end, sp.rule_begin, sp.rule_end});
    }
  }
  if (options.apply_emptiness) {
    s.stats.rules_pruned_emptiness =
        grafted_emptiness +
        ApplyEmptinessPruningRanges(*empty, &s.system, fresh_rules);
  }
  if (options.apply_reduction) {
    s.stats.rules_pruned_reduction =
        grafted_reduction +
        ReduceSystemInRanges(&s.system, fresh_ranges).rules_deleted;
  }
  s.stats.rules_live = s.system.NumLiveRules();
  s.stats.build.stage_prune_ns += timer.LapNs();

  if (options.use_monotonicity && !s.canon->program.monos().empty()) {
    s.mono = std::make_unique<MonotonicityAnalyzer>(s.canon->program,
                                                    s.adorned, s.system);
  }
  // The condensation depends on the live rule set, so it is computed
  // after pruning and then shared (read-only) by every subset search,
  // including ones running concurrently on pool threads. With a cache
  // it is stitched from per-span slices — grafted spans replay the
  // slice stored with their segment, fresh spans compute theirs, to be
  // sealed below — which is bit-identical to the global computation
  // (scc.h). Without a cache nothing is grafted or sealed, so one
  // global pass does; so does any slice or stitch failure.
  std::vector<std::optional<SccSlice>> fresh_slices;
  if (cache != nullptr) {
    fresh_slices.resize(spans.size());
    bool sliced = true;
    std::vector<const SccSlice*> pieces;
    pieces.reserve(spans.size());
    for (size_t i = 0; i < spans.size() && sliced; ++i) {
      const SegmentSpan& sp = spans[i];
      if (sp.grafted) {
        pieces.push_back(&sp.segment->scc);
        continue;
      }
      fresh_slices[i] = SccAnalysis::ComputeSlice(
          s.system, sp.node_begin, sp.node_end, sp.rule_begin, sp.rule_end);
      if (fresh_slices[i]) {
        pieces.push_back(&*fresh_slices[i]);
      } else {
        sliced = false;
      }
    }
    if (sliced) {
      if (std::optional<SccAnalysis> stitched =
              SccAnalysis::Stitch(s.system, pieces)) {
        s.scc = std::make_unique<SccAnalysis>(std::move(*stitched));
      }
    }
  }
  if (s.scc == nullptr) {
    s.scc = std::make_unique<SccAnalysis>(SccAnalysis::Compute(s.system));
  }

  // Seal: encode every freshly built span (with its slice and deleted
  // bits) into the segment tier, and attach the resident segment to the
  // snapshot so pinned readers keep it alive across cache eviction.
  // Spans that do not relocate cleanly are simply not cached.
  if (cache != nullptr) {
    const std::vector<bool> no_empty;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SegmentSpan& sp = spans[i];
      if (sp.grafted || !fresh_slices[i]) continue;
      std::shared_ptr<const NodeTableSegment> seg = EncodeSegment(
          s.system, s.adorned, empty ? *empty : no_empty,
          seg_plan.components[i].pred_of_slot, sp.node_begin, sp.node_end,
          sp.rule_begin, sp.rule_end, sp.ar_begin, sp.ar_end, sp.occ_base,
          sp.occ_count, std::move(*fresh_slices[i]));
      if (seg == nullptr) continue;
      std::shared_ptr<const NodeTableSegment> resident =
          cache->StoreSegment(seg_keys[i], std::move(seg));
      if (resident != nullptr) {
        s.system.AttachSegment(i, std::move(resident));
        ++s.stats.build.segments_encoded;
      }
    }
  }
  s.stats.build.stage_scc_ns = timer.LapNs();

  s.stats.build.segments_total = seg_stats.segments_total;
  s.stats.build.segments_grafted = seg_stats.segments_grafted;
  s.stats.build.segment_grafts_rejected = seg_stats.grafts_rejected;
  s.stats.build.nodes_shared = seg_stats.nodes_shared;
  s.stats.build.nodes_owned = seg_stats.nodes_owned;
  s.stats.build.node_table_peak_nodes = s.stats.nodes;
  for (const SegmentSpan& sp : s.system.spans()) {
    if (sp.segment != nullptr) {
      ++s.stats.segments_live;
      s.stats.build.node_table_peak_bytes += sp.segment->MemoryBytes();
    }
  }

  // Everything besides the cone that can influence a search's verdict
  // *or its step count*: option flags and budget, whether the Theorem 5
  // escape is active (it disables the SCC/memo short-circuits
  // program-wide), and whether the condensation materialised its reach
  // bitsets (it degrades the frontier memo when too wide).
  uint64_t ctx = MixHash(0x686f726e63747834ULL);
  // Bit 3 is retired (a dependency-closure flag that was never set);
  // it stays 0 so verdict keys, on disk too, keep their values.
  uint64_t bits = (options.apply_emptiness ? 1u : 0u) |
                  (options.apply_reduction ? 2u : 0u) |
                  (options.use_monotonicity ? 4u : 0u) |
                  (CanonicalizeOptionBits(options.canonicalize) << 4);
  ctx = CombineHash(ctx, bits);
  ctx = CombineHash(ctx, options.subset_budget);
  ctx = CombineHash(ctx, s.mono != nullptr ? 1 : 0);
  ctx = CombineHash(ctx, s.scc->has_reach_sets() ? 1 : 0);
  s.context_hash = ctx;

  return std::shared_ptr<const AnalysisSnapshot>(std::move(snap));
}

Result<SafetyAnalyzer> SafetyAnalyzer::Create(
    const Program& program, const AnalyzerOptions& options) {
  SafetyAnalyzer a;
  a.shared_ = std::make_shared<Shared>();
  a.shared_->default_exec = options.exec;
  HORNSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const AnalysisSnapshot> snap,
                            BuildSnapshot(program, options));
  MergeStatsAtomic(snap->stats.build, &a.shared_->counters);
  a.shared_->snapshot = std::move(snap);
  return a;
}

std::shared_ptr<const AnalysisSnapshot> SafetyAnalyzer::snapshot() const {
  std::lock_guard<std::mutex> lock(shared_->snapshot_mu);
  return shared_->snapshot;
}

const AnalysisSnapshot& SafetyAnalyzer::snapshot_ref() const {
  std::lock_guard<std::mutex> lock(shared_->snapshot_mu);
  return *shared_->snapshot;
}

void SafetyAnalyzer::Publish(std::shared_ptr<const AnalysisSnapshot> snap) {
  std::lock_guard<std::mutex> lock(shared_->snapshot_mu);
  shared_->snapshot = std::move(snap);
}

ExecContext SafetyAnalyzer::default_exec() const {
  std::lock_guard<std::mutex> lock(shared_->exec_mu);
  return shared_->default_exec;
}

void SafetyAnalyzer::set_exec(const ExecContext& exec) {
  std::lock_guard<std::mutex> lock(shared_->exec_mu);
  shared_->default_exec = exec;
}

Result<SafetyAnalyzer::UpdateStats> SafetyAnalyzer::Update(
    const Program& program, const ExecContext& exec) {
  // One builder at a time; readers keep serving the published snapshot
  // for the whole build.
  std::lock_guard<std::mutex> update_lock(shared_->update_mu);
  std::shared_ptr<const AnalysisSnapshot> old = snapshot();

  // Snapshot the previous build's cone fingerprints keyed by hashed
  // (name, arity) — ids are not stable across builds, and hashing the
  // key avoids one string allocation per predicate per edit.
  std::unordered_map<uint64_t, uint64_t> old_cones;
  {
    const Program& oldp = old->canon->program;
    for (PredicateId p = 0;
         p < static_cast<PredicateId>(oldp.num_predicates()); ++p) {
      old_cones[CombineHash(HashBytes(oldp.PredicateName(p)),
                            oldp.predicate(p).arity)] = old->fps.cone[p];
    }
  }

  AnalyzerOptions build_options = old->options;
  build_options.exec = exec;
  HORNSAFE_ASSIGN_OR_RETURN(std::shared_ptr<const AnalysisSnapshot> fresh,
                            BuildSnapshot(program, build_options));
  MergeStatsAtomic(fresh->stats.build, &shared_->counters);

  UpdateStats out;
  const Program& newp = fresh->canon->program;
  out.predicates = newp.num_predicates();
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(newp.num_predicates()); ++p) {
    auto it = old_cones.find(CombineHash(HashBytes(newp.PredicateName(p)),
                                         newp.predicate(p).arity));
    if (it != old_cones.end() && it->second == fresh->fps.cone[p]) {
      ++out.clean_predicates;
    } else {
      ++out.dirty_predicates;
    }
  }

  // The swap: one pointer store under the snapshot lock. In-flight
  // analyses pinned `old` and finish against it; the next `snapshot()`
  // call sees `fresh`. Counters live outside the snapshot and carry
  // over untouched.
  Publish(std::move(fresh));
  StatAdd(shared_->counters.snapshot_swaps, 1);
  if (build_options.cache != nullptr) {
    build_options.cache->NoteInvalidatedCones(out.dirty_predicates);
  }
  return out;
}

Result<SafetyAnalyzer::UpdateStats> SafetyAnalyzer::Update(
    const Program& program) {
  return Update(program, default_exec());
}

SubsetOptions SafetyAnalyzer::MakeSubsetOptions(const AnalysisSnapshot& snap,
                                                const ExecContext& exec) {
  SubsetOptions opts;
  opts.budget = snap.options.subset_budget;
  opts.exec = exec;
  if (snap.mono) opts.escape = snap.mono->MakeEscape();
  opts.scc = snap.scc.get();
  return opts;
}

std::shared_ptr<ThreadPool> SafetyAnalyzer::Pool(size_t threads) {
  std::lock_guard<std::mutex> lock(shared_->pool_mu);
  if (!shared_->pool || shared_->pool->num_threads() < threads) {
    // Grow-only replacement: an analysis mid-flight on the old pool
    // holds its own shared_ptr copy, so the old workers drain and join
    // only after the last user releases it.
    shared_->pool = std::make_shared<ThreadPool>(threads);
  }
  return shared_->pool;
}

SafetyAnalyzer::Counters SafetyAnalyzer::counters() const {
  return LoadStats(shared_->counters);
}

QueryAnalysis SafetyAnalyzer::AnalyzePredicate(const AnalysisSnapshot& snap,
                                               PredicateId pred,
                                               uint64_t adornment_mask,
                                               const ExecContext& exec) {
  const Program& p = snap.canon->program;
  const AndOrSystem& system = snap.system;
  PipelineCache* cache = snap.options.cache;
  Counters& counters = shared_->counters;
  QueryAnalysis out;
  const uint32_t arity = p.predicate(pred).arity;
  // Synthesise a display literal from the pre-interned variables (the
  // snapshot is frozen: nothing on this path may touch the term pool).
  Literal lit;
  lit.pred = pred;
  for (uint32_t k = 0; k < arity; ++k) {
    lit.args.push_back(snap.display_vars[k]);
  }
  out.query = lit;

  SubsetOptions sopts = MakeSubsetOptions(snap, exec);

  // Classify (read-only against the frozen snapshot) and collect the
  // argument positions that need an actual subset search. Positions
  // whose (cone fingerprint, context, adornment, position) key hits the
  // pipeline cache are resolved right here without searching.
  struct SearchJob {
    uint32_t position = 0;
    NodeId root = kInvalidNode;
    CacheKey key;
    bool has_key = false;
    SubsetResult res;
  };
  std::vector<ArgumentVerdict> verdicts(arity);
  std::vector<SearchJob> searches;
  for (uint32_t k = 0; k < arity; ++k) {
    ArgumentVerdict& v = verdicts[k];
    v.position = k;
    if ((adornment_mask >> k) & 1) {
      v.safety = Safety::kSafe;
      v.explanation = "bound by the query";
    } else if (p.IsFiniteBase(pred)) {
      v.safety = Safety::kSafe;
      v.explanation = "finite base predicate";
    } else if (p.IsInfiniteBase(pred)) {
      // A free argument of a bare infinite-EDB query (Example 14) is
      // safe only if finitely determined by the bound arguments.
      AttrSet bound(adornment_mask);
      bool determined = false;
      for (const FiniteDependency& fd : p.FdsFor(pred)) {
        if (fd.lhs.SubsetOf(bound) && fd.rhs.Contains(k)) determined = true;
      }
      v.safety = determined ? Safety::kSafe : Safety::kUnsafe;
      v.explanation = determined
                          ? "finitely determined by bound arguments"
                          : "free argument of an infinite base predicate";
    } else {
      SearchJob job;
      job.position = k;
      job.root = system.FindHeadArg(pred, adornment_mask, k);
      if (cache != nullptr && pred < snap.fps.cone.size()) {
        job.key = MakeVerdictKey(snap.fps.cone[pred], snap.context_hash,
                                 adornment_mask, k);
        job.has_key = true;
        if (std::optional<CachedVerdict> hit = cache->Lookup(job.key)) {
          v.safety = hit->verdict;
          v.explanation = std::move(hit->explanation);
          v.steps = hit->steps;
          v.graphs_checked = hit->graphs_checked;
          // Only kNone/kBudget outcomes are ever stored (deadline- and
          // cancellation-degraded verdicts are transient), so the stop
          // reason reconstructs from the verdict bit-identically.
          v.stop = hit->verdict == Safety::kUndecided ? StopReason::kBudget
                                                      : StopReason::kNone;
          StatAdd(counters.cache_hits, 1);
          continue;
        }
        StatAdd(counters.cache_misses, 1);
      }
      searches.push_back(std::move(job));
    }
  }

  // Run the searches — the expensive part — across the pool when asked.
  // Each position gets its own budget and fresh memo table, so every
  // SubsetResult is independent of scheduling; only the aggregate
  // steps tally is shared (and atomic).
  size_t want = snap.options.jobs <= 0
                    ? ThreadPool::DefaultThreads()
                    : static_cast<size_t>(snap.options.jobs);
  StageTimer search_timer;
  if (want > 1 && searches.size() > 1) {
    std::shared_ptr<ThreadPool> pool =
        Pool(std::min(want, searches.size()));
    std::vector<std::future<void>> done;
    done.reserve(searches.size());
    for (SearchJob& job : searches) {
      done.push_back(pool->Submit([&snap, &job, &sopts, &counters] {
        job.res = CheckSubsetCondition(snap.system, job.root, sopts);
        StatAdd(counters.steps, job.res.steps);
      }));
    }
    for (std::future<void>& f : done) f.get();
    StatAdd(counters.parallel_tasks, searches.size());
  } else {
    for (SearchJob& job : searches) {
      job.res = CheckSubsetCondition(system, job.root, sopts);
      StatAdd(counters.steps, job.res.steps);
    }
    StatAdd(counters.serial_tasks, searches.size());
  }
  if (!searches.empty()) {
    StatAdd(counters.stage_search_ns, search_timer.LapNs());
  }

  // Deterministic merge: verdicts, explanations, and counters are
  // folded in position order on this thread.
  for (const SearchJob& job : searches) {
    ArgumentVerdict& v = verdicts[job.position];
    const SubsetResult& res = job.res;
    v.safety = res.verdict;
    v.stop = res.stop_reason;
    v.steps = res.steps;
    v.graphs_checked = res.graphs_checked;
    switch (res.verdict) {
      case Safety::kSafe:
        v.explanation =
            job.root == kInvalidNode || system.RulesFor(job.root).empty()
                ? "no rule can bind this argument (empty predicate)"
                : StrCat("every AND-graph satisfies the subset condition (",
                         res.graphs_checked, " graphs checked)");
        break;
      case Safety::kUnsafe:
        v.explanation = res.witness
                            ? res.witness->Describe(system, p)
                            : "counterexample AND-graph found";
        break;
      case Safety::kUndecided:
        switch (res.stop_reason) {
          case StopReason::kDeadline:
            v.explanation = StrCat("analysis deadline exceeded (",
                                   res.steps, " steps spent)");
            break;
          case StopReason::kCancelled:
            v.explanation =
                StrCat("analysis cancelled (", res.steps, " steps spent)");
            break;
          default:
            v.explanation = StrCat("search budget exhausted after ",
                                   res.steps, " steps");
            break;
        }
        break;
    }
    // Publish safe/undecided outcomes (kUnsafe witness text embeds
    // global node ids that shift under edits; see DESIGN.md, D12).
    // Deadline- and cancellation-degraded verdicts reflect this
    // request's wall clock, not the program — a later request with more
    // time must redo them, so they never enter the cache.
    if (cache != nullptr && job.has_key &&
        res.verdict != Safety::kUnsafe &&
        (res.stop_reason == StopReason::kNone ||
         res.stop_reason == StopReason::kBudget)) {
      CachedVerdict cv;
      cv.verdict = res.verdict;
      cv.steps = res.steps;
      cv.graphs_checked = res.graphs_checked;
      cv.memo_hits = res.memo_hits;
      cv.memo_misses = res.memo_misses;
      cv.scc_short_circuits = res.scc_short_circuits;
      cv.explanation = v.explanation;
      cache->Store(job.key, cv);
    }
    StatAdd(counters.subset_searches, 1);
    StatAdd(counters.graphs_checked, res.graphs_checked);
    StatAdd(counters.memo_hits, res.memo_hits);
    StatAdd(counters.memo_misses, res.memo_misses);
    StatAdd(counters.scc_short_circuits, res.scc_short_circuits);
  }
  StatAdd(counters.positions_analyzed, arity);

  bool any_unsafe = false;
  bool any_undecided = false;
  for (ArgumentVerdict& v : verdicts) {
    any_unsafe |= (v.safety == Safety::kUnsafe);
    any_undecided |= (v.safety == Safety::kUndecided);
    out.args.push_back(std::move(v));
  }
  out.overall = any_unsafe      ? Safety::kUnsafe
                : any_undecided ? Safety::kUndecided
                                : Safety::kSafe;
  return out;
}

QueryAnalysis SafetyAnalyzer::AnalyzeQueryLiteral(const AnalysisSnapshot& snap,
                                                  const Literal& query,
                                                  const ExecContext& exec) {
  // Canonical queries have all-distinct-variable arguments, so the
  // relevant adornment is all-free.
  QueryAnalysis out = AnalyzePredicate(snap, query.pred, 0, exec);
  out.query = query;
  return out;
}

QueryAnalysis SafetyAnalyzer::AnalyzePredicate(PredicateId pred,
                                               uint64_t adornment_mask) {
  std::shared_ptr<const AnalysisSnapshot> snap = snapshot();
  return AnalyzePredicate(*snap, pred, adornment_mask, default_exec());
}

QueryAnalysis SafetyAnalyzer::AnalyzeQueryLiteral(const Literal& query) {
  std::shared_ptr<const AnalysisSnapshot> snap = snapshot();
  return AnalyzeQueryLiteral(*snap, query, default_exec());
}

std::vector<QueryAnalysis> SafetyAnalyzer::AnalyzeQueries() {
  std::shared_ptr<const AnalysisSnapshot> snap = snapshot();
  ExecContext exec = default_exec();
  std::vector<QueryAnalysis> out;
  for (const Literal& q : snap->canon->program.queries()) {
    out.push_back(AnalyzeQueryLiteral(*snap, q, exec));
  }
  return out;
}

}  // namespace hornsafe
