// The incremental re-analysis workload: a program of `modules`
// independent safe diamond-ring families takes a stream of single-rule
// edits; after each edit the analyzer re-checks every query. A cold
// analyzer (no cache) pays the full subset-search bill per edit; a warm
// analyzer sharing one PipelineCache re-searches only the edited
// module's cone. The bench verifies inline that warm verdicts,
// explanations and per-position step counts are bit-identical to the
// cold run, and records the step/time reduction to BENCH_safety.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

/// Ring length per module — deep enough that every module's subset
/// search does real work, small enough that the cold baseline at
/// modules=16 stays in bench-smoke territory.
constexpr int kRing = 6;
/// Single-rule edits per round.
constexpr int kEdits = 8;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "bench_incremental: %s\n", what);
    std::abort();
  }
}

bool SameAnalyses(const std::vector<QueryAnalysis>& a,
                  const std::vector<QueryAnalysis>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].overall != b[i].overall ||
        a[i].args.size() != b[i].args.size()) {
      return false;
    }
    for (size_t k = 0; k < a[i].args.size(); ++k) {
      const ArgumentVerdict& x = a[i].args[k];
      const ArgumentVerdict& y = b[i].args[k];
      if (x.safety != y.safety || x.explanation != y.explanation ||
          x.steps != y.steps || x.graphs_checked != y.graphs_checked) {
        return false;
      }
    }
  }
  return true;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

void BM_IncrementalEditWorkload(benchmark::State& state) {
  const int modules = static_cast<int>(state.range(0));

  // Pre-parse every edited program once, outside both timed loops, so
  // cold and warm timings compare analysis pipelines, not the parser.
  Program base =
      bench::MustParse(bench::ModularWorkloadText(modules, kRing));
  std::vector<Program> edits;
  for (int e = 0; e < kEdits; ++e) {
    edits.push_back(bench::MustParse(
        bench::ModularWorkloadText(modules, kRing, e)));
  }

  // Reference results for the bit-identity check, computed once
  // untimed; the cold *timing* runs inside the iteration loop below so
  // cold and warm samples are interleaved and see the same host noise.
  std::vector<std::vector<QueryAnalysis>> cold_results;
  std::vector<std::string> cold_renderings;
  uint64_t cold_steps_once = 0;
  for (const Program& p : edits) {
    auto analyzer = SafetyAnalyzer::Create(p);
    Check(analyzer.ok(), "cold Create failed");
    cold_results.push_back(analyzer->AnalyzeQueries());
    cold_renderings.push_back(
        analyzer->system().ToString(analyzer->canonical()));
    cold_steps_once += analyzer->counters().steps;
  }

  // Timed loop: each iteration runs the cold baseline (a fresh
  // cache-less analyzer per edited program) and then the warm stream
  // (one shared cache, primed on the unedited program, then Update +
  // re-analyze per edit) back to back.
  double cold_seconds = 0;
  uint64_t cold_build_ns = 0;
  uint64_t warm_steps = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t segments_grafted = 0;
  uint64_t segments_total = 0;
  uint64_t grafts_rejected = 0;
  uint64_t nodes_shared = 0;
  uint64_t nodes_owned = 0;
  uint64_t snapshot_nodes = 0;
  uint64_t snapshot_segments_live = 0;
  double warm_update_seconds = 0;
  double warm_analyze_seconds = 0;
  uint64_t rounds = 0;
  SafetyAnalyzer::Counters stage_totals;
  for (auto _ : state) {
    for (const Program& p : edits) {
      auto t0 = std::chrono::steady_clock::now();
      auto cold = SafetyAnalyzer::Create(p);
      Check(cold.ok(), "cold Create failed");
      benchmark::DoNotOptimize(cold->AnalyzeQueries());
      cold_seconds += Seconds(t0);
      cold_build_ns += cold->counters().stage_build_ns;
    }

    PipelineCache cache;
    AnalyzerOptions opts;
    opts.cache = &cache;
    auto analyzer = SafetyAnalyzer::Create(base, opts);
    Check(analyzer.ok(), "warm Create failed");
    analyzer->AnalyzeQueries();  // prime the cache (not counted)
    const SafetyAnalyzer::Counters primed = analyzer->counters();
    auto t0 = std::chrono::steady_clock::now();
    for (int e = 0; e < kEdits; ++e) {
      auto up = analyzer->Update(edits[static_cast<size_t>(e)]);
      Check(up.ok(), "Update failed");
      Check(up->dirty_predicates > 0, "edit dirtied no cone");
      Check(up->clean_predicates > 0, "edit dirtied every cone");
      warm_update_seconds += Seconds(t0);
      // Byte-identity of the warm (segment-grafted) system against the
      // cold reference build — untimed, between the update and analyze
      // laps.
      Check(analyzer->system().ToString(analyzer->canonical()) ==
                cold_renderings[static_cast<size_t>(e)],
            "warm system rendering differs from cold");
      auto t1 = std::chrono::steady_clock::now();
      std::vector<QueryAnalysis> warm = analyzer->AnalyzeQueries();
      Check(SameAnalyses(warm, cold_results[static_cast<size_t>(e)]),
            "warm analysis differs from cold");
      warm_analyze_seconds += Seconds(t1);
      t0 = std::chrono::steady_clock::now();
    }
    SafetyAnalyzer::Counters c = analyzer->counters();
    warm_steps += c.steps - primed.steps;
    cache_hits += c.cache_hits;
    cache_lookups += c.cache_hits + c.cache_misses;
    segments_grafted += c.segments_grafted - primed.segments_grafted;
    segments_total += c.segments_total - primed.segments_total;
    grafts_rejected +=
        c.segment_grafts_rejected - primed.segment_grafts_rejected;
    nodes_shared += c.nodes_shared - primed.nodes_shared;
    nodes_owned += c.nodes_owned - primed.nodes_owned;
    snapshot_nodes = analyzer->stats().nodes;
    snapshot_segments_live = analyzer->stats().segments_live;
    stage_totals.stage_canonicalize_ns +=
        c.stage_canonicalize_ns - primed.stage_canonicalize_ns;
    stage_totals.stage_fingerprint_ns +=
        c.stage_fingerprint_ns - primed.stage_fingerprint_ns;
    stage_totals.stage_fd_ns += c.stage_fd_ns - primed.stage_fd_ns;
    stage_totals.stage_adorn_ns += c.stage_adorn_ns - primed.stage_adorn_ns;
    stage_totals.stage_build_ns += c.stage_build_ns - primed.stage_build_ns;
    stage_totals.stage_prune_ns += c.stage_prune_ns - primed.stage_prune_ns;
    stage_totals.stage_scc_ns += c.stage_scc_ns - primed.stage_scc_ns;
    stage_totals.stage_search_ns +=
        c.stage_search_ns - primed.stage_search_ns;
    ++rounds;
  }
  if (rounds == 0) return;
  Check(segments_grafted > 0, "warm updates grafted no segments");
  Check(nodes_shared > 0, "warm updates shared no nodes");

  const double cold_per_edit =
      static_cast<double>(cold_steps_once) / kEdits;
  const double warm_per_edit =
      static_cast<double>(warm_steps) / static_cast<double>(rounds) /
      kEdits;
  const double step_ratio =
      warm_per_edit > 0 ? cold_per_edit / warm_per_edit : 0;
  const double hit_rate =
      cache_lookups > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_lookups)
          : 0;
  const double segment_graft_rate =
      segments_total > 0 ? static_cast<double>(segments_grafted) /
                               static_cast<double>(segments_total)
                         : 0;
  const double node_share_rate =
      nodes_shared + nodes_owned > 0
          ? static_cast<double>(nodes_shared) /
                static_cast<double>(nodes_shared + nodes_owned)
          : 0;
  state.counters["step_ratio"] = step_ratio;
  state.counters["hit_rate"] = hit_rate;
  state.counters["segment_graft_rate"] = segment_graft_rate;
  state.counters["node_share_rate"] = node_share_rate;

  // Per-edit stage breakdown of the warm updates (milliseconds).
  const double per_edit_ms =
      1e-6 / static_cast<double>(rounds) / kEdits;

  bench::JsonDump& dump = bench::JsonDump::Get("safety");
  std::string name = StrCat("incremental_edit/modules=", modules);
  dump.Record(name, "cold_steps_per_edit", cold_per_edit);
  dump.Record(name, "warm_steps_per_edit", warm_per_edit);
  dump.Record(name, "step_ratio", step_ratio);
  dump.Record(name, "hit_rate", hit_rate);
  const double per_edit = 1.0 / static_cast<double>(rounds) / kEdits;
  dump.Record(name, "cold_seconds_per_edit", cold_seconds * per_edit);
  dump.Record(name, "warm_seconds_per_edit",
              (warm_update_seconds + warm_analyze_seconds) * per_edit);
  dump.Record(name, "warm_update_seconds_per_edit",
              warm_update_seconds * per_edit);
  dump.Record(name, "warm_analyze_seconds_per_edit",
              warm_analyze_seconds * per_edit);
  dump.Record(name, "segment_graft_rate", segment_graft_rate);
  dump.Record(name, "node_share_rate", node_share_rate);
  dump.Record(name, "warm_segments_grafted_per_edit",
              static_cast<double>(segments_grafted) /
                  static_cast<double>(rounds) / kEdits);
  dump.Record(name, "warm_segment_grafts_rejected_per_edit",
              static_cast<double>(grafts_rejected) /
                  static_cast<double>(rounds) / kEdits);
  dump.Record(name, "snapshot_nodes",
              static_cast<double>(snapshot_nodes));
  dump.Record(name, "snapshot_segments_live",
              static_cast<double>(snapshot_segments_live));
  dump.Record(name, "cold_stage_build_ms_per_edit",
              static_cast<double>(cold_build_ns) * per_edit_ms);
  dump.Record(name, "warm_stage_canonicalize_ms_per_edit",
              static_cast<double>(stage_totals.stage_canonicalize_ns) *
                  per_edit_ms);
  dump.Record(name, "warm_stage_fingerprint_ms_per_edit",
              static_cast<double>(stage_totals.stage_fingerprint_ns) *
                  per_edit_ms);
  dump.Record(name, "warm_stage_fd_ms_per_edit",
              static_cast<double>(stage_totals.stage_fd_ns) * per_edit_ms);
  dump.Record(name, "warm_stage_adorn_ms_per_edit",
              static_cast<double>(stage_totals.stage_adorn_ns) *
                  per_edit_ms);
  dump.Record(name, "warm_stage_build_ms_per_edit",
              static_cast<double>(stage_totals.stage_build_ns) *
                  per_edit_ms);
  dump.Record(name, "warm_stage_prune_ms_per_edit",
              static_cast<double>(stage_totals.stage_prune_ns) *
                  per_edit_ms);
  dump.Record(name, "warm_stage_scc_ms_per_edit",
              static_cast<double>(stage_totals.stage_scc_ns) * per_edit_ms);
  dump.Record(name, "warm_stage_search_ms_per_edit",
              static_cast<double>(stage_totals.stage_search_ns) *
                  per_edit_ms);
}
BENCHMARK(BM_IncrementalEditWorkload)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace hornsafe
