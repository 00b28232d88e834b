// The hornsafe command-line tool.
//
//   hornsafe check <file>       analyze every query in the program:
//                               safety verdict per argument, finiteness
//                               of intermediate results, termination
//   hornsafe run <file>         analyze and evaluate every query
//   hornsafe canonical <file>   print the canonical form (Algorithm 1)
//   hornsafe andor <file>       print And-Or_H after pruning
//   hornsafe adorned <file>     print the adorned program H*
//   hornsafe matrix <file> <pred>/<arity>
//                               per-adornment safety matrix
//   hornsafe report <file>      full analysis report
//   hornsafe dot <file>         Graphviz witness graph of the first
//                               unsafe query argument
//   hornsafe simplify <file>    print the program with dead and
//                               query-irrelevant clauses removed
//   hornsafe explain <file> <literal>
//                               derivation trees for the literal's answers
//   hornsafe lint <file>        static diagnostics (HS001..HS011) with
//                               source positions; --json for tooling
//   hornsafe repl <file>        interactive: analyze + evaluate queries
//                               read from stdin
//   hornsafe serve [file]       long-lived analysis server: one JSON
//                               request per stdin line, one JSON reply
//                               per stdout line (or over --socket)
//
// Exit status: 0 on success, 1 on usage/parse errors, 2 when `check`
// finds an unsafe or undecided query or `lint` reports an error-severity
// diagnostic.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "canonical/canonical.h"
#include "andor/subset.h"
#include "constraints/consistency.h"
#include "core/analyzer.h"
#include "core/finiteness.h"
#include "core/fleet.h"
#include "core/report.h"
#include "core/server.h"
#include "core/termination.h"
#include "eval/bottomup.h"
#include "eval/engine.h"
#include "lint/lint.h"
#include "parser/parser.h"
#include "transform/simplify.h"
#include "util/json.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

/// Global evaluation flags, pre-parsed (and stripped) before command
/// dispatch.
struct CliFlags {
  /// Worker threads for bottom-up evaluation (1 = serial, 0 = one per
  /// hardware thread).
  int jobs = 1;
  /// Print fixpoint statistics after each evaluated query.
  bool stats = false;
  /// check: emit analysis counters, per-stage wall clocks, and cache
  /// stats as a single JSON object on stdout.
  bool stats_json = false;
  /// On-disk pipeline-cache directory for `check` (empty = memory-only
  /// cache for the process lifetime).
  std::string cache_dir;
  /// Disable the pipeline cache entirely.
  bool no_cache = false;
  /// serve: default per-request deadline (0 = none).
  long deadline_ms = 0;
  /// serve: bounded in-flight request queue size.
  long max_queue = 64;
  /// serve: shed overflowing requests with `unavailable` replies
  /// instead of applying backpressure.
  bool shed = false;
  /// serve: concurrent request workers (1 = serial in-order replies,
  /// 0 = one per hardware thread).
  long workers = 1;
  /// serve: unix-domain socket path (empty = stdin/stdout).
  std::string socket_path;
  /// lint: emit machine-readable JSON instead of file:line:col text.
  bool json = false;
  /// lint: comma-separated diagnostic codes to suppress.
  std::string suppress;
  /// fleet: worker process count.
  long procs = 1;
  /// fleet: HORNSAFE_FAULTS spec exported to workers (soak tooling).
  std::string faults;
  /// fleet: run a compaction pass over --cache-dir after the workers
  /// finish.
  bool compact = false;
  /// fleet/cache-compact: compaction size bound in MiB (0 = none).
  long max_mb = 0;
  /// fleet/cache-compact: compaction age bound in seconds (0 = none).
  long max_age_s = 0;
  /// fleet-worker (internal): the corpus list the workers claim from
  /// (`--shard`) and this worker slot's output file.
  std::string shard_file;
  std::string out_file;
};

CliFlags g_flags;

int Usage() {
  std::fprintf(stderr,
               "usage: hornsafe <command> <program-file> [args]\n"
               "  check <file>                 safety report for all queries\n"
               "  run <file>                   analyze + evaluate all queries\n"
               "  canonical <file>             print Algorithm 1 output\n"
               "  andor <file>                 print pruned And-Or_H\n"
               "  adorned <file>               print the adorned program H*\n"
               "  matrix <file> <pred>/<arity> per-adornment safety matrix\n"
               "  report <file>                full analysis report\n"
               "  dot <file>                   Graphviz witness of the first "
               "unsafe query argument\n"
               "  simplify <file>              remove dead and irrelevant "
               "clauses\n"
               "  explain <file> <literal>     derivation trees for the "
               "literal's answers\n"
               "  lint <file>                  static diagnostics with "
               "source positions (see docs/SYNTAX.md for the codes)\n"
               "  repl <file>                  interactive query loop over "
               "the program\n"
               "  serve [file]                 line-delimited JSON analysis "
               "server (stdin/stdout or --socket)\n"
               "  fleet <dir>                  analyze every *.hs under "
               "<dir> across --procs worker processes sharing --cache-dir; "
               "merged report (--json for machines)\n"
               "  cache-compact                size/age-bounded GC pass over "
               "--cache-dir (single-writer, crash-resumable)\n"
               "flags (check/run/repl/explain):\n"
               "  --jobs N                     analyze/evaluate with N "
               "worker threads (default 1; 0 = all hardware threads)\n"
               "  --stats                      print analysis counters "
               "(check) or fixpoint statistics per query (run/repl)\n"
               "  --stats-json                 check: one JSON object with "
               "per-stage wall clocks, analysis counters, and cache stats\n"
               "flags (lint):\n"
               "  --json                       one JSON object on stdout "
               "instead of file:line:col lines\n"
               "  --suppress CODES             comma-separated diagnostic "
               "codes to silence (e.g. HS009,HS010)\n"
               "flags (check/serve):\n"
               "  --cache-dir DIR              persist the pipeline cache "
               "under DIR; warm re-checks of unchanged cones skip their "
               "subset searches\n"
               "  --no-cache                   disable the pipeline cache\n"
               "flags (serve):\n"
               "  --deadline-ms N              default per-request deadline "
               "(0 = none); requests may override with \"deadline_ms\"\n"
               "  --max-queue N                bounded in-flight request "
               "queue (default 64)\n"
               "  --workers N                  serve requests with N "
               "concurrent workers (default 1: strict in-order replies; "
               "0 = all hardware threads; N > 1 replies in completion "
               "order, updates swap in atomically, checks never block "
               "behind them)\n"
               "  --shed                       answer overflowing requests "
               "with an 'unavailable' error instead of applying "
               "backpressure\n"
               "  --socket PATH                serve over a unix-domain "
               "socket instead of stdin/stdout\n"
               "flags (fleet/cache-compact):\n"
               "  --procs N                    fleet worker processes "
               "(default 1)\n"
               "  --compact                    fleet: run one compaction "
               "pass after the workers finish\n"
               "  --max-mb N                   compaction size bound in MiB "
               "(0 = none)\n"
               "  --max-age-s N                compaction age bound in "
               "seconds (0 = none)\n"
               "  --faults SPEC                fleet: export "
               "HORNSAFE_FAULTS=SPEC to the workers (soak tooling)\n");
  return 1;
}

Result<Program> Load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrCat("cannot open '", path, "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  HORNSAFE_ASSIGN_OR_RETURN(Program program, ParseProgram(buffer.str()));
  // Static analysis must see the constraints of any standard builtin
  // the program references, or `check` would disagree with `run` (the
  // engine registers them all). The registry itself is not needed here.
  BuiltinRegistry referenced;
  HORNSAFE_RETURN_IF_ERROR(
      RegisterReferencedStandardBuiltins(&program, &referenced));
  return program;
}

void PrintTuples(const Program& p, const std::vector<Tuple>& tuples) {
  for (const Tuple& t : tuples) {
    std::printf("    ");
    if (t.empty()) {
      std::printf("true\n");
      continue;
    }
    for (size_t i = 0; i < t.size(); ++i) {
      std::printf("%s%s", p.terms().ToString(t[i], p.symbols()).c_str(),
                  i + 1 < t.size() ? ", " : "\n");
    }
  }
}

void PrintAnalyzerStats(const SafetyAnalyzer& analyzer) {
  SafetyAnalyzer::Counters c = analyzer.counters();
  std::printf(
      "analysis stats:\n"
      "  positions analyzed:   %llu\n"
      "  subset searches:      %llu\n"
      "  search steps spent:   %llu\n"
      "  AND-graphs checked:   %llu\n"
      "  memo hits / misses:   %llu / %llu\n"
      "  SCC short-circuits:   %llu\n"
      "  parallel tasks:       %llu\n"
      "  serial tasks:         %llu\n",
      static_cast<unsigned long long>(c.positions_analyzed),
      static_cast<unsigned long long>(c.subset_searches),
      static_cast<unsigned long long>(c.steps),
      static_cast<unsigned long long>(c.graphs_checked),
      static_cast<unsigned long long>(c.memo_hits),
      static_cast<unsigned long long>(c.memo_misses),
      static_cast<unsigned long long>(c.scc_short_circuits),
      static_cast<unsigned long long>(c.parallel_tasks),
      static_cast<unsigned long long>(c.serial_tasks));
  if (c.cache_hits + c.cache_misses > 0) {
    std::printf(
        "  cache hits / misses:  %llu / %llu\n",
        static_cast<unsigned long long>(c.cache_hits),
        static_cast<unsigned long long>(c.cache_misses));
  }
  std::printf(
      "  segments grafted / total:    %llu / %llu (rejected %llu, encoded "
      "%llu)\n"
      "  nodes shared / owned:        %llu / %llu\n"
      "  node table peak:             %llu nodes, %llu bytes\n"
      "  stage times (ms): canonicalize %.2f, fingerprint %.2f, fd %.2f, "
      "adorn %.2f, build %.2f, prune %.2f, scc %.2f, search %.2f\n",
      static_cast<unsigned long long>(c.segments_grafted),
      static_cast<unsigned long long>(c.segments_total),
      static_cast<unsigned long long>(c.segment_grafts_rejected),
      static_cast<unsigned long long>(c.segments_encoded),
      static_cast<unsigned long long>(c.nodes_shared),
      static_cast<unsigned long long>(c.nodes_owned),
      static_cast<unsigned long long>(c.node_table_peak_nodes),
      static_cast<unsigned long long>(c.node_table_peak_bytes),
      c.stage_canonicalize_ns / 1e6, c.stage_fingerprint_ns / 1e6,
      c.stage_fd_ns / 1e6, c.stage_adorn_ns / 1e6, c.stage_build_ns / 1e6,
      c.stage_prune_ns / 1e6, c.stage_scc_ns / 1e6,
      c.stage_search_ns / 1e6);
}

/// `check --stats-json`: one machine-readable JSON object on stdout.
/// Per-stage wall clocks stay in nanoseconds (the native resolution);
/// consumers convert. Shape mirrors the serve `stats` reply so the same
/// tooling can parse both.
void PrintStatsJson(const SafetyAnalyzer& analyzer,
                    const PipelineCache* cache) {
  SafetyAnalyzer::Counters c = analyzer.counters();
  Json root = Json::Object();
  Json a = Json::Object();
  a.Set("positions_analyzed", c.positions_analyzed);
  a.Set("subset_searches", c.subset_searches);
  a.Set("steps", c.steps);
  a.Set("graphs_checked", c.graphs_checked);
  a.Set("memo_hits", c.memo_hits);
  a.Set("memo_misses", c.memo_misses);
  a.Set("scc_short_circuits", c.scc_short_circuits);
  a.Set("parallel_tasks", c.parallel_tasks);
  a.Set("serial_tasks", c.serial_tasks);
  a.Set("cache_hits", c.cache_hits);
  a.Set("cache_misses", c.cache_misses);
  a.Set("segments_total", c.segments_total);
  a.Set("segments_grafted", c.segments_grafted);
  a.Set("segment_grafts_rejected", c.segment_grafts_rejected);
  a.Set("segments_encoded", c.segments_encoded);
  a.Set("nodes_shared", c.nodes_shared);
  a.Set("nodes_owned", c.nodes_owned);
  a.Set("node_table_peak_nodes", c.node_table_peak_nodes);
  a.Set("node_table_peak_bytes", c.node_table_peak_bytes);
  Json stages = Json::Object();
  stages.Set("canonicalize_ns", c.stage_canonicalize_ns);
  stages.Set("fingerprint_ns", c.stage_fingerprint_ns);
  stages.Set("fd_ns", c.stage_fd_ns);
  stages.Set("adorn_ns", c.stage_adorn_ns);
  stages.Set("build_ns", c.stage_build_ns);
  stages.Set("prune_ns", c.stage_prune_ns);
  stages.Set("scc_ns", c.stage_scc_ns);
  stages.Set("search_ns", c.stage_search_ns);
  a.Set("stages", std::move(stages));
  root.Set("analyzer", std::move(a));
  if (cache != nullptr) {
    PipelineCacheStats s = cache->stats();
    Json cs = Json::Object();
    cs.Set("verdict_hits", s.verdict_hits);
    cs.Set("verdict_misses", s.verdict_misses);
    cs.Set("verdict_insertions", s.verdict_insertions);
    cs.Set("verdict_evictions", s.verdict_evictions);
    cs.Set("disk_hits", s.disk_hits);
    cs.Set("disk_misses", s.disk_misses);
    cs.Set("disk_corrupt", s.disk_corrupt);
    cs.Set("disk_write_failures", s.disk_write_failures);
    cs.Set("cones_invalidated", s.cones_invalidated);
    cs.Set("canon_hits", s.canon_hits);
    cs.Set("canon_misses", s.canon_misses);
    cs.Set("emptiness_hits", s.emptiness_hits);
    cs.Set("emptiness_misses", s.emptiness_misses);
    cs.Set("segment_hits", s.segment_hits);
    cs.Set("segment_misses", s.segment_misses);
    cs.Set("segment_insertions", s.segment_insertions);
    cs.Set("segment_evictions", s.segment_evictions);
    cs.Set("fd_index_hits", s.fd_index_hits);
    cs.Set("fd_index_misses", s.fd_index_misses);
    cs.Set("pred_hash_hits", s.pred_hash_hits);
    cs.Set("pred_hash_misses", s.pred_hash_misses);
    cs.Set("lease_acquisitions", s.lease_acquisitions);
    cs.Set("torn_tails_repaired", s.torn_tails_repaired);
    cs.Set("compactions_run", s.compactions_run);
    root.Set("cache", std::move(cs));
  }
  std::printf("%s\n", root.Dump().c_str());
}

void PrintCacheStats(const PipelineCache& cache) {
  PipelineCacheStats s = cache.stats();
  std::printf(
      "pipeline cache stats:\n"
      "  verdict hits / misses:    %llu / %llu\n"
      "  insertions / evictions:   %llu / %llu\n"
      "  disk hits / misses:       %llu / %llu\n"
      "  disk corrupt / failed:    %llu / %llu\n"
      "  cones invalidated:        %llu\n"
      "  canon hits / misses:      %llu / %llu\n"
      "  emptiness hits / misses:  %llu / %llu\n",
      static_cast<unsigned long long>(s.verdict_hits),
      static_cast<unsigned long long>(s.verdict_misses),
      static_cast<unsigned long long>(s.verdict_insertions),
      static_cast<unsigned long long>(s.verdict_evictions),
      static_cast<unsigned long long>(s.disk_hits),
      static_cast<unsigned long long>(s.disk_misses),
      static_cast<unsigned long long>(s.disk_corrupt),
      static_cast<unsigned long long>(s.disk_write_failures),
      static_cast<unsigned long long>(s.cones_invalidated),
      static_cast<unsigned long long>(s.canon_hits),
      static_cast<unsigned long long>(s.canon_misses),
      static_cast<unsigned long long>(s.emptiness_hits),
      static_cast<unsigned long long>(s.emptiness_misses));
  std::printf(
      "  segment hits / misses:    %llu / %llu\n"
      "  fd index hits / misses:   %llu / %llu\n"
      "  pred hash hits / misses:  %llu / %llu\n",
      static_cast<unsigned long long>(s.segment_hits),
      static_cast<unsigned long long>(s.segment_misses),
      static_cast<unsigned long long>(s.fd_index_hits),
      static_cast<unsigned long long>(s.fd_index_misses),
      static_cast<unsigned long long>(s.pred_hash_hits),
      static_cast<unsigned long long>(s.pred_hash_misses));
  if (s.lease_acquisitions + s.torn_tails_repaired + s.compactions_run +
          s.compactions_skipped >
      0) {
    std::printf(
        "  shard locks taken:        %llu (torn tails repaired %llu)\n"
        "  compactions run/skipped:  %llu / %llu (removed %llu entries, "
        "%llu bytes)\n",
        static_cast<unsigned long long>(s.lease_acquisitions),
        static_cast<unsigned long long>(s.torn_tails_repaired),
        static_cast<unsigned long long>(s.compactions_run),
        static_cast<unsigned long long>(s.compactions_skipped),
        static_cast<unsigned long long>(s.compaction_entries_removed),
        static_cast<unsigned long long>(s.compaction_bytes_removed));
  }
}

/// Prints the merged lint diagnostics for `program` to stdout, one per
/// line with `path` as the file prefix.
void PrintLintDiagnostics(const Program& program, const char* path) {
  for (const Diagnostic& d : LintProgram(program)) {
    std::printf("%s\n", FormatDiagnosticWithNote(d, path).c_str());
  }
}

/// Parses the --suppress flag's comma-separated code list.
LintOptions LintOptionsFromFlags() {
  LintOptions options;
  const std::string& spec = g_flags.suppress;
  for (size_t pos = 0; pos < spec.size();) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > pos) options.suppress.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return options;
}

int CmdLint(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // A load failure is itself a diagnostic (HS001/HS003/HS004) rather
  // than a bare error print: editors consume lint output uniformly.
  std::vector<Diagnostic> diags;
  auto parsed = ParseProgram(buffer.str());
  if (!parsed.ok()) {
    diags.push_back(DiagnosticFromStatus(parsed.status()));
  } else {
    Program program = std::move(parsed).value();
    // Same contract as `check`: the advisory checks must see the
    // constraints of any standard builtin the program references, or
    // e.g. plus/3 would be flagged as an unconstrained predicate.
    BuiltinRegistry referenced;
    if (Status st = RegisterReferencedStandardBuiltins(&program, &referenced);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    diags = LintProgram(program, LintOptionsFromFlags());
  }
  if (g_flags.json) {
    std::printf("%s\n", DiagnosticsToJson(diags).Dump().c_str());
  } else if (diags.empty()) {
    std::printf("%s: clean\n", path);
  } else {
    for (const Diagnostic& d : diags) {
      std::printf("%s\n", FormatDiagnosticWithNote(d, path).c_str());
    }
    std::printf("%zu error(s), %zu warning(s), %zu note(s)\n",
                CountSeverity(diags, Severity::kError),
                CountSeverity(diags, Severity::kWarning),
                CountSeverity(diags, Severity::kNote));
  }
  return CountSeverity(diags, Severity::kError) > 0 ? 2 : 0;
}

int CmdCheck(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  // Advisory diagnostics first, on the program as written (spans refer
  // to the source text, not the canonical form). Purely informational:
  // verdicts and exit status are unaffected.
  PrintLintDiagnostics(*parsed, path);
  // Memory-only cache by default (useful when several queries share
  // cones); --cache-dir adds the persistent tier so warm re-checks skip
  // unchanged cones; --no-cache disables caching outright.
  std::unique_ptr<PipelineCache> cache;
  if (!g_flags.no_cache) {
    PipelineCache::Options copts;
    copts.dir = g_flags.cache_dir;
    cache = std::make_unique<PipelineCache>(copts);
  }
  AnalyzerOptions aopts;
  aopts.jobs = g_flags.jobs;
  aopts.cache = cache.get();
  auto analyzer = SafetyAnalyzer::Create(*parsed, aopts);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "%s\n", analyzer.status().ToString().c_str());
    return 1;
  }
  for (const ConsistencyWarning& w :
       CheckConstraintConsistency(analyzer->canonical())) {
    std::printf("warning: %s\n", w.message.c_str());
  }
  if (analyzer->canonical().queries().empty()) {
    std::printf("no queries in %s (add '?- p(X).' lines)\n", path);
    return 0;
  }
  bool all_safe = true;
  std::vector<Literal> queries = analyzer->canonical().queries();
  for (const Literal& q : queries) {
    QueryAnalysis analysis = analyzer->AnalyzeQueryLiteral(q);
    IntermediateFinitenessResult fin = CheckFiniteIntermediateResults(
        analyzer->canonical(), analyzer->adorned(), analyzer->system(), q);
    TerminationResult term = CheckTermination(*analyzer, q);
    std::printf("?- %s.\n", analyzer->canonical().ToString(q).c_str());
    std::printf("  safety:               %s\n",
                SafetyName(analysis.overall));
    std::printf("  finite intermediate:  %s\n", fin.exists ? "yes" : "no");
    std::printf("  terminating eval:     %s\n", term.exists ? "yes" : "no");
    for (const ArgumentVerdict& a : analysis.args) {
      std::printf("  arg %u: %s\n", a.position + 1, SafetyName(a.safety));
      if (a.safety != Safety::kSafe) {
        // Indent the explanation block.
        std::istringstream lines(a.explanation);
        std::string line;
        while (std::getline(lines, line)) {
          std::printf("    %s\n", line.c_str());
        }
      }
    }
    if (analysis.overall != Safety::kSafe) all_safe = false;
    std::printf("\n");
  }
  if (g_flags.stats) {
    PrintAnalyzerStats(*analyzer);
    if (cache) PrintCacheStats(*cache);
  }
  if (g_flags.stats_json) PrintStatsJson(*analyzer, cache.get());
  return all_safe ? 0 : 2;
}

EngineOptions MakeEngineOptions() {
  EngineOptions options;
  options.bottom_up.jobs = g_flags.jobs;
  return options;
}

void PrintEvalStats(const BottomUpStats& stats) {
  if (stats.iterations == 0) return;  // top-down: nothing to report
  double total = 0;
  for (double s : stats.round_seconds) total += s;
  std::printf(
      "  stats: %llu iteration(s), %llu tuple(s), %llu firing(s), "
      "%.3f ms, %llu parallel / %llu serial task(s)\n",
      static_cast<unsigned long long>(stats.iterations),
      static_cast<unsigned long long>(stats.tuples_derived),
      static_cast<unsigned long long>(stats.rule_firings), total * 1e3,
      static_cast<unsigned long long>(stats.parallel_tasks),
      static_cast<unsigned long long>(stats.serial_tasks));
  for (size_t i = 0; i < stats.round_seconds.size(); ++i) {
    std::printf("    round %zu: %.3f ms\n", i,
                stats.round_seconds[i] * 1e3);
  }
}

int CmdRun(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::vector<Literal> queries = parsed->queries();
  auto engine = Engine::Create(std::move(parsed).value(),
                               MakeEngineOptions());
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  for (const Literal& q : queries) {
    std::printf("?- %s.\n", engine->program().ToString(q).c_str());
    auto r = engine->Query(q);
    if (!r.ok()) {
      std::printf("  %s\n\n", r.status().ToString().c_str());
      continue;
    }
    std::printf("  %zu answer(s) [%s, %s]:\n", r->tuples.size(),
                SafetyName(r->safety), r->strategy.c_str());
    PrintTuples(engine->program(), r->tuples);
    if (g_flags.stats) PrintEvalStats(r->eval_stats);
    std::printf("\n");
  }
  return 0;
}

int CmdCanonical(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto canon = Canonicalize(*parsed);
  if (!canon.ok()) {
    std::fprintf(stderr, "%s\n", canon.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", canon->program.ToString().c_str());
  return 0;
}

int CmdAndOr(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto analyzer = SafetyAnalyzer::Create(*parsed);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "%s\n", analyzer.status().ToString().c_str());
    return 1;
  }
  const SafetyAnalyzer::Stats& s = analyzer->stats();
  std::printf(
      "%% canonical rules: %zu, adorned rules: %zu, nodes: %zu\n"
      "%% propositional rules: %zu total, %zu pruned by Algorithm 3, "
      "%zu by Algorithm 4, %zu live\n",
      s.canonical_rules, s.adorned_rules, s.nodes, s.rules_total,
      s.rules_pruned_emptiness, s.rules_pruned_reduction, s.rules_live);
  std::printf("%s", analyzer->system().ToString(analyzer->canonical()).c_str());
  return 0;
}

int CmdAdorned(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto analyzer = SafetyAnalyzer::Create(*parsed);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "%s\n", analyzer.status().ToString().c_str());
    return 1;
  }
  std::printf("%s",
              analyzer->adorned().ToString(analyzer->canonical()).c_str());
  return 0;
}

int CmdReport(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto analyzer = SafetyAnalyzer::Create(*parsed);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "%s\n", analyzer.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", GenerateReport(*analyzer).c_str());
  return 0;
}

int CmdDot(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto analyzer = SafetyAnalyzer::Create(*parsed);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "%s\n", analyzer.status().ToString().c_str());
    return 1;
  }
  std::vector<Literal> queries = analyzer->canonical().queries();
  for (const Literal& q : queries) {
    QueryAnalysis analysis = analyzer->AnalyzeQueryLiteral(q);
    for (const ArgumentVerdict& a : analysis.args) {
      if (a.safety != Safety::kUnsafe) continue;
      // Recompute to obtain the witness object.
      NodeId root = analyzer->system().FindHeadArg(q.pred, 0, a.position);
      SubsetResult res = CheckSubsetCondition(analyzer->system(), root, {});
      if (res.witness) {
        std::printf("%s", res.witness
                              ->ToDot(analyzer->system(),
                                      analyzer->canonical())
                              .c_str());
        return 0;
      }
    }
  }
  std::fprintf(stderr, "no unsafe query argument found in %s\n", path);
  return 2;
}

int CmdSimplify(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto stats = SimplifyProgram(&parsed.value());
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%% removed: %zu dead rules, %zu unreachable rules, "
              "%zu unreachable facts\n",
              stats->rules_removed_empty, stats->rules_removed_unreachable,
              stats->facts_removed);
  std::printf("%s", parsed->ToString().c_str());
  return 0;
}

int CmdExplain(const char* path, const char* literal_text) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  Program program = std::move(parsed).value();
  BuiltinRegistry registry;
  if (Status st = RegisterStandardBuiltins(&program, &registry); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto lit = ParseLiteralInto(literal_text, &program);
  if (!lit.ok()) {
    std::fprintf(stderr, "%s\n", lit.status().ToString().c_str());
    return 1;
  }
  BottomUpOptions opts;
  opts.track_provenance = true;  // forces serial evaluation
  opts.jobs = g_flags.jobs;
  BottomUpEvaluator eval(&program, &registry, opts);
  if (Status st = eval.Run(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto answers = eval.Query(*lit);
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return 1;
  }
  if (answers->empty()) {
    std::printf("no answers for %s\n", program.ToString(*lit).c_str());
    return 0;
  }
  constexpr size_t kMaxExplained = 5;
  for (size_t i = 0; i < answers->size() && i < kMaxExplained; ++i) {
    auto why = eval.Explain(lit->pred, (*answers)[i]);
    if (why.ok()) {
      std::printf("%s\n", why->c_str());
    }
  }
  if (answers->size() > kMaxExplained) {
    std::printf("... and %zu more answer(s)\n",
                answers->size() - kMaxExplained);
  }
  return 0;
}

int CmdRepl(const char* path) {
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto engine = Engine::Create(std::move(parsed).value(),
                               MakeEngineOptions());
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("hornsafe repl — enter queries like 'path(1, X)'; "
              "'quit' to exit.\n");
  std::string line;
  while (true) {
    std::printf("?- ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim whitespace and an optional trailing period.
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.back()))) {
      line.pop_back();
    }
    size_t start = 0;
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start]))) {
      ++start;
    }
    line = line.substr(start);
    if (!line.empty() && line.back() == '.') line.pop_back();
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    auto r = engine->Query(line);
    if (!r.ok()) {
      std::printf("%s\n", r.status().ToString().c_str());
      continue;
    }
    std::printf("%zu answer(s) [%s, %s]:\n", r->tuples.size(),
                SafetyName(r->safety), r->strategy.c_str());
    PrintTuples(engine->program(), r->tuples);
    if (g_flags.stats) PrintEvalStats(r->eval_stats);
  }
  return 0;
}

int CmdServe(const char* path) {
  std::unique_ptr<PipelineCache> cache;
  if (!g_flags.no_cache) {
    PipelineCache::Options copts;
    copts.dir = g_flags.cache_dir;
    cache = std::make_unique<PipelineCache>(copts);
  }
  ServerOptions sopts;
  sopts.analyzer.jobs = g_flags.jobs;
  sopts.cache = cache.get();
  sopts.default_deadline_ms = static_cast<uint64_t>(g_flags.deadline_ms);
  sopts.max_queue = static_cast<size_t>(g_flags.max_queue);
  sopts.shed_on_overflow = g_flags.shed;
  sopts.workers = static_cast<size_t>(g_flags.workers);
  // The analyzer must see the constraints of any standard builtin a
  // served program references (same contract as `check`).
  sopts.prepare_program = [](Program* program) {
    BuiltinRegistry referenced;
    return RegisterReferencedStandardBuiltins(program, &referenced);
  };
  Server server(std::move(sopts));
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Json preload = Json::Object();
    preload.Set("id", "preload");
    preload.Set("method", "update");
    preload.Set("program", buffer.str());
    std::string reply = server.HandleLine(preload.Dump());
    std::fprintf(stderr, "preload: %s\n", reply.c_str());
  }
  if (!g_flags.socket_path.empty()) {
    Status st = server.ServeUnixSocket(g_flags.socket_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  server.Serve(std::cin, std::cout);
  return 0;
}

int CmdMatrix(const char* path, const char* spec) {
  const char* slash = std::strrchr(spec, '/');
  if (slash == nullptr) {
    std::fprintf(stderr, "matrix: expected <pred>/<arity>, got '%s'\n", spec);
    return 1;
  }
  std::string name(spec, slash - spec);
  int arity = std::atoi(slash + 1);
  auto parsed = Load(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto analyzer = SafetyAnalyzer::Create(*parsed);
  if (!analyzer.ok()) {
    std::fprintf(stderr, "%s\n", analyzer.status().ToString().c_str());
    return 1;
  }
  PredicateId pred = analyzer->canonical().FindPredicate(
      name, static_cast<uint32_t>(arity));
  if (pred == kInvalidPredicate) {
    std::fprintf(stderr, "matrix: unknown predicate %s/%d\n", name.c_str(),
                 arity);
    return 1;
  }
  std::printf("safety matrix for %s/%d (b = bound argument):\n",
              name.c_str(), arity);
  for (uint64_t mask = 0; mask < (uint64_t{1} << arity); ++mask) {
    QueryAnalysis q = analyzer->AnalyzePredicate(pred, mask);
    std::string adornment;
    for (int k = 0; k < arity; ++k) {
      adornment += ((mask >> k) & 1) ? 'b' : 'f';
    }
    std::printf("  %s: %-9s [", adornment.c_str(),
                SafetyName(q.overall));
    for (const ArgumentVerdict& a : q.args) {
      std::printf("%s%c", a.position ? " " : "",
                  a.safety == Safety::kSafe     ? 's'
                  : a.safety == Safety::kUnsafe ? 'U'
                                                : '?');
    }
    std::printf("]\n");
  }
  return 0;
}

int CmdFleet(const char* dir) {
  FleetOptions options;
  options.corpus_dir = dir;
  options.cache_dir = g_flags.cache_dir;
  options.procs = static_cast<int>(g_flags.procs);
  options.jobs = g_flags.jobs;
  options.fault_spec = g_flags.faults;
  options.compact_after = g_flags.compact;
  options.compact_bounds.max_bytes =
      static_cast<uint64_t>(g_flags.max_mb) << 20;
  options.compact_bounds.max_age_seconds = g_flags.max_age_s;
  auto report = RunFleet(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (g_flags.json) {
    std::printf("%s\n", report.value().ToJson().Dump().c_str());
  } else {
    std::printf("%s", report.value().ToText().c_str());
  }
  return report.value().errors > 0 ? 2 : 0;
}

int CmdFleetWorker() {
  if (g_flags.shard_file.empty() || g_flags.out_file.empty()) {
    std::fprintf(stderr, "fleet-worker: --shard and --out are required\n");
    return 1;
  }
  // Same loader as `check`: referenced standard builtins registered so
  // fleet verdicts agree with per-program `hornsafe check` runs.
  return FleetWorkerMain(
      g_flags.shard_file, g_flags.out_file, g_flags.cache_dir, g_flags.jobs,
      [](const std::string& path) { return Load(path.c_str()); });
}

int CmdCacheCompact() {
  if (g_flags.cache_dir.empty()) {
    std::fprintf(stderr, "cache-compact: --cache-dir is required\n");
    return 1;
  }
  PipelineCache::CompactionOptions bounds;
  bounds.max_bytes = static_cast<uint64_t>(g_flags.max_mb) << 20;
  bounds.max_age_seconds = g_flags.max_age_s;
  auto result = PipelineCache::CompactDir(g_flags.cache_dir, bounds);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const PipelineCache::CompactionResult& r = result.value();
  if (g_flags.json) {
    Json j = Json::Object();
    j.Set("ran", r.ran);
    j.Set("entries_scanned", r.entries_scanned);
    j.Set("entries_removed", r.entries_removed);
    j.Set("bytes_removed", r.bytes_removed);
    j.Set("logs_rewritten", r.logs_rewritten);
    std::printf("%s\n", j.Dump().c_str());
  } else if (!r.ran) {
    std::printf("compaction skipped: another compactor holds the lock\n");
  } else {
    std::printf(
        "compacted %s: scanned %llu entr(ies), removed %llu (%llu bytes), "
        "rewrote %llu log(s)\n",
        g_flags.cache_dir.c_str(),
        static_cast<unsigned long long>(r.entries_scanned),
        static_cast<unsigned long long>(r.entries_removed),
        static_cast<unsigned long long>(r.bytes_removed),
        static_cast<unsigned long long>(r.logs_rewritten));
  }
  return 0;
}

/// Consumes `--jobs N` / `--jobs=N` / `--stats` anywhere on the command
/// line, compacting argv in place. Returns false on a malformed flag.
bool ParseFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--stats") == 0) {
      g_flags.stats = true;
      continue;
    }
    if (std::strcmp(arg, "--stats-json") == 0) {
      g_flags.stats_json = true;
      continue;
    }
    if (std::strcmp(arg, "--no-cache") == 0) {
      g_flags.no_cache = true;
      continue;
    }
    if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      g_flags.cache_dir = arg + 12;
      continue;
    }
    if (std::strcmp(arg, "--cache-dir") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "--cache-dir requires a directory\n");
        return false;
      }
      g_flags.cache_dir = argv[++i];
      continue;
    }
    if (std::strcmp(arg, "--shed") == 0) {
      g_flags.shed = true;
      continue;
    }
    if (std::strcmp(arg, "--compact") == 0) {
      g_flags.compact = true;
      continue;
    }
    // String-valued fleet flags (--name VALUE or --name=VALUE).
    struct StrFlag {
      const char* name;
      std::string* target;
    };
    const StrFlag kStrFlags[] = {
        {"--faults", &g_flags.faults},
        {"--shard", &g_flags.shard_file},
        {"--out", &g_flags.out_file},
    };
    bool str_consumed = false;
    for (const StrFlag& f : kStrFlags) {
      size_t len = std::strlen(f.name);
      if (std::strncmp(arg, f.name, len) == 0 && arg[len] == '=') {
        *f.target = arg + len + 1;
        str_consumed = true;
        break;
      }
      if (std::strcmp(arg, f.name) == 0) {
        if (i + 1 >= *argc) {
          std::fprintf(stderr, "%s requires a value\n", f.name);
          return false;
        }
        *f.target = argv[++i];
        str_consumed = true;
        break;
      }
    }
    if (str_consumed) continue;
    if (std::strcmp(arg, "--json") == 0) {
      g_flags.json = true;
      continue;
    }
    if (std::strncmp(arg, "--suppress=", 11) == 0) {
      g_flags.suppress = arg + 11;
      continue;
    }
    if (std::strcmp(arg, "--suppress") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "--suppress requires a code list\n");
        return false;
      }
      g_flags.suppress = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      g_flags.socket_path = arg + 9;
      continue;
    }
    if (std::strcmp(arg, "--socket") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "--socket requires a path\n");
        return false;
      }
      g_flags.socket_path = argv[++i];
      continue;
    }
    // Numeric flags: --<name> N or --<name>=N.
    struct NumFlag {
      const char* name;
      long* target;
      long min, max;
    };
    const NumFlag kNumFlags[] = {
        {"--jobs", nullptr, 0, 4096},
        {"--deadline-ms", &g_flags.deadline_ms, 0, 86'400'000},
        {"--max-queue", &g_flags.max_queue, 1, 1 << 20},
        {"--workers", &g_flags.workers, 0, 4096},
        {"--procs", &g_flags.procs, 1, 256},
        {"--max-mb", &g_flags.max_mb, 0, 1 << 20},
        {"--max-age-s", &g_flags.max_age_s, 0, 1'000'000'000},
    };
    bool consumed = false;
    for (const NumFlag& f : kNumFlags) {
      size_t len = std::strlen(f.name);
      const char* value = nullptr;
      if (std::strncmp(arg, f.name, len) == 0 && arg[len] == '=') {
        value = arg + len + 1;
      } else if (std::strcmp(arg, f.name) == 0) {
        if (i + 1 >= *argc) {
          std::fprintf(stderr, "%s requires a value\n", f.name);
          return false;
        }
        value = argv[++i];
      } else {
        continue;
      }
      char* end = nullptr;
      long v = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || v < f.min || v > f.max) {
        std::fprintf(stderr, "invalid %s value '%s'\n", f.name, value);
        return false;
      }
      if (f.target != nullptr) {
        *f.target = v;
      } else {
        g_flags.jobs = static_cast<int>(v);
      }
      consumed = true;
      break;
    }
    if (consumed) continue;
    argv[out++] = argv[i];
  }
  *argc = out;
  return true;
}

int Main(int argc, char** argv) {
  if (!ParseFlags(&argc, argv)) return 1;
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return CmdServe(argc >= 3 ? argv[2] : nullptr);
  }
  if (argc >= 2 && std::strcmp(argv[1], "fleet-worker") == 0) {
    return CmdFleetWorker();
  }
  if (argc >= 2 && std::strcmp(argv[1], "cache-compact") == 0) {
    return CmdCacheCompact();
  }
  if (argc < 3) return Usage();
  if (std::strcmp(argv[1], "fleet") == 0) return CmdFleet(argv[2]);
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "check") == 0) return CmdCheck(argv[2]);
  if (std::strcmp(cmd, "run") == 0) return CmdRun(argv[2]);
  if (std::strcmp(cmd, "canonical") == 0) return CmdCanonical(argv[2]);
  if (std::strcmp(cmd, "andor") == 0) return CmdAndOr(argv[2]);
  if (std::strcmp(cmd, "adorned") == 0) return CmdAdorned(argv[2]);
  if (std::strcmp(cmd, "report") == 0) return CmdReport(argv[2]);
  if (std::strcmp(cmd, "dot") == 0) return CmdDot(argv[2]);
  if (std::strcmp(cmd, "simplify") == 0) return CmdSimplify(argv[2]);
  if (std::strcmp(cmd, "lint") == 0) return CmdLint(argv[2]);
  if (std::strcmp(cmd, "repl") == 0) return CmdRepl(argv[2]);
  if (std::strcmp(cmd, "explain") == 0) {
    if (argc < 4) return Usage();
    return CmdExplain(argv[2], argv[3]);
  }
  if (std::strcmp(cmd, "matrix") == 0) {
    if (argc < 4) return Usage();
    return CmdMatrix(argv[2], argv[3]);
  }
  return Usage();
}

}  // namespace
}  // namespace hornsafe

int main(int argc, char** argv) { return hornsafe::Main(argc, argv); }
