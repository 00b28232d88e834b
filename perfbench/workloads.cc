// The three workloads. Each builds its inputs from the seed in a timed
// set-up phase, then runs a closed loop against the library's public
// entry points (SafetyAnalyzer, Server::HandleLine, RunFleet) and
// checks every verdict against the known-answer table. Traced runs
// record spans around those calls, each carrying the change in the
// counters the program already exposes.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/fleet.h"
#include "core/pipeline_cache.h"
#include "core/server.h"
#include "eval/builtins.h"
#include "gen.h"
#include "parser/parser.h"
#include "perfbench.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hornsafe::AnalyzerOptions;
using hornsafe::Json;
using hornsafe::PipelineCache;
using hornsafe::PipelineCacheStats;
using hornsafe::Program;
using hornsafe::SafetyAnalyzer;
using Counters = SafetyAnalyzer::Counters;

/// Loads program text the way `hornsafe check` does: parse, then
/// register the standard builtins the program references.
hornsafe::Result<Program> LoadText(const std::string& text) {
  hornsafe::Result<Program> parsed = hornsafe::ParseProgram(text);
  if (!parsed.ok()) return parsed;
  hornsafe::BuiltinRegistry referenced;
  hornsafe::Status st =
      hornsafe::RegisterReferencedStandardBuiltins(&*parsed, &referenced);
  if (!st.ok()) return st;
  return parsed;
}

std::vector<std::string> Verdicts(
    const std::vector<hornsafe::QueryAnalysis>& analyses) {
  std::vector<std::string> v;
  v.reserve(analyses.size());
  for (const hornsafe::QueryAnalysis& q : analyses) {
    v.push_back(hornsafe::SafetyName(q.overall));
  }
  return v;
}

/// Runs `setup(rep)` cfg.setup_reps times and records the median wall
/// time as setup_s; the last repetition's state is what the run uses.
template <typename F>
bool TimedSetup(const Config& cfg, Outcome* out, F&& setup) {
  std::vector<double> s;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    auto t0 = Clock::now();
    if (!setup(rep)) return false;
    s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  out->setup_s = Percentile(s, 0.5);
  return true;
}

/// Accounts one finished op: latency sample, and in a traced run the
/// per-mode op time behind trace.overhead_frac.
void Record(const Config& cfg, Outcome* out, bool traced, double ms) {
  out->latency_ms.push_back(ms);
  if (cfg.trace) {
    out->mode.Add(traced ? "traced_ms" : "untraced_ms", ms);
    out->mode.Add(traced ? "traced_ops" : "untraced_ops", 1);
  }
}

/// proc.* metrics over the measured loop: CPU per op, and the share of
/// the loop's thread-time spent off-CPU (waiting on disk, locks, peers).
void ProcMetrics(const ProcUsage& before, Outcome* out) {
  const double cpu_s = ReadProcUsage().cpu_s - before.cpu_s;
  out->layer["proc.cpu_ms_per_op"] =
      out->ops ? cpu_s * 1e3 / static_cast<double>(out->ops) : 0;
  const double capacity = out->wall_s * out->concurrency;
  out->layer["proc.wait_frac"] =
      capacity > 0 ? std::max(0.0, 1.0 - cpu_s / capacity) : 0;
}

uint64_t BuildStageNs(const Counters& c) {
  return c.stage_canonicalize_ns + c.stage_fingerprint_ns + c.stage_fd_ns +
         c.stage_adorn_ns + c.stage_build_ns + c.stage_prune_ns +
         c.stage_scc_ns;
}

/// Adds the per-stage deltas between two counter snapshots (ms) to
/// `sums` and to the span's counts.
void AddStages(const Counters& a, const Counters& b, Sums* sums,
               Span* span) {
  const std::pair<const char*, double> stages[] = {
      {"canonical.ms", (b.stage_canonicalize_ns - a.stage_canonicalize_ns) / 1e6},
      {"lang.fingerprint_ms", (b.stage_fingerprint_ns - a.stage_fingerprint_ns) / 1e6},
      {"fd.ms", (b.stage_fd_ns - a.stage_fd_ns) / 1e6},
      {"andor.adorn_ms", (b.stage_adorn_ns - a.stage_adorn_ns) / 1e6},
      {"andor.build_ms", (b.stage_build_ns - a.stage_build_ns) / 1e6},
      {"andor.prune_ms", (b.stage_prune_ns - a.stage_prune_ns) / 1e6},
      {"andor.scc_ms", (b.stage_scc_ns - a.stage_scc_ns) / 1e6},
  };
  for (const auto& [name, ms] : stages) {
    sums->Add(name, ms);
    span->counts.emplace_back(name, ms);
  }
}

/// Search-side deltas of one analysis (ms, steps, memo, condensation).
void AddSearch(const Counters& a, const Counters& b, Sums* sums,
               Span* span) {
  const std::pair<const char*, double> search[] = {
      {"andor.search_ms", (b.stage_search_ns - a.stage_search_ns) / 1e6},
      {"andor.search_steps", static_cast<double>(b.steps - a.steps)},
      {"memo_hits", static_cast<double>(b.memo_hits - a.memo_hits)},
      {"memo_misses", static_cast<double>(b.memo_misses - a.memo_misses)},
      {"scc_short_circuits",
       static_cast<double>(b.scc_short_circuits - a.scc_short_circuits)},
      {"subset_searches",
       static_cast<double>(b.subset_searches - a.subset_searches)},
  };
  for (const auto& [name, v] : search) {
    sums->Add(name, v);
    span->counts.emplace_back(name, v);
  }
}

/// Stage and search means per traced op, plus the search ratios.
void StageMetrics(const Sums& s, double ops, Outcome* out) {
  for (const char* name :
       {"canonical.ms", "lang.fingerprint_ms", "fd.ms", "andor.adorn_ms",
        "andor.build_ms", "andor.prune_ms", "andor.scc_ms", "andor.search_ms",
        "andor.search_steps"}) {
    out->layer[name] = s.Get(name) / ops;
  }
  out->layer["andor.memo_hit_rate"] =
      s.Get("memo_hits") /
      std::max(1.0, s.Get("memo_hits") + s.Get("memo_misses"));
  // Share of fresh decisions (whole searches or delegated fragments)
  // that the condensation settled without enumerating AND-graphs.
  out->layer["andor.scc_short_circuit_frac"] =
      s.Get("scc_short_circuits") /
      std::max(1.0, s.Get("scc_short_circuits") + s.Get("memo_misses"));
}

/// Cache-tier ratios between two PipelineCache::stats() snapshots.
void CacheMetrics(const PipelineCacheStats& a, const PipelineCacheStats& b,
                  double ops, Outcome* out) {
  auto rate = [](uint64_t hits, uint64_t misses) {
    return hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0;
  };
  out->layer["cache.verdict_hit_rate"] =
      rate(b.verdict_hits - a.verdict_hits,
           b.verdict_misses - a.verdict_misses);
  out->layer["cache.segment_hit_rate"] =
      rate(b.segment_hits - a.segment_hits,
           b.segment_misses - a.segment_misses);
  out->layer["cache.canon_hit_rate"] =
      rate(b.canon_hits - a.canon_hits, b.canon_misses - a.canon_misses);
  out->layer["cache.disk_hit_rate"] =
      rate(b.disk_hits - a.disk_hits, b.disk_misses - a.disk_misses);
  if (ops > 0) {
    out->layer["cache.verdict_evictions"] =
        (b.verdict_evictions - a.verdict_evictions) / ops;
    out->layer["cache.segment_evictions"] =
        (b.segment_evictions - a.segment_evictions) / ops;
    out->layer["cache.disk_stores_per_op"] =
        (b.lease_acquisitions - a.lease_acquisitions) / ops;
  }
}

// --- cold_check -------------------------------------------------------

struct DeckItem {
  std::string key;    // known-answer key
  std::string label;  // family and size: the op digest names it
  std::string text;
};

/// The cold_check inputs: every paper/example program of the known
/// answer table plus generated families. Each family has a fixed count
/// per size class, so every seed gets the same cost profile; the seed
/// picks sizes within a class and the random family's guards.
bool BuildDeck(const Config& cfg, const KnownAnswers& answers,
               std::vector<DeckItem>* deck, std::string* error) {
  deck->clear();
  Rng rng(SubSeed(cfg.seed, 1));
  for (const char* prefix : {"paper/", "examples/"}) {
    for (const std::string& key : answers.KeysWithPrefix(prefix)) {
      std::ifstream in(cfg.inputs_dir + "/" + key);
      if (!in) {
        *error = "cannot read input " + key;
        return false;
      }
      std::ostringstream text;
      text << in.rdbuf();
      deck->push_back({key, key, text.str()});
    }
  }
  const bool s = cfg.smoke;
  for (int i = 0; i < (s ? 1 : 4); ++i) {
    int d = 8 + 8 * i + rng.Range(0, 3);
    deck->push_back({"family/guarded_chain", "guarded_chain/" + Num(d),
                     GuardedChain(d)});
  }
  for (int i = 0; i < (s ? 1 : 4); ++i) {
    int d = 4 + 4 * i + rng.Range(0, 3);
    deck->push_back({"family/unguarded_chain", "unguarded_chain/" + Num(d),
                     UnguardedChain(d)});
  }
  for (int i = 0; i < (s ? 1 : 3); ++i) {
    int m = 3 + 2 * i + rng.Range(0, 1);
    deck->push_back({"family/shared_diamond", "shared_diamond/" + Num(m),
                     SharedDiamond(m)});
  }
  // Arity 8 is left out: one check takes ~1.7 s, a tenth of a run.
  for (int a = s ? 4 : 6; a <= (s ? 4 : 7); ++a) {
    deck->push_back({"family/wide_head", "wide_head/" + Num(a), WideHead(a)});
  }
  for (int i = 0; i < (s ? 1 : 4); ++i) {
    uint64_t seed = SubSeed(cfg.seed, 100 + i);
    int rules = 6 + 4 * i + rng.Range(0, 3);
    deck->push_back({"family/random_family",
                     "random_family/" + Num(rules) + "/" + Num(seed),
                     RandomFamilyText(seed, rules, 1, 2)});
  }
  deck->push_back({"family/modular", "modular/16x6",
                   s ? ModularWorkloadText(4, 4) : ModularWorkloadText(16, 6)});
  return true;
}

/// How many times an input occurs per pass over the deck. The 11 checks
/// per pass that cost tens to hundreds of ms (wide_head/6 six times, the
/// modular program twice, the three costliest once) are under 2% of the
/// ops; everything else (< 1 ms) occurs 20 times, so latency_ms_p50 and
/// latency_ms_p95 both sit among the cheap checks, away from the gap
/// between the two groups.
int DeckWeight(const Config& cfg, const std::string& label) {
  if (cfg.smoke) return 1;
  if (label == "wide_head/6") return 6;
  if (label == "modular/16x6") return 2;
  if (label == "wide_head/7" || label == "paper/ex07_concat_bound.hs" ||
      label == "paper/ex01_ancestor_free.hs") {
    return 1;
  }
  return 20;
}

/// One cold `hornsafe check`: load, Create (no cache, jobs=1), analyze
/// every query — or, for a query-less program, every derived predicate
/// under the all-free adornment.
struct ColdResult {
  std::string error;
  std::vector<std::string> verdicts;
  Clock::time_point parsed, created, analyzed;
  Counters after_create, after_analyze;
  SafetyAnalyzer::Stats stats;
};

ColdResult ColdCheck(const std::string& text) {
  ColdResult r;
  hornsafe::Result<Program> program = LoadText(text);
  r.parsed = Clock::now();
  if (!program.ok()) {
    r.error = program.status().ToString();
    return r;
  }
  AnalyzerOptions options;
  options.jobs = 1;
  hornsafe::Result<SafetyAnalyzer> analyzer =
      SafetyAnalyzer::Create(*program, options);
  r.created = Clock::now();
  if (!analyzer.ok()) {
    r.error = analyzer.status().ToString();
    return r;
  }
  // counters() and stats() are plain reads of the analyzer's tallies;
  // the self-test's repeat counts need them on untraced ops too.
  r.after_create = analyzer->counters();
  const Program& canon = analyzer->canonical();
  if (!canon.queries().empty()) {
    r.verdicts = Verdicts(analyzer->AnalyzeQueries());
  } else {
    for (hornsafe::PredicateId p = 0; p < canon.num_predicates(); ++p) {
      if (!canon.IsDerived(p)) continue;
      r.verdicts.push_back(
          hornsafe::SafetyName(analyzer->AnalyzePredicate(p, 0).overall));
    }
  }
  r.analyzed = Clock::now();
  r.after_analyze = analyzer->counters();
  r.stats = analyzer->stats();
  return r;
}

}  // namespace

void RunColdCheck(const Config& cfg, const KnownAnswers& answers,
                  Tracer* tracer, Outcome* out) {
  std::vector<DeckItem> deck;
  std::vector<size_t> schedule;  // deck indices, weighted and shuffled
  // Set-up: build the deck and check every input once before timing
  // (verdicts are compared on the measured ops, where a wrong one is a
  // failed op).
  bool ok = TimedSetup(cfg, out, [&](int) {
    if (!BuildDeck(cfg, answers, &deck, &out->error)) return false;
    schedule.clear();
    for (size_t i = 0; i < deck.size(); ++i) {
      const DeckItem& item = deck[i];
      ColdResult r = ColdCheck(item.text);
      if (!r.error.empty()) {
        out->error = "set-up check of " + item.label + " failed: " + r.error;
        return false;
      }
      schedule.insert(schedule.end(), DeckWeight(cfg, item.label), i);
    }
    Rng(SubSeed(cfg.seed, 5)).Shuffle(schedule);
    return true;
  });
  if (!ok) return;

  Loop loop(cfg, 1);
  Sums sums;
  double traced_ops = 0;
  const ProcUsage before = ReadProcUsage();
  loop.Start();
  uint64_t done = 0;
  for (; loop.More(done); ++done) {
    const DeckItem& item = deck[schedule[done % schedule.size()]];
    const bool traced = loop.Traced(done);
    out->digest.Add(item.label);
    const auto t0 = Clock::now();
    ColdResult r = ColdCheck(item.text);
    ++out->attempted;
    if (!r.error.empty()) {
      out->Fail(item.label + ": " + r.error);
      continue;
    }
    Record(cfg, out, traced, MsBetween(t0, r.analyzed));
    if (!answers.Matches(item.key, r.verdicts)) {
      out->Fail(item.label + ": verdicts differ from the known answer");
    }
    out->repeatable["search_steps"] += r.after_analyze.steps;
    out->repeatable["nodes"] += r.stats.nodes;
    if (!traced) continue;

    ++traced_ops;
    const Counters zero;
    Span root{done, "cold_check", -1, tracer->Ms(t0), tracer->Ms(r.analyzed), {}};
    const int64_t parent = tracer->Add(root);
    const double parse_ms = MsBetween(t0, r.parsed);
    const double create_ms = MsBetween(r.parsed, r.created);
    const double analyze_ms = MsBetween(r.created, r.analyzed);
    tracer->Add({done, "parser", parent, tracer->Ms(t0), tracer->Ms(r.parsed), {}});
    Span create{done, "analyzer.create", parent, tracer->Ms(r.parsed),
                tracer->Ms(r.created), {}};
    AddStages(zero, r.after_create, &sums, &create);
    const double create_self =
        create_ms - BuildStageNs(r.after_create) / 1e6;
    create.counts.emplace_back("self_ms", create_self);
    tracer->Add(std::move(create));
    Span analyze{done, "analyzer.analyze", parent, tracer->Ms(r.created),
                 tracer->Ms(r.analyzed), {}};
    AddSearch(r.after_create, r.after_analyze, &sums, &analyze);
    const double analyze_self =
        analyze_ms -
        (r.after_analyze.stage_search_ns - r.after_create.stage_search_ns) /
            1e6;
    analyze.counts.emplace_back("self_ms", analyze_self);
    tracer->Add(std::move(analyze));
    sums.Add("parser.parse_ms", parse_ms);
    sums.Add("analyzer.create_ms", create_ms);
    sums.Add("analyzer.create_self_ms", create_self);
    sums.Add("analyzer.analyze_ms", analyze_ms);
    sums.Add("analyzer.analyze_self_ms", analyze_self);
    sums.Add("nodes", static_cast<double>(r.stats.nodes));
    sums.Add("rules_live", static_cast<double>(r.stats.rules_live));
    sums.Add("rules_total", static_cast<double>(r.stats.rules_total));
  }
  out->wall_s = loop.ElapsedS();
  out->ops = done;
  ProcMetrics(before, out);
  if (traced_ops > 0) {
    StageMetrics(sums, traced_ops, out);
    for (const char* name :
         {"parser.parse_ms", "analyzer.create_ms", "analyzer.create_self_ms",
          "analyzer.analyze_ms", "analyzer.analyze_self_ms"}) {
      out->layer[name] = sums.Get(name) / traced_ops;
    }
    out->layer["andor.nodes"] = sums.Get("nodes") / traced_ops;
    out->layer["andor.rules_live_frac"] =
        sums.Ratio("rules_live", "rules_total");
  }
}

// --- serve_editors ----------------------------------------------------

namespace {

std::string Request(uint64_t id, const char* method) {
  Json req = Json::Object();
  req.Set("id", id);
  req.Set("method", method);
  return req.Dump();
}

std::string Request(uint64_t id, const char* method, const char* field,
                    const std::string& value) {
  Json req = Json::Object();
  req.Set("id", id);
  req.Set("method", method);
  req.Set(field, value);
  return req.Dump();
}

/// Checks one serve reply: ok, and the query verdicts match `key`
/// (check/explain), or the edit was applied (update), or no error-level
/// diagnostic (lint). `queries` > 0 also pins the query count.
bool ReplyMatches(const std::string& reply, const std::string& method,
                  const KnownAnswers& answers, const char* key,
                  size_t queries) {
  hornsafe::Result<Json> parsed = Json::Parse(reply);
  if (!parsed.ok() || !(*parsed)["ok"].AsBool()) return false;
  const Json& result = (*parsed)["result"];
  if (method == "update") return result["dirty_predicates"].AsInt() > 0;
  if (method == "lint") {
    return answers.Matches(
        key, {result["errors"].AsInt() == 0 ? "clean" : "errors"});
  }
  std::vector<std::string> verdicts;
  for (const Json& q : result["queries"].items()) {
    verdicts.push_back(q["safety"].AsString());
  }
  if (queries > 0 && verdicts.size() != queries) return false;
  return answers.Matches(key, verdicts);
}

/// Stage + search ns in a `stats` reply: the part of request time the
/// analysis pipeline itself accounts for.
double PipelineNs(const std::string& stats_reply) {
  hornsafe::Result<Json> parsed = Json::Parse(stats_reply);
  if (!parsed.ok()) return 0;
  const Json& a = (*parsed)["result"]["analyzer"];
  double ns = 0;
  for (const char* f :
       {"stage_canonicalize_ns", "stage_fingerprint_ns", "stage_fd_ns",
        "stage_adorn_ns", "stage_build_ns", "stage_prune_ns", "stage_scc_ns",
        "stage_search_ns"}) {
    ns += a[f].AsNumber();
  }
  return ns;
}

/// One analyzer counter of a `stats` reply.
double AnalyzerCount(const std::string& stats_reply, const char* field) {
  hornsafe::Result<Json> parsed = Json::Parse(stats_reply);
  return parsed.ok() ? (*parsed)["result"]["analyzer"][field].AsNumber() : 0;
}

struct ClientTally {
  Outcome part;  // attempted/failed/latency/mode/digest of this client
  Sums sums;     // HandleLine time and count per method
};

}  // namespace

void RunServeEditors(const Config& cfg, const KnownAnswers& answers,
                     Tracer* tracer, Outcome* out) {
  constexpr int kClients = 4;
  const int modules = cfg.smoke ? 4 : 16;
  const int ring = cfg.smoke ? 4 : 6;
  const size_t all_queries = static_cast<size_t>(2 * modules * ring);

  std::unique_ptr<PipelineCache> cache;
  std::unique_ptr<hornsafe::Server> server;
  std::vector<std::string> lint_pool;
  bool ok = TimedSetup(cfg, out, [&](int) {
    server.reset();
    cache.reset();
    // Every repetition starts a server over the same cache dir: the
    // first writes the base program's verdicts, the rest read them back.
    // setup_s is thus a serve restart over its --cache-dir, not ~100
    // fsyncs whose speed the host's disk decides from run to run.
    PipelineCache::Options copts;
    copts.dir = cfg.run_root + "/serve-cache";
    cache = std::make_unique<PipelineCache>(copts);
    hornsafe::ServerOptions sopts;
    sopts.cache = cache.get();
    sopts.workers = kClients;
    sopts.analyzer.jobs = 1;
    sopts.prepare_program = [](Program* program) {
      hornsafe::BuiltinRegistry referenced;
      return hornsafe::RegisterReferencedStandardBuiltins(program, &referenced);
    };
    server = std::make_unique<hornsafe::Server>(std::move(sopts));
    const std::string preload = server->HandleLine(Request(
        0, "update", "program", ModularWorkloadText(modules, ring)));
    const std::string primed = server->HandleLine(Request(0, "check"));
    if (!ReplyMatches(preload, "update", answers, "", 0) ||
        primed.find("\"ok\":true") == std::string::npos) {
      out->error = "set-up: preload failed: " + preload + " " + primed;
      return false;
    }
    lint_pool.clear();
    Rng rng(SubSeed(cfg.seed, 3));
    for (int i = 0; i < 8; ++i) {
      lint_pool.push_back(Request(
          0, "lint", "program",
          ModularWorkloadText(modules, ring,
                              static_cast<int>(rng.Below(modules)), 900 + i)));
    }
    return true;
  });
  if (!ok) return;

  Loop loop(cfg, kClients);
  std::vector<ClientTally> tallies(kClients);
  const std::string stats_before = server->HandleLine(Request(0, "stats"));
  const PipelineCacheStats cache_start = cache->stats();
  const ProcUsage before = ReadProcUsage();
  loop.Start();
  auto client = [&](int c) {
    ClientTally& t = tallies[static_cast<size_t>(c)];
    Rng rng(SubSeed(cfg.seed, 1000 + c));
    uint64_t edits = 0;
    std::vector<Span> calls;  // the current op's HandleLine spans
    auto call = [&](const std::string& line, const char* method,
                    const char* key, size_t queries, uint64_t op,
                    bool traced) {
      const auto t0 = Clock::now();
      std::string reply = server->HandleLine(line);
      const auto t1 = Clock::now();
      const double ms = MsBetween(t0, t1);
      t.sums.Add(std::string("server.") + method + "_ms", ms);
      t.sums.Add(std::string("n.") + method, 1);
      t.sums.Add("handle_ms", ms);
      if (traced) {
        calls.push_back({op, method, -1, tracer->Ms(t0), tracer->Ms(t1), {}});
      }
      return ReplyMatches(reply, method, answers, key, queries);
    };
    for (uint64_t done = 0; loop.More(done); ++done) {
      const bool traced = loop.Traced(done);
      const uint64_t op = static_cast<uint64_t>(c) << 48 | done;
      const uint64_t roll = rng.Below(100);
      const auto t0 = Clock::now();
      calls.clear();
      bool good = true;
      std::string label;
      if (roll < 10) {
        // An editor's edit: update, then re-verify every query.
        const int module = static_cast<int>(rng.Below(modules));
        const uint64_t guard = (static_cast<uint64_t>(c) + 1) * 1000000 + edits++;
        label = "edit/m" + Num(module) + "/w" + Num(guard);
        good = call(Request(op, "update", "program",
                            ModularWorkloadText(modules, ring, module, guard)),
                    "update", "", 0, op, traced);
        good = call(Request(op, "check"), "check", "family/modular",
                    all_queries, op, traced) &&
               good;
      } else if (roll < 15) {
        const size_t i = rng.Below(lint_pool.size());
        label = "lint/" + Num(i);
        good = call(lint_pool[i], "lint", "lint/modular", 0, op, traced);
      } else {
        const bool explain = rng.Below(7) == 0;
        const bool diamond = rng.Chance(1, 2);
        const std::string pred = std::string(diamond ? "d" : "b") +
                                 Num(rng.Below(ring)) + "_m" +
                                 Num(rng.Below(modules)) + "/1";
        label = std::string(explain ? "explain/" : "check/") + pred;
        good = call(Request(op, explain ? "explain" : "check", "predicate",
                            pred),
                    explain ? "explain" : "check",
                    diamond ? "family/modular.diamond" : "family/modular.ring",
                    1, op, traced);
      }
      const auto t1 = Clock::now();
      t.part.digest.Add(label);
      ++t.part.attempted;
      if (!good) t.part.Fail(label + ": reply differs from the known answer");
      Record(cfg, &t.part, traced, MsBetween(t0, t1));
      if (traced) {
        const int64_t parent =
            tracer->Add({op, "op", -1, tracer->Ms(t0), tracer->Ms(t1), {}});
        for (Span& s : calls) {
          s.parent = parent;
          tracer->Add(std::move(s));
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& th : threads) th.join();
  out->wall_s = loop.ElapsedS();
  const std::string stats_after = server->HandleLine(Request(0, "stats"));
  const PipelineCacheStats cache_end = cache->stats();

  Sums sums;
  for (ClientTally& t : tallies) {
    out->attempted += t.part.attempted;
    out->failed += t.part.failed;
    out->failures.insert(out->failures.end(), t.part.failures.begin(),
                         t.part.failures.end());
    out->latency_ms.insert(out->latency_ms.end(), t.part.latency_ms.begin(),
                           t.part.latency_ms.end());
    out->mode.Merge(t.part.mode);
    out->digest.Add(t.part.digest.value());
    sums.Merge(t.sums);
  }
  out->ops = out->attempted;
  out->concurrency = kClients;
  ProcMetrics(before, out);
  if (cfg.trace) {
    for (const char* m : {"check", "explain", "lint", "update"}) {
      out->layer[std::string("server.") + m + "_ms"] =
          sums.Ratio(std::string("server.") + m + "_ms", std::string("n.") + m);
    }
    const double handle_ms = sums.Get("handle_ms");
    const double pipeline_ms =
        (PipelineNs(stats_after) - PipelineNs(stats_before)) / 1e6;
    out->layer["server.self_frac"] =
        handle_ms > 0 ? 1.0 - pipeline_ms / handle_ms : 0;
    auto delta = [&](const char* field) {
      return AnalyzerCount(stats_after, field) -
             AnalyzerCount(stats_before, field);
    };
    const double updates = sums.Get("n.update");
    out->layer["server.snapshot_swaps"] =
        updates > 0 ? delta("snapshot_swaps") / updates : 0;
    // The warm path behind every update: how much of each rebuilt node
    // table was grafted from cached segments instead of rebuilt.
    const double total = delta("segments_total");
    out->layer["analyzer.segment_graft_rate"] =
        total > 0 ? delta("segments_grafted") / total : 0;
    const double shared = delta("nodes_shared");
    const double owned = delta("nodes_owned");
    out->layer["analyzer.node_share_frac"] =
        shared + owned > 0 ? shared / (shared + owned) : 0;
    out->layer["analyzer.graft_rejections"] =
        updates > 0 ? delta("segment_grafts_rejected") / updates : 0;
    CacheMetrics(cache_start, cache_end, static_cast<double>(out->ops), out);
  }
}

// --- fleet_sweep ------------------------------------------------------

namespace {

/// Library module `k` of the fleet corpus. Four kinds, by k % 4, each
/// exporting one all-variable query (so its cone fingerprint does not
/// depend on where the module sits in a program):
///   0 route      Example 1 with the level counter fixed: safe
///   1 mono       Example 13, monotone and bounded below: safe
///   2 route_free Example 1 with a free level counter: unsafe
///   3 chain      a guarded chain: safe
/// Every module also defines the finite node<k>/1 the top rules join.
std::string LibraryModule(int k, const char** key) {
  const std::string s = Num(static_cast<uint64_t>(k));
  std::string t = "node" + s + "(n0).\nnode" + s + "(n1).\n";
  switch (k % 4) {
    case 0:
    case 2:
      t += ".infinite step" + s + "/2.\n.fd step" + s + ": 1 -> 2.\n.fd step" +
           s + ": 2 -> 1.\n";
      t += "edge" + s + "(n0, n1).\nedge" + s + "(n1, n2).\n";
      t += "lib" + s + "(X, Y, 1) :- edge" + s + "(X, Y).\n";
      t += "lib" + s + "(X, Y, J) :- edge" + s + "(X, Z), lib" + s +
           "(Z, Y, I), step" + s + "(I, J).\n";
      if (k % 4 == 0) {
        t += "two" + s + "(X, Y) :- lib" + s + "(X, Y, 2).\n?- two" + s +
             "(X, Y).\n";
        *key = "fleet/route";
      } else {
        t += "?- lib" + s + "(X, Y, J).\n";
        *key = "fleet/route_free";
      }
      return t;
    case 1:
      t += ".infinite f" + s + "/2.\n.infinite g" + s + "/2.\n.fd f" + s +
           ": 2 -> 1.\n.fd g" + s + ": 2 -> 1.\n.mono f" + s +
           ": 2 > 1.\n.mono g" + s + ": 2 > 1.\n.mono f" + s +
           ": 1 > const(0).\n.mono g" + s + ": 1 > const(0).\n";
      t += "r" + s + "(X, U) :- f" + s + "(X, Y), g" + s + "(U, V), r" + s +
           "(Y, V).\n";
      t += "r" + s + "(X, U) :- b" + s + "(X, U).\n?- r" + s + "(X, U).\n";
      *key = "fleet/mono";
      return t;
    default:
      t += ".infinite h" + s + "/2.\n.fd h" + s + ": 2 -> 1.\n";
      for (int i = 0; i < 6; ++i) {
        t += "c" + s + "_" + Num(i) + "(X) :- h" + s + "(X, Y), c" + s + "_" +
             Num(i + 1) + "(Y), node" + s + "(Y).\n";
      }
      t += "c" + s + "_6(X) :- node" + s + "(X).\n?- c" + s + "_0(X).\n";
      *key = "fleet/chain";
      return t;
  }
}

struct Corpus {
  std::string dir;
  std::map<std::string, std::string> expected;  // path -> verdict
  std::vector<std::string> keys;                // known-answer keys used
};

/// Writes the corpus: each program draws two distinct library modules
/// from the shared pool and adds a top rule of its own, so the modules'
/// verdicts are cross-program cache hits and the top's never are.
bool WriteCorpus(const Config& cfg, const KnownAnswers& answers,
                 const std::string& dir, Corpus* corpus, std::string* error) {
  const int programs = cfg.smoke ? 24 : 320;
  const int library = cfg.smoke ? 8 : 32;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  corpus->dir = dir;
  corpus->expected.clear();
  Rng rng(SubSeed(cfg.seed, 4));
  for (int i = 0; i < programs; ++i) {
    const int a = static_cast<int>(rng.Below(library));
    int b = static_cast<int>(rng.Below(library - 1));
    if (b >= a) ++b;
    const char* key_a = "";
    const char* key_b = "";
    std::string text = LibraryModule(a, &key_a) + LibraryModule(b, &key_b);
    text += "top" + Num(i) + "(X) :- node" + Num(a) + "(X), node" + Num(b) +
            "(X).\n?- top" + Num(i) + "(X).\n";
    // A program is unsafe iff one of its queries is.
    bool unsafe = false;
    for (const char* key : {key_a, key_b, "fleet/top"}) {
      if (answers.Matches(key, {"unsafe"})) {
        unsafe = true;
      } else if (!answers.Matches(key, {"safe"})) {
        *error = std::string("no known answer for ") + key;
        return false;
      }
    }
    char name[32];
    std::snprintf(name, sizeof(name), "prog_%04d.hs", i);
    std::ofstream(fs::path(dir) / name) << text;
    corpus->expected[name] = unsafe ? "unsafe" : "safe";
  }
  return true;
}

/// One worker process per core of the 4-core host the benchmark was
/// written for, so a sweep's per-program times average over every core
/// of a host whose cores change speed with their neighbours' load.
constexpr int kFleetProcs = 4;

struct RoundResult {
  std::string error;
  hornsafe::FleetReport report;
  double wall_ms = 0;
  double disk_entries = 0;
};

/// One cold sweep: RunFleet with procs=4 over a fresh shared cache dir.
RoundResult FleetRound(const Config& cfg, const Corpus& corpus,
                       const std::string& tag) {
  RoundResult r;
  const std::string cache_dir = cfg.run_root + "/fleet-cache-" + tag;
  const std::string scratch = cfg.run_root + "/fleet-scratch-" + tag;
  std::error_code ec;
  fs::create_directories(scratch, ec);
  hornsafe::FleetOptions options;
  options.corpus_dir = corpus.dir;
  options.cache_dir = cache_dir;
  options.procs = kFleetProcs;
  options.jobs = 1;
  options.worker_exe = cfg.cli_path;
  options.scratch_dir = scratch;
  const auto t0 = Clock::now();
  hornsafe::Result<hornsafe::FleetReport> report = hornsafe::RunFleet(options);
  r.wall_ms = MsBetween(t0, Clock::now());
  if (!report.ok()) {
    r.error = report.status().ToString();
  } else {
    r.report = std::move(*report);
    for (const auto& entry : fs::recursive_directory_iterator(cache_dir, ec)) {
      if (entry.path().extension() == ".hsv") ++r.disk_entries;
    }
  }
  fs::remove_all(cache_dir, ec);
  fs::remove_all(scratch, ec);
  return r;
}

/// Failed programs of one round: errors, missing programs and verdicts
/// that differ from the corpus's known answers.
std::vector<std::string> RoundFailures(const Corpus& corpus,
                                       const RoundResult& r) {
  std::vector<std::string> failures;
  std::map<std::string, std::string> seen;
  for (const hornsafe::FleetProgramResult& p : r.report.programs) {
    seen[p.path] = p.verdict;
  }
  for (const auto& [path, want] : corpus.expected) {
    auto it = seen.find(path);
    if (it == seen.end()) {
      failures.push_back(path + ": missing from the fleet report");
    } else if (it->second != want) {
      failures.push_back(path + ": " + it->second + ", expected " + want);
    }
  }
  return failures;
}

}  // namespace

void RunFleetSweep(const Config& cfg, const KnownAnswers& answers,
                   Tracer* tracer, Outcome* out) {
  Corpus corpus;
  // Set-up: write the corpus and run one verifying sweep (spawns the
  // workers once, so the measured rounds start from a warm page cache).
  bool ok = TimedSetup(cfg, out, [&](int rep) {
    if (!WriteCorpus(cfg, answers, cfg.run_root + "/corpus-" + Num(rep),
                     &corpus, &out->error)) {
      return false;
    }
    RoundResult r = FleetRound(cfg, corpus, "setup-" + Num(rep));
    if (!r.error.empty()) {
      out->error = "set-up sweep failed: " + r.error;
      return false;
    }
    return true;
  });
  if (!ok) return;
  for (const auto& [path, verdict] : corpus.expected) {
    out->digest.Add(path + "=" + verdict);
  }

  // Each op is one program; the run is a sequence of whole sweeps.
  Loop loop(cfg, 1);
  Sums sums;
  double traced_rounds = 0;
  const ProcUsage before = ReadProcUsage();
  loop.Start();
  uint64_t rounds = 0;
  for (; loop.More(rounds); ++rounds) {
    const bool traced = loop.Traced(rounds);
    RoundResult r = FleetRound(cfg, corpus, Num(rounds));
    out->wall_s += r.wall_ms / 1e3;
    if (!r.error.empty()) {
      // A failed sweep fails every program in it.
      out->attempted += corpus.expected.size();
      out->Fail("round " + Num(rounds) + ": " + r.error,
                corpus.expected.size());
      continue;
    }
    const hornsafe::FleetReport& rep = r.report;
    out->attempted += corpus.expected.size();
    out->ops += rep.programs.size();
    for (const std::string& f : RoundFailures(corpus, r)) out->Fail(f);
    double program_ms = 0;
    for (const hornsafe::FleetProgramResult& p : rep.programs) {
      out->latency_ms.push_back(p.wall_seconds * 1e3);
      program_ms += p.wall_seconds * 1e3;
    }
    const double per_program =
        r.wall_ms / static_cast<double>(std::max<size_t>(rep.programs.size(), 1));
    if (cfg.trace) {
      out->mode.Add(traced ? "traced_ms" : "untraced_ms", per_program);
      out->mode.Add(traced ? "traced_ops" : "untraced_ops", 1);
    }
    out->repeatable["disk_entries"] += r.disk_entries;
    if (!traced) continue;

    ++traced_rounds;
    const double overhead = 1.0 - program_ms / (kFleetProcs * r.wall_ms);
    const double programs = static_cast<double>(rep.programs.size());
    const auto end = Clock::now();
    tracer->Add({rounds,
                 "fleet.round",
                 -1,
                 tracer->Ms(end) - r.wall_ms,
                 tracer->Ms(end),
                 {{"programs", programs},
                  {"program_ms", program_ms},
                  {"verdict_hits", static_cast<double>(rep.verdict_hits)},
                  {"verdict_misses", static_cast<double>(rep.verdict_misses)},
                  {"disk_hits", static_cast<double>(rep.disk_hits)},
                  {"disk_misses", static_cast<double>(rep.disk_misses)},
                  {"disk_entries", r.disk_entries},
                  {"respawns", static_cast<double>(rep.respawns)}}});
    sums.Add("overhead", overhead);
    sums.Add("hits", static_cast<double>(rep.verdict_hits));
    sums.Add("lookups", static_cast<double>(rep.verdict_hits + rep.verdict_misses));
    sums.Add("disk_hits", static_cast<double>(rep.disk_hits));
    sums.Add("disk_lookups", static_cast<double>(rep.disk_hits + rep.disk_misses));
    sums.Add("disk_entries", r.disk_entries);
    sums.Add("programs", programs);
    sums.Add("respawns", static_cast<double>(rep.respawns));
  }
  out->concurrency = kFleetProcs;
  ProcMetrics(before, out);
  if (traced_rounds > 0) {
    out->layer["fleet.driver_overhead_frac"] = sums.Get("overhead") / traced_rounds;
    out->layer["fleet.cross_program_hit_rate"] = sums.Ratio("hits", "lookups");
    out->layer["fleet.respawns"] = sums.Get("respawns") / traced_rounds;
    out->layer["cache.disk_stores_per_op"] =
        sums.Ratio("disk_entries", "programs");
    out->layer["cache.disk_hit_rate"] = sums.Ratio("disk_hits", "disk_lookups");
    out->layer["cache.verdict_hit_rate"] = sums.Ratio("hits", "lookups");
  }
}

}  // namespace perfbench
