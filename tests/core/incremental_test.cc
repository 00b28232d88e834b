// Incremental re-analysis through the pipeline cache: warm results must
// be bit-identical to cold ones (verdicts, explanations, per-position
// step counts), while the work actually spent (Counters.steps) drops to
// the dirty cones only.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "parser/parser.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

Program Parse(const std::string& text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// One diamond-ring module (the SharedDiamond family of the benches)
/// with predicates suffixed `s` and its own query — safe, and its
/// subset search does real, countable work. `edited` appends a guard
/// literal to the grounding rule.
std::string Module(const char* s, int m, bool edited) {
  std::string t;
  t += StrCat(".infinite f", s, "/2.\n.fd f", s, ": 2 -> 1.\n");
  t += StrCat(".infinite g", s, "/2.\n.fd g", s, ": 2 -> 1.\n");
  t += StrCat(".infinite t2", s, "/2.\n");
  for (int i = 0; i < m; ++i) {
    t += StrCat("b", i, s, "(X) :- d", i, s, "(X), b", (i + 1) % m, s,
                "(X).\n");
    t += StrCat("d", i, s, "(X) :- f", s, "(X,Y), e", i, s, "(Y).\n");
    t += StrCat("d", i, s, "(X) :- g", s, "(X,Y), e", i, s, "(Y).\n");
    t += StrCat("e", i, s, "(X) :- t2", s, "(X,Z).\n");
  }
  t += StrCat("b0", s, "(X) :- c", s, "(X)", edited ? ", extra(X)" : "",
              ".\n");
  t += StrCat("?- b0", s, "(X).\n");
  return t;
}

std::string TwoModules(bool edit_a) {
  return StrCat(Module("a", 3, edit_a), Module("b", 3, false));
}

void ExpectSameAnalyses(const std::vector<QueryAnalysis>& a,
                        const std::vector<QueryAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].overall, b[i].overall) << "query " << i;
    ASSERT_EQ(a[i].args.size(), b[i].args.size());
    for (size_t k = 0; k < a[i].args.size(); ++k) {
      const ArgumentVerdict& x = a[i].args[k];
      const ArgumentVerdict& y = b[i].args[k];
      EXPECT_EQ(x.safety, y.safety) << "query " << i << " arg " << k;
      EXPECT_EQ(x.explanation, y.explanation)
          << "query " << i << " arg " << k;
      EXPECT_EQ(x.steps, y.steps) << "query " << i << " arg " << k;
      EXPECT_EQ(x.graphs_checked, y.graphs_checked)
          << "query " << i << " arg " << k;
    }
  }
}

std::vector<QueryAnalysis> ColdAnalyze(const Program& p,
                                       AnalyzerOptions opts = {}) {
  opts.cache = nullptr;
  auto a = SafetyAnalyzer::Create(p, opts);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  return a->AnalyzeQueries();
}

TEST(IncrementalTest, WarmRerunIsBitIdenticalAndFree) {
  Program p = Parse(TwoModules(false));
  std::vector<QueryAnalysis> cold = ColdAnalyze(p);

  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto warm = SafetyAnalyzer::Create(p, opts);
  ASSERT_TRUE(warm.ok());
  ExpectSameAnalyses(warm->AnalyzeQueries(), cold);
  uint64_t steps_after_prime = warm->counters().steps;
  EXPECT_GT(steps_after_prime, 0u);

  // Second analysis of the identical program: everything hits.
  ExpectSameAnalyses(warm->AnalyzeQueries(), cold);
  EXPECT_EQ(warm->counters().steps, steps_after_prime);
  EXPECT_GT(warm->counters().cache_hits, 0u);
}

TEST(IncrementalTest, UpdateRecomputesOnlyDirtyCones) {
  Program base = Parse(TwoModules(false));
  Program edited = Parse(TwoModules(true));
  std::vector<QueryAnalysis> cold_edited = ColdAnalyze(edited);

  // Cold cost of the edited program, for comparison.
  auto cold = SafetyAnalyzer::Create(edited);
  ASSERT_TRUE(cold.ok());
  cold->AnalyzeQueries();
  const uint64_t cold_steps = cold->counters().steps;
  ASSERT_GT(cold_steps, 0u);

  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto warm = SafetyAnalyzer::Create(base, opts);
  ASSERT_TRUE(warm.ok());
  warm->AnalyzeQueries();  // prime
  const uint64_t primed = warm->counters().steps;

  auto up = warm->Update(edited);
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  // The edit reaches module a's whole ring (b0a..b2a) but nothing in
  // module b and nothing below the ring.
  EXPECT_EQ(up->predicates, up->dirty_predicates + up->clean_predicates);
  EXPECT_GE(up->dirty_predicates, 3u);
  EXPECT_GT(up->clean_predicates, 0u);
  EXPECT_EQ(cache.stats().cones_invalidated, up->dirty_predicates);

  ExpectSameAnalyses(warm->AnalyzeQueries(), cold_edited);
  const uint64_t warm_steps = warm->counters().steps - primed;
  EXPECT_GT(warm_steps, 0u);       // module a really was re-searched
  EXPECT_LT(warm_steps, cold_steps);  // module b was not
  EXPECT_GT(warm->counters().cache_hits, 0u);

  // The rebuild grafted module b's node-table segment out of the cache
  // and only rebuilt the dirty component; the graft shows up in the
  // counters, as do the per-stage wall clocks `check --stats` reports.
  SafetyAnalyzer::Counters c = warm->counters();
  EXPECT_GT(c.segments_grafted, 0u);
  EXPECT_GT(c.stage_canonicalize_ns, 0u);
  EXPECT_GT(c.stage_fingerprint_ns, 0u);
  EXPECT_GT(c.stage_build_ns, 0u);
  EXPECT_GT(c.stage_search_ns, 0u);
  EXPECT_GT(cache.stats().segment_hits, 0u);
}

TEST(IncrementalTest, UpdateError_LeavesAnalyzerUsable) {
  Program base = Parse(TwoModules(false));
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto warm = SafetyAnalyzer::Create(base, opts);
  ASSERT_TRUE(warm.ok());
  std::vector<QueryAnalysis> before = warm->AnalyzeQueries();

  // A program that fails validation must not clobber the state; the
  // analyzer keeps answering for the old program.
  auto bad = ParseProgram("b(1).\nb(X) :- c(X).\n?- b(X).\n");
  if (bad.ok()) {
    auto up = warm->Update(*bad);
    if (!up.ok()) {
      ExpectSameAnalyses(warm->AnalyzeQueries(), before);
    }
  }
}

TEST(IncrementalTest, DiskTierServesAFreshProcess) {
  fs::path dir = fs::temp_directory_path() /
                 StrCat("hornsafe_incr_test_", ::getpid());
  fs::remove_all(dir);
  Program p = Parse(TwoModules(false));
  std::vector<QueryAnalysis> cold = ColdAnalyze(p);

  PipelineCache::Options copts;
  copts.dir = dir.string();
  {
    PipelineCache cache(copts);
    AnalyzerOptions opts;
    opts.cache = &cache;
    auto a = SafetyAnalyzer::Create(p, opts);
    ASSERT_TRUE(a.ok());
    a->AnalyzeQueries();
    EXPECT_GT(a->counters().steps, 0u);
  }
  // A brand-new cache instance on the same directory — stands in for a
  // second process — serves every derived search from disk.
  {
    PipelineCache cache(copts);
    AnalyzerOptions opts;
    opts.cache = &cache;
    auto a = SafetyAnalyzer::Create(p, opts);
    ASSERT_TRUE(a.ok());
    ExpectSameAnalyses(a->AnalyzeQueries(), cold);
    EXPECT_EQ(a->counters().steps, 0u);
    EXPECT_GT(cache.stats().disk_hits, 0u);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(IncrementalTest, UndecidedVerdictsAreCachedBitIdentically) {
  Program p = Parse(TwoModules(false));
  AnalyzerOptions opts;
  opts.subset_budget = 1;  // force kUndecided
  std::vector<QueryAnalysis> cold = ColdAnalyze(p, opts);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold[0].overall, Safety::kUndecided);

  PipelineCache cache;
  opts.cache = &cache;
  auto warm = SafetyAnalyzer::Create(p, opts);
  ASSERT_TRUE(warm.ok());
  ExpectSameAnalyses(warm->AnalyzeQueries(), cold);
  // Second run: served from cache, still byte-equal (including the
  // "budget exhausted after N steps" text).
  ExpectSameAnalyses(warm->AnalyzeQueries(), cold);
  EXPECT_GT(warm->counters().cache_hits, 0u);
}

TEST(IncrementalTest, UnsafeVerdictsAreRecomputedNotCached) {
  Program p = Parse(
      ".infinite f/2.\n.fd f: 2 -> 1.\n"
      "r(X) :- f(X,Y), r(Y).\n"
      "r(X) :- b(X).\n"
      "?- r(X).\n");
  std::vector<QueryAnalysis> cold = ColdAnalyze(p);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold[0].overall, Safety::kUnsafe);

  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto warm = SafetyAnalyzer::Create(p, opts);
  ASSERT_TRUE(warm.ok());
  ExpectSameAnalyses(warm->AnalyzeQueries(), cold);
  ExpectSameAnalyses(warm->AnalyzeQueries(), cold);
  // Unsafe searches never enter the verdict tier: their witness text
  // embeds global node ids that shift under edits (DESIGN.md, D12).
  EXPECT_EQ(cache.stats().verdict_insertions, 0u);
  EXPECT_EQ(warm->counters().cache_hits, 0u);
}

TEST(IncrementalTest, DifferentBudgetsDoNotShareEntries) {
  Program p = Parse(TwoModules(false));
  PipelineCache cache;

  AnalyzerOptions small;
  small.cache = &cache;
  small.subset_budget = 1;
  auto a1 = SafetyAnalyzer::Create(p, small);
  ASSERT_TRUE(a1.ok());
  std::vector<QueryAnalysis> undecided = a1->AnalyzeQueries();
  EXPECT_EQ(undecided[0].overall, Safety::kUndecided);

  // Same cache, default budget: the undecided entries must not leak in.
  AnalyzerOptions full;
  full.cache = &cache;
  auto a2 = SafetyAnalyzer::Create(p, full);
  ASSERT_TRUE(a2.ok());
  std::vector<QueryAnalysis> decided = a2->AnalyzeQueries();
  EXPECT_EQ(decided[0].overall, Safety::kSafe);
  ExpectSameAnalyses(decided, ColdAnalyze(p));
}

TEST(IncrementalTest, PermutedProgramSharesVerdicts) {
  // Clause order does not enter cone fingerprints, so a permuted copy
  // of the program is served from the same entries with identical
  // verdicts.
  Program p = Parse(StrCat(Module("a", 3, false), Module("b", 3, false)));
  Program q = Parse(StrCat(Module("b", 3, false), Module("a", 3, false)));
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto a1 = SafetyAnalyzer::Create(p, opts);
  ASSERT_TRUE(a1.ok());
  a1->AnalyzeQueries();
  auto a2 = SafetyAnalyzer::Create(q, opts);
  ASSERT_TRUE(a2.ok());
  std::vector<QueryAnalysis> warm = a2->AnalyzeQueries();
  EXPECT_GT(a2->counters().cache_hits, 0u);
  std::vector<QueryAnalysis> cold = ColdAnalyze(q);
  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].overall, cold[i].overall);
  }
}

}  // namespace
}  // namespace hornsafe
