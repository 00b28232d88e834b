// Randomised sweeps over the warm build path (DESIGN.md, D12 and D15):
// after any chain of single-cone edits, an analyzer that grafts cached
// node-table segments and reuses adornment sets and FD indexes in its
// build must produce a system *isomorphic* to a from-scratch build of
// the same program — same rendered system, and bit-identical verdicts,
// explanations and step counts for every query. A second battery runs
// concurrent Update() against pinned-snapshot checks under a shared
// cache (the TSan job runs this binary).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "parser/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

Program MustParse(const std::string& text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << text;
  return std::move(r).value();
}

/// A multi-module workload where every module is a diamond ring (the
/// bench_incremental family) whose grounding clause comes in several
/// structurally different variants. Bumping one module's variant is a
/// single-cone edit: that module's ring re-fingerprints, every other
/// module stays clean and must be grafted.
struct Workload {
  int modules;
  int ring;
  std::vector<int> variant;

  Workload(int m, int r) : modules(m), ring(r), variant(m, 0) {}

  std::string Render() const {
    std::string t;
    for (int mi = 0; mi < modules; ++mi) {
      std::string s = StrCat("m", mi);
      t += StrCat(".infinite f", s, "/2.\n.fd f", s, ": 2 -> 1.\n");
      t += StrCat(".infinite t2", s, "/2.\n");
      for (int i = 0; i < ring; ++i) {
        t += StrCat("b", i, s, "(X) :- d", i, s, "(X), b", (i + 1) % ring,
                    s, "(X).\n");
        t += StrCat("d", i, s, "(X) :- f", s, "(X,Y), e", i, s, "(Y).\n");
        t += StrCat("e", i, s, "(X) :- t2", s, "(X,Z).\n");
      }
      switch (variant[mi] % 4) {
        case 0:
          t += StrCat("b0", s, "(X) :- c", s, "(X).\n");
          break;
        case 1:
          t += StrCat("b0", s, "(X) :- c", s, "(X), extra", s, "(X).\n");
          break;
        case 2:
          // FD-determined head: X flows backwards through the fd.
          t += StrCat("b0", s, "(X) :- f", s, "(X,Y), c", s, "(Y).\n");
          break;
        case 3:
          // Ground a different ring member; b0's own grounding is gone.
          t += StrCat("b1", s, "(X) :- c", s, "(X).\n");
          break;
      }
      for (int i = 0; i < ring; ++i) {
        t += StrCat("?- b", i, s, "(X).\n");
        t += StrCat("?- d", i, s, "(X).\n");
      }
    }
    return t;
  }
};

void ExpectSameAnalyses(const std::vector<QueryAnalysis>& warm,
                        const std::vector<QueryAnalysis>& cold,
                        const std::string& text) {
  ASSERT_EQ(warm.size(), cold.size()) << text;
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].overall, cold[i].overall) << "query " << i;
    ASSERT_EQ(warm[i].args.size(), cold[i].args.size()) << "query " << i;
    for (size_t k = 0; k < warm[i].args.size(); ++k) {
      const ArgumentVerdict& w = warm[i].args[k];
      const ArgumentVerdict& c = cold[i].args[k];
      EXPECT_EQ(w.safety, c.safety) << "query " << i << " arg " << k;
      EXPECT_EQ(w.explanation, c.explanation)
          << "query " << i << " arg " << k << " in:\n" << text;
      EXPECT_EQ(w.steps, c.steps) << "query " << i << " arg " << k;
      EXPECT_EQ(w.graphs_checked, c.graphs_checked)
          << "query " << i << " arg " << k;
    }
  }
}

class FragmentSplicePropertyTest : public ::testing::TestWithParam<uint64_t> {
};

// P1. Warm isomorphism: across a random chain of single-cone edits,
// the warm system renders identically to a from-scratch build, and
// every query's verdict/explanation/steps are bit-identical.
TEST_P(FragmentSplicePropertyTest, SplicedSystemIsomorphicToFresh) {
  Rng rng(GetParam());
  Workload w(2 + static_cast<int>(rng.Below(2)), 3);

  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto warm = SafetyAnalyzer::Create(MustParse(w.Render()), opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  warm->AnalyzeQueries();  // prime the segment tier

  for (int edit = 0; edit < 4; ++edit) {
    w.variant[rng.Below(w.modules)]++;
    std::string text = w.Render();
    Program next = MustParse(text);

    uint64_t grafted_before = warm->counters().segments_grafted;
    auto up = warm->Update(next);
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    // A single-cone edit leaves every other module clean: its node-table
    // segment must be grafted wholesale, never re-interned or rejected
    // by validation.
    EXPECT_GT(warm->counters().segments_grafted, grafted_before)
        << "edit " << edit << " grafted nothing in:\n" << text;
    EXPECT_EQ(warm->counters().segment_grafts_rejected, 0u)
        << "edit " << edit << " in:\n" << text;
    EXPECT_GT(up->clean_predicates, 0u);

    auto cold = SafetyAnalyzer::Create(MustParse(text));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(warm->system().ToString(warm->canonical()),
              cold->system().ToString(cold->canonical()))
        << "warm system diverged after edit " << edit << " in:\n"
        << text;
    ExpectSameAnalyses(warm->AnalyzeQueries(), cold->AnalyzeQueries(),
                       text);
  }
}

// P2. Concurrent Update() + pinned-snapshot checks with segment reuse:
// readers pin a snapshot and keep answering from it (bit-stable) while
// a writer swaps edited programs underneath through the shared cache.
TEST_P(FragmentSplicePropertyTest, ConcurrentUpdatesWithPinnedChecks) {
  Workload w(2, 3);
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto analyzer = SafetyAnalyzer::Create(MustParse(w.Render()), opts);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  analyzer->AnalyzeQueries();  // prime

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const AnalysisSnapshot> snap = analyzer->snapshot();
        // Every grounding variant keeps some ring member grounded, so
        // b2m0 is safe under all of them: its verdict must be stable on
        // any pinned snapshot, mid-swap or not.
        PredicateId d = snap->canon->program.FindPredicate("b2m0", 1);
        ASSERT_NE(d, kInvalidPredicate);
        QueryAnalysis qa = analyzer->AnalyzePredicate(*snap, d, 0, {});
        EXPECT_EQ(qa.overall, Safety::kSafe);
      }
    });
  }

  Rng rng(GetParam() ^ 0xf5a97ce5eedULL);
  for (int edit = 0; edit < 12; ++edit) {
    w.variant[rng.Below(w.modules)]++;
    auto up = analyzer->Update(MustParse(w.Render()));
    ASSERT_TRUE(up.ok()) << up.status().ToString();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // The swaps really did reuse the shared segment tier: clean modules'
  // node-table spans were grafted from segments shared with the
  // snapshots the readers were pinning.
  EXPECT_GT(analyzer->counters().segments_grafted, 0u);
  EXPECT_GT(cache.stats().segment_hits, 0u);
}

// P3. Retired snapshots co-own their segments: a snapshot pinned before
// a burst of edits keeps rendering and answering bit-identically while
// later builds graft (and the cache churns) the very segments it
// shares.
TEST_P(FragmentSplicePropertyTest, PinnedSnapshotStableAcrossSegmentChurn) {
  Rng rng(GetParam() ^ 0x9d2c5680ULL);
  Workload w(3, 3);
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  auto analyzer = SafetyAnalyzer::Create(MustParse(w.Render()), opts);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();

  std::shared_ptr<const AnalysisSnapshot> pinned = analyzer->snapshot();
  const std::string pinned_render =
      pinned->system.ToString(pinned->canon->program);
  PredicateId b2m0 = pinned->canon->program.FindPredicate("b2m0", 1);
  ASSERT_NE(b2m0, kInvalidPredicate);
  QueryAnalysis before = analyzer->AnalyzePredicate(*pinned, b2m0, 0, {});

  for (int edit = 0; edit < 8; ++edit) {
    w.variant[rng.Below(w.modules)]++;
    auto up = analyzer->Update(MustParse(w.Render()));
    ASSERT_TRUE(up.ok()) << up.status().ToString();
  }
  EXPECT_GT(analyzer->counters().segments_grafted, 0u);

  // The retired snapshot is untouched by the churn: same rendering,
  // same verdict, same step count.
  EXPECT_EQ(pinned->system.ToString(pinned->canon->program),
            pinned_render);
  QueryAnalysis after = analyzer->AnalyzePredicate(*pinned, b2m0, 0, {});
  EXPECT_EQ(after.overall, before.overall);
  ASSERT_EQ(after.args.size(), before.args.size());
  for (size_t k = 0; k < after.args.size(); ++k) {
    EXPECT_EQ(after.args[k].safety, before.args[k].safety);
    EXPECT_EQ(after.args[k].explanation, before.args[k].explanation);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentSplicePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace hornsafe
