// Pipeline fuzzing: randomly generated programs (including degenerate
// shapes) must flow through the entire analysis stack — parse,
// canonicalize, adorn, build, prune, decide, Section 5 checks — without
// crashing, and every verdict must be one of the three legal values
// within the configured budget.

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/finiteness.h"
#include "core/termination.h"
#include "parser/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

std::string RandomTerm(Rng* rng, int depth) {
  switch (rng->Below(depth > 0 ? 5 : 3)) {
    case 0:
      return StrCat("X", rng->Below(4));
    case 1:
      return std::to_string(rng->Range(-3, 3));
    case 2:
      return StrCat("atom", rng->Below(3));
    case 3:
      return StrCat("w(", RandomTerm(rng, depth - 1), ")");
    default:
      return StrCat("[", RandomTerm(rng, depth - 1), "|",
                    RandomTerm(rng, depth - 1), "]");
  }
}

std::string RandomLiteral(Rng* rng, int max_arity, int depth) {
  int arity = 1 + static_cast<int>(rng->Below(max_arity));
  std::string out = StrCat("p", rng->Below(4), "_", arity, "(");
  for (int i = 0; i < arity; ++i) {
    out += StrCat(i ? "," : "", RandomTerm(rng, depth));
  }
  out += ")";
  return out;
}

std::string RandomProgram(Rng* rng) {
  std::string text = ".infinite inf_2/2.\n";
  if (rng->Chance(1, 2)) text += ".fd inf_2: 2 -> 1.\n";
  if (rng->Chance(1, 3)) text += ".mono inf_2: 2 > 1.\n";
  int items = 2 + static_cast<int>(rng->Below(6));
  for (int i = 0; i < items; ++i) {
    switch (rng->Below(4)) {
      case 0: {  // fact (ground by construction: no variables)
        text += StrCat("f", rng->Below(3), "(", rng->Below(9), ", atom",
                       rng->Below(3), ").\n");
        break;
      }
      case 1: {  // plain rule
        text += StrCat(RandomLiteral(rng, 3, 2), " :- ",
                       RandomLiteral(rng, 3, 2), ".\n");
        break;
      }
      case 2: {  // rule through the infinite relation
        text += StrCat("r", rng->Below(3), "(X0) :- inf_2(X0, X1), ",
                       RandomLiteral(rng, 2, 1), ".\n");
        break;
      }
      default: {  // recursive rule
        int p = static_cast<int>(rng->Below(3));
        text += StrCat("r", p, "(X0) :- inf_2(X0, X1), r", p, "(X1).\n");
        break;
      }
    }
  }
  text += "?- r0(A).\n";
  return text;
}

class FuzzPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipelineTest, FullPipelineNeverCrashes) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    std::string text = RandomProgram(&rng);
    auto parsed = ParseProgram(text);
    if (!parsed.ok()) continue;  // generator may hit arity collisions

    AnalyzerOptions opts;
    opts.subset_budget = 200'000;
    auto analyzer = SafetyAnalyzer::Create(*parsed, opts);
    ASSERT_TRUE(analyzer.ok()) << text << "\n"
                               << analyzer.status().ToString();
    for (QueryAnalysis& q : analyzer->AnalyzeQueries()) {
      EXPECT_TRUE(q.overall == Safety::kSafe ||
                  q.overall == Safety::kUnsafe ||
                  q.overall == Safety::kUndecided);
      for (const ArgumentVerdict& a : q.args) {
        EXPECT_FALSE(a.explanation.empty()) << text;
      }
    }
    for (const Literal& q : analyzer->canonical().queries()) {
      IntermediateFinitenessResult fin = CheckFiniteIntermediateResults(
          analyzer->canonical(), analyzer->adorned(), analyzer->system(),
          q);
      TerminationResult term = CheckTermination(
          *analyzer, q, analyzer->AnalyzeQueryLiteral(q).overall, fin);
      // Termination implies finite intermediates implies... at least
      // consistency between the two:
      if (term.exists) {
        EXPECT_TRUE(fin.exists)
            << "terminating but not finite-intermediate?\n"
            << text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipelineTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace hornsafe
