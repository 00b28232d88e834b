// Step identity of the escape-mode subset searches. With a Theorem 5
// escape installed (any program with monotonicity constraints, the
// constructor ones of canonicalization included) the memo and SCC
// short-circuits are off and every position runs the joint DFS over rule
// choices, checking each candidate graph against the escape. For the
// paper examples that search this way, the verdict, the DFS step count,
// the number of complete graphs checked and the explanation are pinned
// per argument position: a change to the DFS order, the per-choice
// cycle check or the escape shows up here as a changed count or
// witness, even when every verdict still agrees.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "eval/builtins.h"
#include "parser/parser.h"

namespace hornsafe {
namespace {

struct PinnedPosition {
  uint32_t position;
  Safety safety;
  uint64_t steps;
  uint64_t graphs_checked;
  const char* explanation;
};

struct PinnedCase {
  const char* name;
  const char* text;
  std::vector<PinnedPosition> positions;
};

// For test-name readability.
std::ostream& operator<<(std::ostream& os, const PinnedCase& c) {
  return os << c.name;
}

const PinnedCase kPinnedCases[] = {
    // Example 1 with the level counter free: unsafe, through the
    // escape because the registered successor builtin carries
    // `successor: 2 > 1`.
    {"Example1_FreeCounter",
     R"(.infinite successor/2.
       .fd successor: 1 -> 2.
       .fd successor: 2 -> 1.
       parent(sem, abel).
       ancestor(X, Y, 1) :- parent(X, Y).
       ancestor(X, Y, J) :- parent(X, Z), ancestor(Z, Y, I), successor(I, J).
       ?- ancestor(sem, Y, J).)",
     {
      {0, Safety::kSafe, 81, 0,
       R"(every AND-graph satisfies the subset condition (0 graphs checked))"},
      {1, Safety::kUnsafe, 2061, 1,
       R"(AND-graph rooted at q^ff.2:
  ancestor^fff.3 <- J@8
  ancestor^bff.3 <- J@9
  ancestor^fbf.3 <- J@10
  ancestor^bbf.3 <- J@11
  J@8 <- successor#18.2
  successor#18.2 <- successor#18.2~fd0
  I@8 <- ancestor#17.3, successor#18.1
  ancestor#17.3 <- ancestor#17^fff.3, ancestor#17^bff.3, ancestor#17^fbf.3, ancestor#17^bbf.3
  successor#18.1 <- successor#18.1~fd0
  ancestor#17^fff.3 <- ancestor^fff.3
  ancestor#17^bff.3 <- ancestor^bff.3
  ancestor#17^fbf.3 <- ancestor^fbf.3
  ancestor#17^bbf.3 <- ancestor^bbf.3
  successor#18.1~fd0 <- J@8
  successor#18.2~fd0 <- I@8
  J@9 <- successor#21.2
  successor#21.2 <- successor#21.2~fd0
  I@9 <- ancestor#20.3, successor#21.1
  ancestor#20.3 <- ancestor#20^fff.3, ancestor#20^bff.3, ancestor#20^fbf.3, ancestor#20^bbf.3
  successor#21.1 <- successor#21.1~fd0
  ancestor#20^fff.3 <- ancestor^fff.3
  ancestor#20^bff.3 <- ancestor^bff.3
  ancestor#20^fbf.3 <- ancestor^fbf.3
  ancestor#20^bbf.3 <- ancestor^bbf.3
  successor#21.1~fd0 <- J@9
  successor#21.2~fd0 <- I@9
  J@10 <- successor#24.2
  successor#24.2 <- successor#24.2~fd0
  I@10 <- ancestor#23.3, successor#24.1
  ancestor#23.3 <- ancestor#23^fff.3, ancestor#23^bff.3, ancestor#23^fbf.3, ancestor#23^bbf.3
  successor#24.1 <- successor#24.1~fd0
  ancestor#23^fff.3 <- ancestor^fff.3
  ancestor#23^bff.3 <- ancestor^bff.3
  ancestor#23^fbf.3 <- ancestor^fbf.3
  ancestor#23^bbf.3 <- ancestor^bbf.3
  successor#24.1~fd0 <- J@10
  successor#24.2~fd0 <- I@10
  J@11 <- successor#27.2
  successor#27.2 <- successor#27.2~fd0
  I@11 <- ancestor#26.3, successor#27.1
  ancestor#26.3 <- ancestor#26^fff.3, ancestor#26^bff.3, ancestor#26^fbf.3, ancestor#26^bbf.3
  successor#27.1 <- successor#27.1~fd0
  ancestor#26^fff.3 <- ancestor^fff.3
  ancestor#26^bff.3 <- ancestor^bff.3
  ancestor#26^fbf.3 <- ancestor^fbf.3
  ancestor#26^bbf.3 <- ancestor^bbf.3
  successor#27.1~fd0 <- J@11
  successor#27.2~fd0 <- I@11
  q^ff.2 <- J@16
  J@16 <- ancestor#40.3
  ancestor#40.3 <- ancestor#40^fff.3, ancestor#40^bff.3, ancestor#40^fbf.3, ancestor#40^bbf.3
  ancestor#40^fff.3 <- ancestor^fff.3
  ancestor#40^bff.3 <- ancestor^bff.3
  ancestor#40^fbf.3 <- ancestor^fbf.3
  ancestor#40^bbf.3 <- ancestor^bbf.3
)"},
     }},
    // Example 7 with the result bound: safe through constructor FDs and
    // Theorem 5; the costliest escape-mode search of the paper.
    {"Example7_ConcatBoundResult",
     R"(concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
       concat([], Z, Z).
       ?- concat(A, B, [1,2,3]).)",
     {
      {0, Safety::kSafe, 7280, 0,
       R"(every AND-graph satisfies the subset condition (0 graphs checked))"},
      {1, Safety::kSafe, 287, 0,
       R"(every AND-graph satisfies the subset condition (0 graphs checked))"},
     }},
    // Example 7 with every argument free: unsafe.
    {"Example7_ConcatAllFree",
     R"(concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
       concat([], Z, Z).
       ?- concat(A, B, C).)",
     {
      {0, Safety::kUnsafe, 13, 1,
       R"(AND-graph rooted at concat^fff.1:
  concat^fff.1 <- V@0
  V@0 <- fn_cons_2#1.3
  V$1@0 <- fn_cons_2#2.3
  fn_cons_2#1.3 <- fn_cons_2#1.3~fd0
  fn_cons_2#2.3 <- fn_cons_2#2.3~fd0
  X@0 <- fn_cons_2#1.1, fn_cons_2#2.1
  fn_cons_2#1.1 <- fn_cons_2#1.1~fd0
  fn_cons_2#2.1 <- fn_cons_2#2.1~fd0
  fn_cons_2#1.1~fd0 <- V@0
  fn_cons_2#1.3~fd0 <- X@0
  fn_cons_2#2.1~fd0 <- V$1@0
  fn_cons_2#2.3~fd0 <- X@0
)"},
      {1, Safety::kUnsafe, 6, 1,
       R"(AND-graph rooted at concat^fff.2:
  concat^fff.2 <- Z@8
  Z@8 <- 1
)"},
      {2, Safety::kUnsafe, 13, 1,
       R"(AND-graph rooted at concat^fff.3:
  V@0 <- fn_cons_2#1.3
  concat^fff.3 <- V$1@0
  V$1@0 <- fn_cons_2#2.3
  fn_cons_2#1.3 <- fn_cons_2#1.3~fd0
  fn_cons_2#2.3 <- fn_cons_2#2.3~fd0
  X@0 <- fn_cons_2#1.1, fn_cons_2#2.1
  fn_cons_2#1.1 <- fn_cons_2#1.1~fd0
  fn_cons_2#2.1 <- fn_cons_2#2.1~fd0
  fn_cons_2#1.1~fd0 <- V@0
  fn_cons_2#1.3~fd0 <- X@0
  fn_cons_2#2.1~fd0 <- V$1@0
  fn_cons_2#2.3~fd0 <- X@0
)"},
     }},
    // Example 13: safe only through monotonicity (decreasing and
    // bounded below).
    {"Example13_MonotoneBounded",
     R"(.infinite f/2.
       .infinite g/2.
       .fd f: 2 -> 1.
       .fd g: 2 -> 1.
       .mono f: 2 > 1.
       .mono g: 2 > 1.
       .mono f: 1 > const(0).
       .mono g: 1 > const(0).
       r(X, U) :- f(X, Y), g(U, V), r(Y, V).
       r(X, U) :- b(X, U).
       ?- r(X, U).)",
     {
      {0, Safety::kSafe, 8, 0,
       R"(every AND-graph satisfies the subset condition (0 graphs checked))"},
      {1, Safety::kSafe, 8, 0,
       R"(every AND-graph satisfies the subset condition (0 graphs checked))"},
     }},
};

class EscapeSearchTest : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(EscapeSearchTest, PinnedStepsAndExplanations) {
  const PinnedCase& c = GetParam();
  auto program = ParseProgram(c.text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // As the CLI does: referenced builtins bring their constraints.
  BuiltinRegistry referenced;
  ASSERT_TRUE(RegisterReferencedStandardBuiltins(&*program, &referenced).ok());
  AnalyzerOptions opts;
  opts.jobs = 1;
  auto analyzer = SafetyAnalyzer::Create(*program, opts);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  ASSERT_NE(analyzer->snapshot()->mono, nullptr)
      << "no Theorem 5 escape: the case no longer searches in escape mode";
  std::vector<QueryAnalysis> queries = analyzer->AnalyzeQueries();
  ASSERT_EQ(queries.size(), 1u);
  const std::vector<ArgumentVerdict>& args = queries[0].args;
  ASSERT_EQ(args.size(), c.positions.size());
  for (size_t k = 0; k < args.size(); ++k) {
    const PinnedPosition& want = c.positions[k];
    SCOPED_TRACE(testing::Message() << "position " << want.position);
    EXPECT_EQ(args[k].position, want.position);
    EXPECT_EQ(args[k].safety, want.safety);
    EXPECT_EQ(args[k].steps, want.steps);
    EXPECT_EQ(args[k].graphs_checked, want.graphs_checked);
    EXPECT_EQ(args[k].explanation, want.explanation);
  }
  SafetyAnalyzer::Counters counters = analyzer->counters();
  EXPECT_EQ(counters.memo_hits + counters.memo_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperExamples, EscapeSearchTest, ::testing::ValuesIn(kPinnedCases),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hornsafe
