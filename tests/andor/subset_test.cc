// Tests for the subset-condition decision procedure (Theorems 3 and 4),
// pinned against the worked examples of the paper.

#include "andor/subset.h"

#include <gtest/gtest.h>

#include "tests/andor/andor_test_util.h"

namespace hornsafe {
namespace {

TEST(SubsetTest, Example3UnguardedRecursionThroughInfiniteIsUnsafe) {
  // Example 3: r(X) :- t(X,Y), r(Y).  r(X) :- b(X).  t infinite, no FDs.
  TestPipeline pl = MakePipeline(R"(
    .infinite t/2.
    r(X) :- t(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, Example4FiniteGuardPlusFdIsSafe) {
  // Example 4: adding a finite guard a(Y) and the FD t2 -> t1 makes the
  // query safe.
  TestPipeline pl = MakePipeline(R"(
    .infinite t/2.
    .fd t: 2 -> 1.
    r(X) :- t(X,Y), r(Y), a(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kSafe);
}

TEST(SubsetTest, Example4WithoutGuardIsUnsafe) {
  // The paper notes Example 4 becomes unsafe if a(Y) is deleted: the FD
  // bounds each step but not the number of steps.
  TestPipeline pl = MakePipeline(R"(
    .infinite t/2.
    .fd t: 2 -> 1.
    r(X) :- t(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, Example4WithoutFdIsUnsafe) {
  // The guard alone is not enough either: without t2 -> t1 the variable
  // X is undetermined.
  TestPipeline pl = MakePipeline(R"(
    .infinite t/2.
    r(X) :- t(X,Y), r(Y), a(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, Example11UngroundedRecursionIsSafeWithPruning) {
  // Example 11: r(X) :- f(X,Y), r(Y) with FD f2 -> f1 and *no* base rule
  // for r. The relation for r is empty, so the query is safe — but only
  // Algorithm 3 makes the subset condition see that.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kSafe);
}

TEST(SubsetTest, Example11WithoutPruningLooksUnsafe) {
  // Ablation: skipping Algorithm 3 (and Algorithm 4) leaves the spurious
  // counterexample graph in place — the subset condition alone is only
  // sufficient (Theorem 3), not necessary.
  PipelineOptions popts;
  popts.apply_emptiness = false;
  popts.apply_reduce = false;
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y).
    ?- r(X).
  )",
                                 popts);
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, Example11PlusBaseRuleIsUnsafe) {
  // Once the recursion is grounded, the FD-driven generation is real and
  // the query is genuinely unsafe (Example 4 without the guard).
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, FiniteBasePredicateQueryIsSafe) {
  TestPipeline pl = MakePipeline(R"(
    r(X,Y) :- b(X,Y).
    ?- r(X,Y).
  )");
  EXPECT_EQ(pl.Check("r", 2, 0), Safety::kSafe);
  EXPECT_EQ(pl.Check("r", 2, 1), Safety::kSafe);
}

TEST(SubsetTest, DirectInfiniteProjectionIsUnsafe) {
  // r(X) :- f(X,Y): X ranges over an undetermined infinite column.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    r(X) :- f(X,Y).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, InfiniteColumnDeterminedByFiniteGuardIsSafe) {
  // r(X) :- f(X,Y), a(Y) with f2 -> f1: Y is finite, Y determines X.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), a(Y).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kSafe);
}

TEST(SubsetTest, WrongDirectionFdIsUnsafe) {
  // Same but the FD goes the wrong way: f1 -> f2 does not bound X.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 1 -> 2.
    r(X) :- f(X,Y), a(Y).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, RangeUnrestrictedHeadVariableIsUnsafe) {
  // r(X) :- b(Y): X is not bound by anything.
  TestPipeline pl = MakePipeline(R"(
    r(X) :- b(Y).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, MutualRecursionSafeWithGuards) {
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    p(X) :- f(X,Y), q(Y), a(Y).
    q(X) :- f(X,Y), p(Y), a(Y).
    q(X) :- b(X).
    ?- p(X).
  )");
  EXPECT_EQ(pl.Check("p", 1, 0), Safety::kSafe);
}

TEST(SubsetTest, MutualRecursionUnsafeWithoutGuards) {
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    p(X) :- f(X,Y), q(Y).
    q(X) :- f(X,Y), p(Y).
    q(X) :- b(X).
    ?- p(X).
  )");
  EXPECT_EQ(pl.Check("p", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, OneUnsafeRuleSpoilsASafePredicate) {
  // Section 1 of the paper: "if r were defined by all the rules in the
  // previous two examples, the rules in the first example would make r
  // unsafe despite the fact that the rules in the second example are, in
  // themselves, safe."
  TestPipeline pl = MakePipeline(R"(
    .infinite t/2.
    .fd t: 2 -> 1.
    r(X) :- t(X,Y), r(Y).
    r(X) :- t(X,Y), r(Y), a(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kUnsafe);
}

TEST(SubsetTest, WitnessGraphIsReturnedForUnsafe) {
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    r(X) :- f(X,Y).
    ?- r(X).
  )");
  SubsetResult res =
      CheckSubsetCondition(pl.system, pl.QueryRoot("r", 1, 0), {});
  ASSERT_EQ(res.verdict, Safety::kUnsafe);
  ASSERT_TRUE(res.witness.has_value());
  EXPECT_FALSE(res.witness->chosen.empty());
  std::string desc = res.witness->Describe(pl.system, pl.program);
  EXPECT_NE(desc.find("AND-graph"), std::string::npos);
  EXPECT_NE(desc.find("r^f.1"), std::string::npos);
}

TEST(SubsetTest, WitnessGraphExportsToDot) {
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  SubsetResult res =
      CheckSubsetCondition(pl.system, pl.QueryRoot("r", 1, 0), {});
  ASSERT_EQ(res.verdict, Safety::kUnsafe);
  ASSERT_TRUE(res.witness.has_value());
  std::string dot = res.witness->ToDot(pl.system, pl.program);
  EXPECT_NE(dot.find("digraph and_graph {"), std::string::npos);
  // The root head-argument node is boxed and doubled.
  EXPECT_NE(dot.find("\"r^f.1\" [shape=box,peripheries=2];"),
            std::string::npos)
      << dot;
  // f-nodes are diamonds, forward edges dashed.
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(SubsetTest, TinyBudgetYieldsUndecided) {
  // A program where a counted cycle is possible (p recurses through a
  // derived occurrence), so even the SCC-pruned search must enumerate;
  // a one-step budget cannot finish.
  TestPipeline pl = MakePipeline(R"(
    .infinite t/2.
    .fd t: 2 -> 1.
    .infinite t2/2.
    p(X) :- p(X), t(X,Y).
    p(X) :- t2(X,Z).
    ?- p(X).
  )");
  SubsetOptions opts;
  opts.budget = 1;
  SubsetResult res =
      CheckSubsetCondition(pl.system, pl.QueryRoot("p", 1, 0), opts);
  EXPECT_EQ(res.verdict, Safety::kUndecided);

  // At full budget the cycle-free t2 branch is a genuine counterexample.
  SubsetResult full =
      CheckSubsetCondition(pl.system, pl.QueryRoot("p", 1, 0), {});
  ASSERT_EQ(full.verdict, Safety::kUnsafe);
  ASSERT_TRUE(full.witness.has_value());
  EXPECT_TRUE(IsCounterexampleGraph(pl.system, *full.witness));

  // Example 3 through the plain joint search (short-circuits disabled)
  // exercises the same budget-exhaustion path in the other mode.
  TestPipeline ex3 = MakePipeline(R"(
    .infinite t/2.
    r(X) :- t(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  SubsetOptions joint;
  joint.budget = 1;
  joint.use_scc = false;
  joint.use_memo = false;
  SubsetResult jres =
      CheckSubsetCondition(ex3.system, ex3.QueryRoot("r", 1, 0), joint);
  EXPECT_EQ(jres.verdict, Safety::kUndecided);
}

TEST(SubsetTest, BoundArgumentPositionIsSafe) {
  // Under adornment "b" the argument is given by the caller.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/1.
    r(X) :- f(X).
  )");
  PredicateId r = pl.program.FindPredicate("r", 1);
  NodeId bound_root = pl.system.FindHeadArg(r, /*adornment_mask=*/1, 0);
  ASSERT_NE(bound_root, kInvalidNode);
  EXPECT_EQ(CheckSubsetCondition(pl.system, bound_root, {}).verdict,
            Safety::kSafe);
  // Under "f" it ranges over the infinite relation.
  NodeId free_root = pl.system.FindHeadArg(r, 0, 0);
  EXPECT_EQ(CheckSubsetCondition(pl.system, free_root, {}).verdict,
            Safety::kUnsafe);
}

TEST(SubsetTest, EscapeHookCanAcceptEveryGraph) {
  // With an escape hook that accepts all candidate graphs, everything is
  // declared safe (this is the entry point used by the Theorem 5
  // monotonicity analysis).
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    r(X) :- f(X,Y).
    ?- r(X).
  )");
  SubsetOptions opts;
  int calls = 0;
  opts.escape = [&](const ChosenGraph&) {
    ++calls;
    return true;
  };
  SubsetResult res =
      CheckSubsetCondition(pl.system, pl.QueryRoot("r", 1, 0), opts);
  EXPECT_EQ(res.verdict, Safety::kSafe);
  EXPECT_GT(calls, 0);
}

TEST(SubsetTest, SinkPositionOfSafeRecursionIsAlsoSafe) {
  // ancestor-like: both positions flow from finite base data.
  TestPipeline pl = MakePipeline(R"(
    anc(X,Y) :- anc(X,Z), par(Z,Y).
    anc(X,Y) :- par(X,Y).
    ?- anc(X,Y).
  )");
  EXPECT_EQ(pl.Check("anc", 2, 0), Safety::kSafe);
  EXPECT_EQ(pl.Check("anc", 2, 1), Safety::kSafe);
}

}  // namespace
}  // namespace hornsafe
