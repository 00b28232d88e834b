// Performance-shape guarantees, asserted as invariants on the search
// counters rather than wall-clock (robust on any machine):
//
//   G1. Safe guarded chains are decided by the capability pre-pass with
//       zero DFS steps, at any depth.
//   G2. On unsafe cyclic chains the condensation short-circuit decides
//       with zero DFS steps; with it disabled, the joint DFS still
//       finds the counterexample along one branch (linear steps).
//   G3. The deduplicated And-Or system for a chain grows linearly.

#include <gtest/gtest.h>

#include "tests/andor/andor_test_util.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

std::string UnsafeCycleText(int depth) {
  std::string text = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    text += StrCat("r", i, "(X) :- f(X,Y), r", i + 1, "(Y).\n");
  }
  text += StrCat("r", depth, "(X) :- f(X,Y), r0(Y).\n");
  text += StrCat("r", depth, "(X) :- base(X).\n?- r0(X).\n");
  return text;
}

TEST(GuaranteesTest, SafeChainsDecideWithoutSearch) {
  for (int depth : {2, 8, 32}) {
    TestPipeline pl = MakePipeline(GuardedChainText(depth));
    SubsetResult res =
        CheckSubsetCondition(pl.system, pl.QueryRoot("r0", 1, 0), {});
    EXPECT_EQ(res.verdict, Safety::kSafe) << depth;
    EXPECT_EQ(res.steps, 0u)
        << "capability pruning regressed at depth " << depth;
  }
}

TEST(GuaranteesTest, UnsafeCycleStepsGrowLinearly) {
  // Joint-search envelope, with the condensation short-circuit off.
  uint64_t prev_steps = 0;
  for (int depth : {4, 8, 16, 32}) {
    TestPipeline pl = MakePipeline(UnsafeCycleText(depth));
    SubsetOptions opts;
    opts.use_scc = false;
    opts.use_memo = false;
    SubsetResult res =
        CheckSubsetCondition(pl.system, pl.QueryRoot("r0", 1, 0), opts);
    ASSERT_EQ(res.verdict, Safety::kUnsafe) << depth;
    // Generous linear envelope: ~10 DFS steps per chain element.
    EXPECT_LE(res.steps, static_cast<uint64_t>(10 * depth + 20)) << depth;
    EXPECT_GT(res.steps, prev_steps) << depth;
    prev_steps = res.steps;
  }
}

TEST(GuaranteesTest, UnsafeCycleShortCircuitsWithoutSearch) {
  // The chain recurses only through f-nodes, so no f-free forward
  // cycle is possible anywhere: the condensation decides unsafety with
  // zero DFS steps at any depth, and the greedy witness is valid.
  for (int depth : {4, 32}) {
    TestPipeline pl = MakePipeline(UnsafeCycleText(depth));
    SubsetResult res =
        CheckSubsetCondition(pl.system, pl.QueryRoot("r0", 1, 0), {});
    ASSERT_EQ(res.verdict, Safety::kUnsafe) << depth;
    EXPECT_EQ(res.steps, 0u) << depth;
    EXPECT_EQ(res.scc_short_circuits, 1u) << depth;
    ASSERT_TRUE(res.witness.has_value());
    EXPECT_TRUE(IsCounterexampleGraph(pl.system, *res.witness)) << depth;
  }
}

TEST(GuaranteesTest, SystemSizeGrowsLinearlyWithChainDepth) {
  TestPipeline small = MakePipeline(GuardedChainText(8));
  TestPipeline large = MakePipeline(GuardedChainText(32));
  // 4x the rules should cost ~4x the nodes, give or take constants.
  EXPECT_LT(large.system.nodes().size(),
            5 * small.system.nodes().size());
  EXPECT_LT(large.system.NumLiveRules(),
            5 * small.system.NumLiveRules());
}

TEST(GuaranteesTest, WitnessGraphIsSmallOnDeepChains) {
  // The counterexample graph should only contain the cycle and its
  // entourage, not the whole chain squared.
  TestPipeline pl = MakePipeline(UnsafeCycleText(24));
  SubsetResult res =
      CheckSubsetCondition(pl.system, pl.QueryRoot("r0", 1, 0), {});
  ASSERT_EQ(res.verdict, Safety::kUnsafe);
  ASSERT_TRUE(res.witness.has_value());
  EXPECT_LE(res.witness->chosen.size(), 24u * 10u);
}

}  // namespace
}  // namespace hornsafe
