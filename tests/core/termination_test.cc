// Reproduces the *termination* column of Section 5's Example 15 case
// analysis, completing the safety / finite-intermediate / termination
// trio. Implementation notes: DESIGN.md, D10.

#include "core/termination.h"

#include <gtest/gtest.h>

#include "parser/parser.h"

namespace hornsafe {
namespace {

TerminationResult Check(const char* text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto a = SafetyAnalyzer::Create(*parsed);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->canonical().queries().size(), 1u);
  const Literal& q = a->canonical().queries()[0];
  return CheckTermination(
      *a, q, a->AnalyzeQueryLiteral(q).overall,
      CheckFiniteIntermediateResults(a->canonical(), a->adorned(),
                                     a->system(), q));
}

TEST(TerminationTest, UnsafeQueryNeverTerminates) {
  // Example 15, free query, no FDs: "There is no terminating
  // computation using either definition of termination."
  TerminationResult t = Check(R"(
    .infinite f/2.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_FALSE(t.exists);
  ASSERT_FALSE(t.reasons.empty());
  EXPECT_NE(t.reasons[0].find("unsafe"), std::string::npos);
}

TEST(TerminationTest, UnsafeEvenWithFd) {
  // Free query with f2 -> f1: still unsafe, hence no termination —
  // even though finite intermediate relations exist.
  TerminationResult t = Check(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_FALSE(t.exists);
}

TEST(TerminationTest, BoundQueryNoFdsFailsOnIntermediates) {
  // r(5) with no FDs: safe, but "there is no computation which
  // terminates ... or has finite intermediate relations."
  TerminationResult t = Check(R"(
    .infinite f/2.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(5).
  )");
  EXPECT_FALSE(t.exists);
  ASSERT_FALSE(t.reasons.empty());
  EXPECT_NE(t.reasons[0].find("intermediate"), std::string::npos);
}

TEST(TerminationTest, BoundQueryFdOnlyNotGuaranteed) {
  // r(5) with f2 -> f1 only: a computation with finite intermediate
  // relations establishes r(5) if true, but "is not guaranteed to
  // terminate in the event that r(5) is not true."
  TerminationResult t = Check(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(5).
  )");
  EXPECT_FALSE(t.exists);
  ASSERT_FALSE(t.reasons.empty());
  EXPECT_NE(t.reasons[0].find("convergent"), std::string::npos);
}

TEST(TerminationTest, BoundQueryFdPlusMonotonicityTerminates) {
  // "If the constraint f2 -> f1 holds, and in addition we have f2 > f1
  // or f2 < f1, then we can also guarantee the existence of a
  // terminating computation."
  TerminationResult greater = Check(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    .mono f: 2 > 1.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(5).
  )");
  EXPECT_TRUE(greater.exists) << (greater.reasons.empty()
                                      ? ""
                                      : greater.reasons[0]);
  TerminationResult less = Check(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    .mono f: 2 < 1.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(5).
  )");
  EXPECT_TRUE(less.exists) << (less.reasons.empty() ? "" : less.reasons[0]);
}

TEST(TerminationTest, GuardedRecursionTerminates) {
  // Example 4: the recursion's value space is finite (guard + FD), so
  // the fixpoint is reached in finitely many steps.
  TerminationResult t = Check(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y), a(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_TRUE(t.exists) << (t.reasons.empty() ? "" : t.reasons[0]);
}

TEST(TerminationTest, NonRecursiveSafeQueryTerminates) {
  TerminationResult t = Check(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), a(Y).
    ?- r(X).
  )");
  EXPECT_TRUE(t.exists);
}

TEST(TerminationTest, FiniteBaseQueryTerminates) {
  TerminationResult t = Check(R"(
    b(1). b(2).
    ?- b(X).
  )");
  EXPECT_TRUE(t.exists);
}

TEST(TerminationTest, Example14NeverTerminates) {
  TerminationResult t = Check(R"(
    .infinite f/1.
    r(X) :- f(X).
    ?- r(X).
  )");
  EXPECT_FALSE(t.exists);
}

TEST(TerminationTest, BoundAncestorLevelTerminates) {
  // ancestor(sem, Y, 2): the level counter decreases from the bound
  // target through the successor monotonicity, so the search can stop.
  TerminationResult t = Check(R"(
    .infinite successor/2.
    .fd successor: 1 -> 2.
    .fd successor: 2 -> 1.
    .mono successor: 2 > 1.
    parent(sem, abel).
    ancestor(X,Y,1) :- parent(X,Y).
    ancestor(X,Y,J) :- parent(X,Z), ancestor(Z,Y,I), successor(I,J).
    ?- ancestor(sem, Y, 2).
  )");
  EXPECT_TRUE(t.exists) << (t.reasons.empty() ? "" : t.reasons[0]);
}

TEST(TerminationTest, PlainTransitiveClosureTerminates) {
  TerminationResult t = Check(R"(
    e(1,2). e(2,3).
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- e(X,Z), tc(Z,Y).
    ?- tc(X,Y).
  )");
  EXPECT_TRUE(t.exists) << (t.reasons.empty() ? "" : t.reasons[0]);
}

TEST(TerminationTest, Example13TerminatesWithMonotonicity) {
  TerminationResult t = Check(R"(
    .infinite f/2.
    .infinite g/2.
    .fd f: 2 -> 1.
    .fd g: 2 -> 1.
    .mono f: 2 > 1.
    .mono g: 2 > 1.
    .mono f: 1 > const(0).
    .mono g: 1 > const(0).
    r(X,U) :- f(X,Y), g(U,V), r(Y,V).
    r(X,U) :- b(X,U).
    ?- r(X,U).
  )");
  EXPECT_TRUE(t.exists) << (t.reasons.empty() ? "" : t.reasons[0]);
}

}  // namespace
}  // namespace hornsafe
