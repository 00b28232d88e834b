#include "lang/struct_hash.h"

#include <gtest/gtest.h>

#include "lang/fingerprint.h"
#include "parser/parser.h"

namespace hornsafe {
namespace {

Program Parse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

PredicateId Find(const Program& p, const char* name, uint32_t arity) {
  PredicateId id = p.FindPredicate(name, arity);
  EXPECT_NE(id, kInvalidPredicate) << name << "/" << arity;
  return id;
}

// --- alpha-invariance ------------------------------------------------------

TEST(StructHashTest, AlphaRenamedProgramsHashEqual) {
  Program a = Parse(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y), g(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  Program b = Parse(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(Alpha) :- f(Alpha,Beta), r(Beta), g(Beta).
    r(Q) :- b(Q).
    ?- r(Zed).
  )");
  EXPECT_EQ(StructuralProgramHash(a), StructuralProgramHash(b));
  EXPECT_EQ(StructuralPredicateHash(a, Find(a, "r", 1)),
            StructuralPredicateHash(b, Find(b, "r", 1)));
}

TEST(StructHashTest, VariableIdentityPatternMatters) {
  // r(X) :- f(X,X) vs r(X) :- f(X,Y): same predicates, different
  // variable sharing — must hash differently.
  Program a = Parse(".infinite f/2.\nr(X) :- f(X,X).\n");
  Program b = Parse(".infinite f/2.\nr(X) :- f(X,Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
}

// --- clause-order invariance ----------------------------------------------

TEST(StructHashTest, RulePermutedProgramsHashEqual) {
  Program a = Parse(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y), r(Y), g(Y).
    r(X) :- b(X).
    s(X) :- r(X).
    ?- r(X).
    ?- s(X).
  )");
  Program b = Parse(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    s(X) :- r(X).
    r(X) :- b(X).
    r(X) :- f(X,Y), r(Y), g(Y).
    ?- s(X).
    ?- r(X).
  )");
  EXPECT_EQ(StructuralProgramHash(a), StructuralProgramHash(b));
  EXPECT_EQ(StructuralPredicateHash(a, Find(a, "r", 1)),
            StructuralPredicateHash(b, Find(b, "r", 1)));
}

// --- semantic changes move the hash ---------------------------------------

TEST(StructHashTest, BodyLiteralSwapChangesHash) {
  // Literal order inside one body is semantic for the analysis
  // artifacts (sideways information passing), so it must be hashed.
  Program a = Parse(".infinite f/2.\nr(X) :- f(X,Y), g(Y).\n");
  Program b = Parse(".infinite f/2.\nr(X) :- g(Y), f(X,Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
}

TEST(StructHashTest, FdEditChangesHash) {
  Program a = Parse(".infinite f/2.\n.fd f: 2 -> 1.\nr(X) :- f(X,Y).\n");
  Program b = Parse(".infinite f/2.\n.fd f: 1 -> 2.\nr(X) :- f(X,Y).\n");
  Program c = Parse(".infinite f/2.\nr(X) :- f(X,Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(c));
  EXPECT_NE(StructuralPredicateHash(a, Find(a, "f", 2)),
            StructuralPredicateHash(b, Find(b, "f", 2)));
}

TEST(StructHashTest, MonoEditChangesHash) {
  Program a = Parse(
      ".infinite f/2.\n.mono f: 2 > 1.\nr(X) :- f(X,Y).\n");
  Program b = Parse(".infinite f/2.\nr(X) :- f(X,Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
}

TEST(StructHashTest, ArityChangeChangesHash) {
  Program a = Parse("r(X) :- b(X).\n");
  Program b = Parse("r(X,Y) :- b(X), b(Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
}

TEST(StructHashTest, PredicateKindChangesHash) {
  Program a = Parse(".infinite f/2.\nr(X) :- f(X,Y).\n");
  Program b = Parse("r(X) :- f(X,Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
  EXPECT_NE(StructuralPredicateHash(a, Find(a, "f", 2)),
            StructuralPredicateHash(b, Find(b, "f", 2)));
}

TEST(StructHashTest, FactsAndConstantsChangeHash) {
  Program a = Parse("e(1,2).\np(X,Y) :- e(X,Y).\n");
  Program b = Parse("e(1,3).\np(X,Y) :- e(X,Y).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
}

TEST(StructHashTest, FunctionStructureChangesHash) {
  Program a = Parse("r(X) :- b(f(X)).\n");
  Program b = Parse("r(X) :- b(g(X)).\n");
  Program c = Parse("r(X) :- b(f(f(X))).\n");
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(b));
  EXPECT_NE(StructuralProgramHash(a), StructuralProgramHash(c));
}

// --- dependency graph + cone fingerprints ---------------------------------

constexpr const char* kLayered = R"(
  .infinite f/2.
  .fd f: 2 -> 1.
  top(X) :- mid(X).
  mid(X) :- f(X,Y), leaf(Y), guard(Y).
  leaf(X) :- b(X).
  other(X) :- b(X).
  ?- top(X).
)";

TEST(StructHashTest, DepGraphEdges) {
  Program p = Parse(kLayered);
  PredicateDepGraph g = PredicateDepGraph::Build(p);
  PredicateId top = Find(p, "top", 1);
  PredicateId mid = Find(p, "mid", 1);
  PredicateId leaf = Find(p, "leaf", 1);
  ASSERT_EQ(g.Callees(top).size(), 1u);
  EXPECT_EQ(g.Callees(top)[0], mid);
  // mid calls f, leaf and guard.
  EXPECT_EQ(g.Callees(mid).size(), 3u);
  EXPECT_TRUE(g.Callees(leaf).size() == 1u);
  // Callees come before callers in the reverse-topological numbering.
  EXPECT_LT(g.SccOf(leaf), g.SccOf(mid));
  EXPECT_LT(g.SccOf(mid), g.SccOf(top));
}

TEST(StructHashTest, EditPropagatesToAncestorConesOnly) {
  Program a = Parse(kLayered);
  // Edit leaf's rule (extra guard literal).
  Program b = Parse(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    top(X) :- mid(X).
    mid(X) :- f(X,Y), leaf(Y), guard(Y).
    leaf(X) :- b(X), extra(X).
    other(X) :- b(X).
    ?- top(X).
  )");
  ProgramFingerprints fa = ComputeFingerprints(a);
  ProgramFingerprints fb = ComputeFingerprints(b);
  auto cone = [](const Program& p, const ProgramFingerprints& f,
                 const char* name) {
    return f.cone[p.FindPredicate(name, 1)];
  };
  // Ancestors of the edit are dirty...
  EXPECT_NE(cone(a, fa, "leaf"), cone(b, fb, "leaf"));
  EXPECT_NE(cone(a, fa, "mid"), cone(b, fb, "mid"));
  EXPECT_NE(cone(a, fa, "top"), cone(b, fb, "top"));
  // ...but the sibling and the shared base predicate are untouched.
  EXPECT_EQ(cone(a, fa, "other"), cone(b, fb, "other"));
  EXPECT_EQ(cone(a, fa, "b"), cone(b, fb, "b"));
  EXPECT_EQ(cone(a, fa, "guard"), cone(b, fb, "guard"));
  // Program hash moves with the edit.
  EXPECT_NE(fa.program, fb.program);
}

TEST(StructHashTest, SccMembersShareContentButGetDistinctFingerprints) {
  Program p = Parse(R"(
    even(X) :- odd(X).
    odd(X) :- even(X).
    even(X) :- b(X).
  )");
  ProgramFingerprints f = ComputeFingerprints(p);
  PredicateId even = Find(p, "even", 1);
  PredicateId odd = Find(p, "odd", 1);
  PredicateDepGraph g = PredicateDepGraph::Build(p);
  EXPECT_EQ(g.SccOf(even), g.SccOf(odd));
  // Same cone *content*, distinct fingerprints: a cache keyed by cone
  // must not conflate the two members.
  EXPECT_NE(f.cone[even], f.cone[odd]);
}

TEST(StructHashTest, ConeInvarianceUnderAlphaAndPermutation) {
  Program a = Parse(kLayered);
  Program b = Parse(R"(
    .infinite f/2.
    .fd f: 2 -> 1.
    other(Q) :- b(Q).
    leaf(V) :- b(V).
    mid(U) :- f(U,W), leaf(W), guard(W).
    top(Z) :- mid(Z).
    ?- top(T).
  )");
  ProgramFingerprints fa = ComputeFingerprints(a);
  ProgramFingerprints fb = ComputeFingerprints(b);
  for (const char* name : {"top", "mid", "leaf", "other"}) {
    EXPECT_EQ(fa.cone[a.FindPredicate(name, 1)],
              fb.cone[b.FindPredicate(name, 1)])
        << name;
  }
  EXPECT_EQ(fa.program, fb.program);
}

// --- batched and memoized hashing paths ------------------------------------

constexpr char kMixedText[] = R"(
  .infinite f/2.
  .fd f: 2 -> 1.
  .infinite g/3.
  .fd g: 1 2 -> 3.
  .mono g: 1 > 2.
  r(X) :- f(X,Y), r(Y), a(Y).
  r(X) :- b(X).
  s(X,c) :- g(X,Y,Z), r(Y).
  t(w(X)) :- s(X,X).
  u(1).
  ?- r(Q).
  ?- s(Q,R).
)";

TEST(StructHashTest, BatchedPredicateHashesMatchPerPredicate) {
  Program p = Parse(kMixedText);
  std::vector<uint64_t> own = StructuralPredicateHashes(p);
  ASSERT_EQ(own.size(), p.num_predicates());
  for (PredicateId q = 0; q < static_cast<PredicateId>(p.num_predicates());
       ++q) {
    EXPECT_EQ(own[q], StructuralPredicateHash(p, q)) << p.PredicateName(q);
  }
  EXPECT_EQ(StructuralProgramHashFrom(p, own), StructuralProgramHash(p));
}

}  // namespace
}  // namespace hornsafe
