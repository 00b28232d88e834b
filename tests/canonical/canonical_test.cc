#include "canonical/canonical.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parser/parser.h"

namespace hornsafe {
namespace {

Program Parse(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(CanonicalTest, AlreadyCanonicalProgramUnchangedInShape) {
  Program p = Parse(R"(
    .infinite f/2.
    r(X) :- f(X,Y), r(Y).
    r(X) :- b(X).
    ?- r(X).
  )");
  EXPECT_TRUE(IsCanonical(p));
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->program.rules().size(), 2u);
  EXPECT_EQ(c->program.queries().size(), 1u);
  EXPECT_TRUE(c->constant_preds.empty());
  EXPECT_TRUE(c->function_preds.empty());
  EXPECT_TRUE(IsCanonical(c->program));
}

TEST(CanonicalTest, InterleavedComponentsComeOutComponentMajor) {
  // Two predicate components, {a,b,c} and {p,q}, with their clauses
  // interleaved; the constant query adds a wrapper rule at the end.
  Program p = Parse(R"(
    a(X) :- b(X).
    p(X) :- q(X).
    a(X) :- a(X), c(X).
    p(X) :- p(X).
    ?- a(1).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Program& canon = c->program;
  ASSERT_EQ(canon.rules().size(), 5u);
  std::vector<std::string> heads;
  for (const Rule& r : canon.rules()) {
    heads.push_back(canon.PredicateName(r.head.pred));
  }
  // The a-component first (its rules in input order, then the query
  // wrapper over a), then the p-component in input order.
  EXPECT_EQ(heads[0], "a");
  EXPECT_EQ(heads[1], "a");
  EXPECT_EQ(canon.ToString(canon.rules()[0]), p.ToString(p.rules()[0]));
  EXPECT_EQ(canon.ToString(canon.rules()[1]), p.ToString(p.rules()[2]));
  EXPECT_EQ(canon.PredicateName(canon.rules()[2].body[0].pred), "a");
  EXPECT_EQ(canon.ToString(canon.rules()[3]), p.ToString(p.rules()[1]));
  EXPECT_EQ(canon.ToString(canon.rules()[4]), p.ToString(p.rules()[3]));
}

TEST(CanonicalTest, ContiguousComponentsKeepTheirInputOrder) {
  // The later component comes first in the text, and that stays so.
  Program p = Parse(R"(
    p(X) :- q(X).
    p(X) :- p(X).
    a(X) :- b(X).
    a(X) :- a(X), c(X).
    ?- a(X).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->program.rules().size(), p.rules().size());
  for (size_t i = 0; i < p.rules().size(); ++i) {
    EXPECT_EQ(c->program.ToString(c->program.rules()[i]),
              p.ToString(p.rules()[i]))
        << "rule " << i;
  }
}

TEST(CanonicalTest, Example6ConstantsBecomeGuardPredicates) {
  // Example 6 of the paper.
  Program p = Parse(R"(
    r(X,Y) :- p(X,5), r(5,Y).
    r(X,Y) :- a(X,Y).
    p(1,5).
    a(1,2).
    ?- r(X,2).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Program& canon = c->program;
  EXPECT_TRUE(IsCanonical(canon));
  // Two distinct constants were extracted from rules/queries: 5 and 2.
  EXPECT_EQ(c->constant_preds.size(), 2u);
  // The constant 5 appears twice but gets a single shared predicate, so
  // exactly two singleton facts were added (5 and 2) to the original two.
  EXPECT_EQ(canon.facts().size(), 4u);
  // The query was wrapped: r(X,2) -> q(X) with a defining rule.
  ASSERT_EQ(canon.queries().size(), 1u);
  const Literal& q = canon.queries()[0];
  EXPECT_EQ(q.args.size(), 1u);
  EXPECT_TRUE(canon.terms().IsVariable(q.args[0]));
  // Rules: two original (rewritten) + one query wrapper.
  EXPECT_EQ(canon.rules().size(), 3u);
  // First rule gained two guard literals (one per constant occurrence).
  EXPECT_EQ(canon.rules()[0].body.size(), 4u);
}

TEST(CanonicalTest, Example7ConcatFlattens) {
  // Example 7 of the paper: list concatenation.
  Program p = Parse(R"(
    concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
    concat([], Z, Z).
    ?- concat(A, B, C).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Program& canon = c->program;
  EXPECT_TRUE(IsCanonical(canon));
  // One infinite predicate for cons/2 (shared across the two
  // occurrences; see DESIGN.md D7), one constant predicate for [].
  EXPECT_EQ(c->function_preds.size(), 1u);
  EXPECT_EQ(c->constant_preds.size(), 1u);
  PredicateId cons = c->function_preds.begin()->first;
  EXPECT_TRUE(canon.IsInfiniteBase(cons));
  EXPECT_EQ(canon.predicate(cons).arity, 3u);
  // Functionhood + constructor FDs were attached.
  std::vector<FiniteDependency> fds = canon.FdsFor(cons);
  ASSERT_EQ(fds.size(), 2u);
  EXPECT_EQ(fds[0].lhs, AttrSet::Of({0, 1}));
  EXPECT_EQ(fds[0].rhs, AttrSet::Single(2));
  EXPECT_EQ(fds[1].lhs, AttrSet::Single(2));
  EXPECT_EQ(fds[1].rhs, AttrSet::Of({0, 1}));
  // Recursive rule body: concat(Y,Z,U) + two cons literals.
  EXPECT_EQ(canon.rules()[0].body.size(), 3u);
  // Base rule body: one nil-guard literal.
  EXPECT_EQ(canon.rules()[1].body.size(), 1u);
}

TEST(CanonicalTest, ConstructorFdsCanBeDisabled) {
  Program p = Parse("r(f(X)) :- b(X).");
  CanonicalizeOptions opts;
  opts.add_constructor_fds = false;
  auto c = Canonicalize(p, opts);
  ASSERT_TRUE(c.ok());
  PredicateId fp = c->function_preds.begin()->first;
  std::vector<FiniteDependency> fds = c->program.FdsFor(fp);
  ASSERT_EQ(fds.size(), 1u);
  EXPECT_EQ(fds[0].rhs, AttrSet::Single(1));
}

TEST(CanonicalTest, AllAutomaticConstraintsCanBeDisabled) {
  Program p = Parse("r(f(X)) :- b(X).");
  CanonicalizeOptions opts;
  opts.add_function_fds = false;
  opts.add_constructor_fds = false;
  opts.add_constructor_monos = false;
  auto c = Canonicalize(p, opts);
  ASSERT_TRUE(c.ok());
  PredicateId fp = c->function_preds.begin()->first;
  EXPECT_TRUE(c->program.FdsFor(fp).empty());
  EXPECT_TRUE(c->program.MonosFor(fp).empty());
}

TEST(CanonicalTest, ConstructorMonosCarrySubtermOrdering) {
  Program p = Parse("r(f(X, Y)) :- b(X, Y).");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok());
  PredicateId fp = c->function_preds.begin()->first;
  std::vector<MonotonicityConstraint> monos = c->program.MonosFor(fp);
  // result > arg1, result > arg2, and all three positions bounded below.
  int strict = 0, bounded = 0;
  for (const MonotonicityConstraint& mc : monos) {
    if (mc.kind == MonoKind::kAttrGreaterAttr) {
      EXPECT_EQ(mc.lhs_attr, 2u);  // the result position
      ++strict;
    } else if (mc.kind == MonoKind::kAttrGreaterConst) {
      ++bounded;
    }
  }
  EXPECT_EQ(strict, 2);
  EXPECT_EQ(bounded, 3);
}

TEST(CanonicalTest, NestedFunctionsFlattenInnermostFirst) {
  Program p = Parse("r(X) :- b(g(h(X))).");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Program& canon = c->program;
  EXPECT_TRUE(IsCanonical(canon));
  EXPECT_EQ(c->function_preds.size(), 2u);  // g/1 and h/1
  // Body: b(V2), fn_h(X,V1), fn_g(V1,V2).
  ASSERT_EQ(canon.rules().size(), 1u);
  EXPECT_EQ(canon.rules()[0].body.size(), 3u);
}

TEST(CanonicalTest, Example8CompoundFactsBecomeRules) {
  // Example 8: p and q hold list constants of different lengths.
  Program p = Parse(R"(
    .infinite integer/1.
    r(X) :- p(Y), q(Y), integer(X).
    p([1]).
    q([1,1]).
    ?- r(X).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Program& canon = c->program;
  EXPECT_TRUE(IsCanonical(canon));
  // p and q are now derived (their facts contained function terms).
  EXPECT_TRUE(canon.IsDerived(canon.FindPredicate("p", 1)));
  EXPECT_TRUE(canon.IsDerived(canon.FindPredicate("q", 1)));
  // 1 rule for r + 1 for p + 1 for q.
  EXPECT_EQ(canon.rules().size(), 3u);
  // Facts remaining: only the generated constant guards (1 and []).
  for (const Literal& f : canon.facts()) {
    EXPECT_TRUE(c->constant_preds.count(f.pred))
        << canon.ToString(f) << " should be a generated guard fact";
  }
}

TEST(CanonicalTest, MixedFactsConvertTogether) {
  // Once one fact of a predicate is compound, all its facts convert so
  // the EDB/IDB partition stays disjoint.
  Program p = Parse(R"(
    d(f(1)).
    d(2).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(c->program.IsDerived(c->program.FindPredicate("d", 1)));
  EXPECT_EQ(c->program.rules().size(), 2u);
  EXPECT_TRUE(c->program.Validate().ok());
}

TEST(CanonicalTest, SameConstantSharesOnePredicate) {
  Program p = Parse(R"(
    r(X) :- s(X, 7), t(7, X).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->constant_preds.size(), 1u);
  // One guard fact, two guard literals referencing the same predicate.
  EXPECT_EQ(c->program.facts().size(), 1u);
  const Rule& r = c->program.rules()[0];
  ASSERT_EQ(r.body.size(), 4u);
  EXPECT_EQ(r.body[2].pred, r.body[3].pred);
  // But through *distinct* fresh variables.
  EXPECT_NE(r.body[2].args[0], r.body[3].args[0]);
}

TEST(CanonicalTest, HeadConstantsAndFunctionsMoveToBody) {
  Program p = Parse("r(5, f(X)) :- b(X).");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Program& canon = c->program;
  EXPECT_TRUE(IsCanonical(canon));
  const Rule& r = canon.rules()[0];
  EXPECT_TRUE(canon.terms().IsVariable(r.head.args[0]));
  EXPECT_TRUE(canon.terms().IsVariable(r.head.args[1]));
  // b(X) + constant guard + function literal.
  EXPECT_EQ(r.body.size(), 3u);
}

TEST(CanonicalTest, QueriesWithRepeatedVariablesAreWrapped) {
  Program p = Parse(R"(
    e(1,2).
    ?- e(X,X).
  )");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->program.queries().size(), 1u);
  const Literal& q = c->program.queries()[0];
  EXPECT_EQ(q.args.size(), 1u);
  EXPECT_TRUE(c->program.IsDerived(q.pred));
}

TEST(CanonicalTest, IntegersAndAtomsGetDistinctGuards) {
  Program p = Parse("r(X) :- s(X, 1), t(X, one).");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->constant_preds.size(), 2u);
}

TEST(CanonicalTest, ProvenanceMapsPointAtRightObjects) {
  Program p = Parse("r(g(X), 3) :- b(X).");
  auto c = Canonicalize(p);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->function_preds.size(), 1u);
  ASSERT_EQ(c->constant_preds.size(), 1u);
  const Program& canon = c->program;
  auto [fpred, fsym] = *c->function_preds.begin();
  EXPECT_EQ(canon.symbols().Name(fsym), "g");
  auto [cpred, cterm] = *c->constant_preds.begin();
  EXPECT_EQ(canon.terms().ToString(cterm, canon.symbols()), "3");
}

}  // namespace
}  // namespace hornsafe
