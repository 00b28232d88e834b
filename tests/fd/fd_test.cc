#include "fd/fd.h"

#include <gtest/gtest.h>

namespace hornsafe {
namespace {

FiniteDependency Fd(std::initializer_list<uint32_t> lhs,
                    std::initializer_list<uint32_t> rhs) {
  return FiniteDependency{0, AttrSet::Of(lhs), AttrSet::Of(rhs)};
}

TEST(FdTest, ClosureOfEmptyFdSetIsIdentity) {
  EXPECT_EQ(AttrClosure(AttrSet::Of({0, 2}), {}), AttrSet::Of({0, 2}));
}

TEST(FdTest, ClosureChainsTransitively) {
  std::vector<FiniteDependency> fds = {Fd({0}, {1}), Fd({1}, {2}),
                                       Fd({2}, {3})};
  EXPECT_EQ(AttrClosure(AttrSet::Single(0), fds), AttrSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(AttrClosure(AttrSet::Single(2), fds), AttrSet::Of({2, 3}));
}

TEST(FdTest, ClosureNeedsFullLhs) {
  std::vector<FiniteDependency> fds = {Fd({0, 1}, {2})};
  EXPECT_EQ(AttrClosure(AttrSet::Single(0), fds), AttrSet::Single(0));
  EXPECT_EQ(AttrClosure(AttrSet::Of({0, 1}), fds), AttrSet::Of({0, 1, 2}));
}

TEST(FdTest, ImpliesMatchesPaperExample2) {
  // f(X,Y) with Y = 2*X: f1 ⇝ f2 and f2 ⇝ f1.
  std::vector<FiniteDependency> doubling = {Fd({0}, {1}), Fd({1}, {0})};
  EXPECT_TRUE(Implies(doubling, AttrSet::Single(0), AttrSet::Single(1)));
  EXPECT_TRUE(Implies(doubling, AttrSet::Single(1), AttrSet::Single(0)));

  // f(X,Y) with X < 0, Y > 0: no dependency either way.
  std::vector<FiniteDependency> none = {};
  EXPECT_FALSE(Implies(none, AttrSet::Single(0), AttrSet::Single(1)));
  EXPECT_FALSE(Implies(none, AttrSet::Single(1), AttrSet::Single(0)));

  // f(X,Y) with X > 0, Y in {0,5}: f1 ⇝ f2 only.
  std::vector<FiniteDependency> oneway = {Fd({0}, {1})};
  EXPECT_TRUE(Implies(oneway, AttrSet::Single(0), AttrSet::Single(1)));
  EXPECT_FALSE(Implies(oneway, AttrSet::Single(1), AttrSet::Single(0)));
}

TEST(FdTest, ReflexiveImplicationAlwaysHolds) {
  EXPECT_TRUE(Implies({}, AttrSet::Of({0, 1}), AttrSet::Single(1)));
  EXPECT_TRUE(Implies({}, AttrSet::Of({0, 1}), AttrSet()));
}

TEST(FdTest, EmptyLhsFdMakesAttributeUnconditionallyFinite) {
  std::vector<FiniteDependency> fds = {
      FiniteDependency{0, AttrSet(), AttrSet::Single(1)}};
  EXPECT_TRUE(Implies(fds, AttrSet(), AttrSet::Single(1)));
  EXPECT_EQ(AttrClosure(AttrSet(), fds), AttrSet::Single(1));
}

TEST(FdTest, IsRedundantDetectsImpliedFd) {
  std::vector<FiniteDependency> fds = {Fd({0}, {1}), Fd({1}, {2}),
                                       Fd({0}, {2})};
  EXPECT_TRUE(IsRedundant(fds, 2));   // 0⇝2 follows from the chain
  EXPECT_FALSE(IsRedundant(fds, 0));  // 0⇝1 does not follow from the rest
}

TEST(FdTest, MinimalCoverSplitsAndPrunes) {
  // 0 ⇝ {1,2}, {0,1} ⇝ 2 (extraneous lhs attr 1), 0 ⇝ 2 (redundant).
  std::vector<FiniteDependency> fds = {Fd({0}, {1, 2}), Fd({0, 1}, {2}),
                                       Fd({0}, {2})};
  std::vector<FiniteDependency> cover = MinimalCover(fds);
  // Equivalent: closure of every set matches under both.
  for (uint64_t mask = 0; mask < 8; ++mask) {
    AttrSet s(mask);
    EXPECT_EQ(AttrClosure(s, fds), AttrClosure(s, cover))
        << "closure mismatch for " << s.ToString();
  }
  // Every rhs is a singleton and no trivial or redundant FDs survive.
  for (size_t i = 0; i < cover.size(); ++i) {
    EXPECT_EQ(cover[i].rhs.Count(), 1);
    EXPECT_FALSE(cover[i].rhs.SubsetOf(cover[i].lhs));
    EXPECT_FALSE(IsRedundant(cover, i));
  }
  EXPECT_EQ(cover.size(), 2u);  // 0⇝1 and 0⇝2 (or 1⇝2 variant)
}

TEST(FdTest, DeclaredDeterminants) {
  std::vector<FiniteDependency> fds = {Fd({1, 2}, {0}), Fd({3}, {0, 1}),
                                       Fd({0}, {2})};
  std::vector<AttrSet> det0 = DeclaredDeterminants(fds, 0);
  ASSERT_EQ(det0.size(), 2u);
  EXPECT_EQ(det0[0], AttrSet::Of({1, 2}));
  EXPECT_EQ(det0[1], AttrSet::Of({3}));
  // Attribute 2 is determined only by {0}.
  std::vector<AttrSet> det2 = DeclaredDeterminants(fds, 2);
  ASSERT_EQ(det2.size(), 1u);
  EXPECT_EQ(det2[0], AttrSet::Single(0));
  // A dependency whose lhs contains the attribute itself is not a
  // useful determinant.
  std::vector<FiniteDependency> self = {Fd({0, 1}, {0})};
  EXPECT_TRUE(DeclaredDeterminants(self, 0).empty());
}

TEST(FdTest, MinimalDeterminantsUsesClosure) {
  // 3 ⇝ 1 and 1 ⇝ 0 mean {3} determines 0 transitively.
  std::vector<FiniteDependency> fds = {Fd({3}, {1}), Fd({1}, {0})};
  std::vector<AttrSet> det = MinimalDeterminants(fds, 4, 0);
  // Minimal determinants of 0: {1} and {3}.
  ASSERT_EQ(det.size(), 2u);
  EXPECT_TRUE((det[0] == AttrSet::Single(1) && det[1] == AttrSet::Single(3)) ||
              (det[0] == AttrSet::Single(3) && det[1] == AttrSet::Single(1)));
}

TEST(FdTest, MinimalDeterminantsDropsSupersets) {
  std::vector<FiniteDependency> fds = {Fd({1}, {0}), Fd({1, 2}, {0})};
  std::vector<AttrSet> det = MinimalDeterminants(fds, 3, 0);
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0], AttrSet::Single(1));
}

TEST(FdTest, MinimalDeterminantsEmptyWhenUndetermined) {
  EXPECT_TRUE(MinimalDeterminants({}, 3, 1).empty());
}

TEST(FdTest, MinimalDeterminantsIncludesEmptySetWhenUnconditional) {
  std::vector<FiniteDependency> fds = {
      FiniteDependency{0, AttrSet(), AttrSet::Single(0)}};
  std::vector<AttrSet> det = MinimalDeterminants(fds, 2, 0);
  ASSERT_EQ(det.size(), 1u);
  EXPECT_TRUE(det[0].Empty());
}

TEST(FdTest, FdSetHashIsOrderInvariant) {
  std::vector<FiniteDependency> a = {Fd({3}, {1}), Fd({1}, {0})};
  std::vector<FiniteDependency> b = {Fd({1}, {0}), Fd({3}, {1})};
  EXPECT_EQ(FdSetHash(a), FdSetHash(b));
  // Content still matters: dropping or rewriting a dependency moves it.
  EXPECT_NE(FdSetHash(a), FdSetHash({Fd({3}, {1})}));
  EXPECT_NE(FdSetHash(a), FdSetHash({Fd({3}, {1}), Fd({1}, {2})}));
  EXPECT_NE(FdSetHash({}), FdSetHash({Fd({0}, {1})}));
}

TEST(FdTest, ClosureIndexMatchesTheFreeFunctions) {
  std::vector<FiniteDependency> fds = {Fd({3}, {1}), Fd({1}, {0})};
  FdClosureIndex index(fds);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(index.Minimal(4, k), MinimalDeterminants(fds, 4, k)) << k;
    EXPECT_EQ(index.Declared(k), DeclaredDeterminants(fds, k)) << k;
  }
  // Memoized answers stay the same on a second ask.
  EXPECT_EQ(index.Minimal(4, 0), MinimalDeterminants(fds, 4, 0));
  for (size_t i = 0; i < fds.size(); ++i) {
    EXPECT_EQ(index.Redundant(i), IsRedundant(fds, i)) << i;
  }
}

}  // namespace
}  // namespace hornsafe
