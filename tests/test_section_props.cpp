//===- tests/test_section_props.cpp - Property-based section algebra ------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Property-style sweeps validating the section algebra against concrete
/// integer sets: every MAY operation must over-approximate the exact set,
/// every MUST operation must under-approximate it, across a grid of
/// constant intervals. These invariants are exactly what Sec. 3.2.3 demands
/// ("In order not to cause incorrect transformations, the approximation
/// must be conservative").
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "section/Section.h"

#include <set>
#include <tuple>

using namespace iaa;
using namespace iaa::sec;
using namespace iaa::sym;
using iaa::test::parseOrDie;

namespace {

using IntSet = std::set<int64_t>;

IntSet setOf(int64_t Lo, int64_t Hi) {
  IntSet S;
  for (int64_t V = Lo; V <= Hi; ++V)
    S.insert(V);
  return S;
}

IntSet unionOf(const IntSet &A, const IntSet &B) {
  IntSet R = A;
  R.insert(B.begin(), B.end());
  return R;
}

IntSet diffOf(const IntSet &A, const IntSet &B) {
  IntSet R;
  for (int64_t V : A)
    if (!B.count(V))
      R.insert(V);
  return R;
}

IntSet intersectOf(const IntSet &A, const IntSet &B) {
  IntSet R;
  for (int64_t V : A)
    if (B.count(V))
      R.insert(V);
  return R;
}

/// Concretizes a constant-bounded section (test inputs only).
IntSet concrete(const Section &S, int64_t Universe = 64) {
  if (S.isEmpty())
    return {};
  if (S.isUniverse())
    return setOf(-Universe, Universe);
  return setOf(S.lo().constValue(), S.hi().constValue());
}

Section ival(int64_t Lo, int64_t Hi) {
  return Section::interval(SymExpr::constant(Lo), SymExpr::constant(Hi));
}

bool superset(const IntSet &Big, const IntSet &Small) {
  for (int64_t V : Small)
    if (!Big.count(V))
      return false;
  return true;
}

/// The interval grid: (ALo, ALen, BLo, BLen).
class SectionAlgebra
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {
protected:
  void SetUp() override {
    auto [ALo, ALen, BLo, BLen] = GetParam();
    A = ival(ALo, ALo + ALen);
    B = ival(BLo, BLo + BLen);
    CA = concrete(A);
    CB = concrete(B);
  }
  RangeEnv Env;
  Section A, B;
  IntSet CA, CB;
};

TEST_P(SectionAlgebra, UnionMayOverApproximates) {
  Section U = Section::unionMay(A, B, Env);
  EXPECT_TRUE(superset(concrete(U), unionOf(CA, CB))) << U.str();
}

TEST_P(SectionAlgebra, UnionMustUnderApproximates) {
  Section U = Section::unionMust(A, B, Env);
  EXPECT_TRUE(superset(unionOf(CA, CB), concrete(U))) << U.str();
}

TEST_P(SectionAlgebra, SubtractMayOverApproximates) {
  Section D = Section::subtractMay(A, B, Env);
  EXPECT_TRUE(superset(concrete(D), diffOf(CA, CB))) << D.str();
}

TEST_P(SectionAlgebra, SubtractMustUnderApproximates) {
  Section D = Section::subtractMust(A, B, Env);
  IntSet CD = concrete(D);
  EXPECT_TRUE(superset(diffOf(CA, CB), CD)) << D.str();
  // Every MUST element must really be in A and not in B.
  for (int64_t V : CD) {
    EXPECT_TRUE(CA.count(V));
    EXPECT_FALSE(CB.count(V));
  }
}

TEST_P(SectionAlgebra, IntersectMustUnderApproximates) {
  Section I = Section::intersectMust(A, B, Env);
  EXPECT_TRUE(superset(intersectOf(CA, CB), concrete(I))) << I.str();
}

TEST_P(SectionAlgebra, DisjointnessIsSound) {
  if (Section::provablyDisjoint(A, B, Env)) {
    EXPECT_TRUE(intersectOf(CA, CB).empty());
  }
}

TEST_P(SectionAlgebra, ContainmentIsSound) {
  if (Section::provablyContains(A, B, Env)) {
    EXPECT_TRUE(superset(CA, CB));
  }
  if (Section::provablyContains(B, A, Env)) {
    EXPECT_TRUE(superset(CB, CA));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SectionAlgebra,
    ::testing::Combine(::testing::Values(-3, 0, 2, 7),
                       ::testing::Values(0, 1, 4, 9),
                       ::testing::Values(-5, 0, 3, 8),
                       ::testing::Values(0, 2, 6)));

//===----------------------------------------------------------------------===//
// Aggregation against brute force
//===----------------------------------------------------------------------===//

/// Sweep parameters: S(i) = [a*i + b : a*i + b + w], i in [1, N].
class AggregationSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(AggregationSweep, MayCoversMustIsCovered) {
  auto [AC, BC, W, N] = GetParam();
  auto P = parseOrDie("program t\ninteger i\ni = 0\nend");
  const mf::Symbol *I = P->findSymbol("i");

  SymExpr Lo = SymExpr::var(I) * AC + BC;
  SymExpr Hi = Lo + W;
  Section S = Section::interval(Lo, Hi);

  RangeEnv Env;
  Env.bindVar(I, SymRange::of(SymExpr::constant(1), SymExpr::constant(N)));

  // Brute-force union over the iteration space.
  IntSet Exact;
  for (int64_t It = 1; It <= N; ++It)
    for (int64_t V = AC * It + BC; V <= AC * It + BC + W; ++V)
      Exact.insert(V);

  Section May = Section::aggregateMay(S, I, SymExpr::constant(1),
                                      SymExpr::constant(N), Env);
  EXPECT_TRUE(superset(concrete(May, 4096), Exact)) << May.str();

  Section Must = Section::aggregateMust(S, I, SymExpr::constant(1),
                                        SymExpr::constant(N), Env);
  EXPECT_TRUE(superset(Exact, concrete(Must, 4096)))
      << Must.str() << " vs exact size " << Exact.size();
  // When the per-iteration windows leave no holes, MUST must be exact.
  if (std::abs(AC) <= W + 1 && !Must.isEmpty()) {
    EXPECT_EQ(concrete(Must, 4096).size(), Exact.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AggregationSweep,
    ::testing::Combine(::testing::Values(-2, -1, 1, 2, 3),
                       ::testing::Values(0, 5),
                       ::testing::Values(0, 1, 3),
                       ::testing::Values(1, 7, 16)));

} // namespace
