//===- tests/test_deptest.cpp - Dependence test unit + property tests -----===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cfg/Hcg.h"
#include "deptest/DependenceTest.h"

#include <set>

using namespace iaa;
using namespace iaa::deptest;
using namespace iaa::mf;
using iaa::test::parseOrDie;

namespace {

struct DepFixture {
  std::unique_ptr<Program> P;
  std::unique_ptr<analysis::SymbolUses> Uses;
  std::unique_ptr<cfg::Hcg> G;
  std::unique_ptr<DependenceTester> Tester;

  explicit DepFixture(const std::string &Source, bool EnableIAA = true) {
    P = iaa::test::parseOrDie(Source);
    Uses = std::make_unique<analysis::SymbolUses>(*P);
    G = std::make_unique<cfg::Hcg>(*P);
    Tester = std::make_unique<DependenceTester>(*G, *Uses, EnableIAA);
  }

  LoopDepResult test(const std::string &Label) {
    DoStmt *L = P->findLoop(Label);
    EXPECT_NE(L, nullptr);
    return Tester->testLoop(L, {});
  }
};

TEST(DepTest, DistinctDimension1D) {
  DepFixture F(R"(program t
    integer i, n
    real x(100)
    n = 100
    lp: do i = 1, n
      x(i) = x(i) + 1.0
    end do
  end)");
  LoopDepResult R = F.test("lp");
  EXPECT_TRUE(R.Independent);
  ASSERT_EQ(R.Arrays.size(), 1u);
  EXPECT_EQ(R.Arrays[0].Test, TestKind::DistinctDim);
}

TEST(DepTest, DistinctDimension2D) {
  DepFixture F(R"(program t
    integer i, j, n
    real z(100, 50)
    n = 100
    lp: do i = 1, n
      do j = 1, 50
        z(i, j) = z(i, j) * 2.0
      end do
    end do
  end)");
  EXPECT_TRUE(F.test("lp").Independent);
}

TEST(DepTest, ShiftedWriteIsDependent) {
  DepFixture F(R"(program t
    integer i, n
    real x(101)
    n = 100
    lp: do i = 1, n
      x(i + 1) = x(i) + 1.0
    end do
  end)");
  EXPECT_FALSE(F.test("lp").Independent);
}

TEST(DepTest, RangeTestBlockedAccess) {
  // Block-distributed access x(4i+j), j in [0,3]: disjoint blocks.
  DepFixture F(R"(program t
    integer i, j, n
    real x(500)
    n = 100
    lp: do i = 1, n
      do j = 0, 3
        x(4 * i + j) = x(4 * i + j) + 1.0
      end do
    end do
  end)");
  LoopDepResult R = F.test("lp");
  EXPECT_TRUE(R.Independent);
  ASSERT_EQ(R.Arrays.size(), 1u);
  EXPECT_EQ(R.Arrays[0].Test, TestKind::RangeTest);
}

TEST(DepTest, OverlappingBlocksDependent) {
  // x(4i+j), j in [0,4]: block i touches the first cell of block i+1.
  DepFixture F(R"(program t
    integer i, j, n
    real x(500)
    n = 100
    lp: do i = 1, n
      do j = 0, 4
        x(4 * i + j) = x(4 * i + j) + 1.0
      end do
    end do
  end)");
  EXPECT_FALSE(F.test("lp").Independent);
}

TEST(DepTest, ReadOnlyArraysIgnored) {
  DepFixture F(R"(program t
    integer i, n
    real x(100), y(100)
    n = 100
    lp: do i = 1, n
      x(i) = y(mod(i * 7, 90) + 1)
    end do
  end)");
  LoopDepResult R = F.test("lp");
  EXPECT_TRUE(R.Independent);
  for (const auto &O : R.Arrays)
    EXPECT_NE(O.Array->name(), "y");
}

TEST(DepTest, OffsetLengthDisabledWithoutIAA) {
  const char *Src = R"(program t
    integer i, j, n, t
    integer off(101), len(100)
    real x(2000), tot
    n = 100
    do i = 1, n
      len(i) = mod(i * 3, 7) + 1
    end do
    off(1) = 1
    do i = 1, n
      off(i + 1) = off(i) + len(i)
    end do
    lp: do i = 1, n
      do j = 1, len(i)
        x(off(i) + j - 1) = x(off(i) + j - 1) + 1.0
      end do
    end do
    tot = x(off(3))
  end)";
  DepFixture With(Src, /*EnableIAA=*/true);
  EXPECT_TRUE(With.test("lp").Independent);
  DepFixture Without(Src, /*EnableIAA=*/false);
  EXPECT_FALSE(Without.test("lp").Independent);
}

TEST(DepTest, NegativeDistanceDefeatsOffsetLength) {
  // The distance array may be negative: segments can overlap.
  DepFixture F(R"(program t
    integer i, j, n, t
    integer off(101), len(100)
    real x(2000), tot
    n = 100
    do i = 1, n
      len(i) = mod(i * 3, 7) - 3
    end do
    off(1) = 500
    do i = 1, n
      off(i + 1) = off(i) + len(i)
    end do
    lp: do i = 1, n
      do j = 1, 2
        x(off(i) + j - 1) = x(off(i) + j - 1) + 1.0
      end do
    end do
    tot = x(off(3))
  end)");
  EXPECT_FALSE(F.test("lp").Independent);
}

TEST(DepTest, ScalarSubscriptWrittenInBodyFails) {
  DepFixture F(R"(program t
    integer i, n, p
    real x(200)
    n = 100
    lp: do i = 1, n
      p = mod(i * 17, 100) + 1
      x(p) = x(p) + 1.0
    end do
  end)");
  // p is irregular and possibly colliding across iterations.
  EXPECT_FALSE(F.test("lp").Independent);
}

TEST(DepTest, InjectiveSubscriptIndependent) {
  DepFixture F(R"(program t
    integer k, n, i, q, p
    real x(500), y(500)
    integer ind(500)
    n = 400
    p = 400
    q = 0
    do i = 1, p
      if (x(i) > 0) then
        q = q + 1
        ind(q) = i
      end if
    end do
    lp: do i = 1, q
      y(ind(i)) = y(ind(i)) + 1.0
    end do
  end)");
  LoopDepResult R = F.test("lp");
  EXPECT_TRUE(R.Independent);
  ASSERT_EQ(R.Arrays.size(), 1u);
  EXPECT_EQ(R.Arrays[0].Test, TestKind::Injective);
}

TEST(DepTest, NonInjectiveIndexArrayDependent) {
  DepFixture F(R"(program t
    integer i, n
    real y(500)
    integer ind(500)
    n = 400
    do i = 1, n
      ind(i) = mod(i, 10) + 1
    end do
    lp: do i = 1, n
      y(ind(i)) = y(ind(i)) + 1.0
    end do
  end)");
  EXPECT_FALSE(F.test("lp").Independent);
}

TEST(DepTest, ArrayTouchedByCallOpaque) {
  DepFixture F(R"(program t
    integer i, n
    real x(100)
    procedure poke
      x(1) = x(1) + 1.0
    end
    n = 100
    lp: do i = 1, n
      call poke
    end do
  end)");
  EXPECT_FALSE(F.test("lp").Independent);
}

TEST(DepTest, ReadOnlyInsideWhileIsFine) {
  DepFixture F(R"(program t
    integer i, n, p
    real x(100), m(100)
    n = 50
    lp: do i = 1, n
      p = i
      while (p > 0)
        x(i) = x(i) + m(p)
        p = p - 10
      end while
    end do
  end)");
  // m is read-only; x is written only at subscript i (outside and inside
  // the while it is x(i)) — but writes inside a while are opaque, so the
  // loop must be reported dependent on x.
  EXPECT_FALSE(F.test("lp").Independent);
}

//===----------------------------------------------------------------------===//
// Property sweep: affine single-statement loops validated by brute force
//===----------------------------------------------------------------------===//

/// do i = 1, N: x(a*i + b) = x(c*i + d) — the tester's verdict must agree
/// with a brute-force conflict check whenever the tester says independent.
class AffinePairSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(AffinePairSweep, NoFalseIndependence) {
  auto [A, B, C, D] = GetParam();
  const int N = 12;
  // Keep subscripts in bounds [1, 400].
  auto Sub = [&](int Coef, int Off, int I) { return Coef * I + Off; };
  int MinSub = 1000, MaxSub = -1000;
  for (int I = 1; I <= N; ++I) {
    MinSub = std::min({MinSub, Sub(A, B, I), Sub(C, D, I)});
    MaxSub = std::max({MaxSub, Sub(A, B, I), Sub(C, D, I)});
  }
  if (MinSub < 1 || MaxSub > 400)
    GTEST_SKIP() << "subscripts out of the test harness bounds";

  std::string Src = "program t\ninteger i, n\nreal x(400), tot\nn = " +
                    std::to_string(N) + "\nlp: do i = 1, n\n  x(" +
                    std::to_string(A) + " * i + " + std::to_string(B) +
                    ") = x(" + std::to_string(C) + " * i + " +
                    std::to_string(D) + ") + 1.0\nend do\ntot = x(7)\nend";
  DepFixture F(Src);
  LoopDepResult R = F.test("lp");

  // Brute force: a loop-carried dependence exists when iteration I1 writes
  // what a different iteration I2 reads or writes.
  bool Carried = false;
  for (int I1 = 1; I1 <= N; ++I1)
    for (int I2 = 1; I2 <= N; ++I2) {
      if (I1 == I2)
        continue;
      if (Sub(A, B, I1) == Sub(C, D, I2) || Sub(A, B, I1) == Sub(A, B, I2))
        Carried = true;
    }

  if (R.Independent) {
    EXPECT_FALSE(Carried) << "tester claimed independence, but iterations "
                             "conflict: "
                          << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AffinePairSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),   // write coefficient
                       ::testing::Values(0, 1, 5),   // write offset
                       ::testing::Values(0, 1, 2, 3),// read coefficient
                       ::testing::Values(0, 2, 7))); // read offset

} // namespace
