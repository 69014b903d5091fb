//===- tests/test_interp.cpp - Interpreter tests --------------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "xform/Parallelizer.h"

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using iaa::test::parseOrDie;

namespace {

Memory runSerial(const Program &P) {
  Interpreter I(P);
  return I.run(ExecOptions{});
}

TEST(Interp, ScalarArithmetic) {
  auto P = parseOrDie(R"(program t
    integer a, b
    real x
    a = 2 + 3 * 4
    b = mod(a, 5) + min(a, 3) - max(1, 2)
    x = a * 0.5
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("a")), 14);
  EXPECT_EQ(M.intScalar(P->findSymbol("b")), 4 + 3 - 2);
  EXPECT_DOUBLE_EQ(M.realScalar(P->findSymbol("x")), 7.0);
}

TEST(Interp, IntegerDivisionTruncates) {
  auto P = parseOrDie(R"(program t
    integer a, b
    a = 7 / 2
    b = (0 - 7) / 2
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("a")), 3);
  EXPECT_EQ(M.intScalar(P->findSymbol("b")), -3);
}

TEST(Interp, DoLoopAndArray) {
  auto P = parseOrDie(R"(program t
    integer i, n, s
    integer a(10)
    n = 10
    do i = 1, n
      a(i) = i * i
    end do
    s = 0
    do i = 1, n
      s = s + a(i)
    end do
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("s")), 385);
  // Fortran semantics: the index is ub+1 after the loop.
  EXPECT_EQ(M.intScalar(P->findSymbol("i")), 11);
}

TEST(Interp, DoLoopWithStep) {
  auto P = parseOrDie(R"(program t
    integer i, s
    s = 0
    do i = 1, 10, 3
      s = s + i
    end do
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("s")), 1 + 4 + 7 + 10);
}

TEST(Interp, ZeroTripLoop) {
  auto P = parseOrDie(R"(program t
    integer i, s
    s = 5
    do i = 3, 1
      s = 99
    end do
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("s")), 5);
}

TEST(Interp, WhileLoop) {
  auto P = parseOrDie(R"(program t
    integer p, s
    p = 5
    s = 0
    while (p > 0)
      s = s + p
      p = p - 1
    end while
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("s")), 15);
}

TEST(Interp, IfElseAndLogic) {
  auto P = parseOrDie(R"(program t
    integer a, b, c
    a = 3
    if (a > 2 and a < 10) then
      b = 1
    else
      b = 2
    end if
    if (not (a == 3) or a >= 100) then
      c = 7
    else
      c = 8
    end if
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("b")), 1);
  EXPECT_EQ(M.intScalar(P->findSymbol("c")), 8);
}

TEST(Interp, ProcedureCallsShareGlobals) {
  auto P = parseOrDie(R"(program t
    integer a
    procedure bump
      a = a + 10
    end
    a = 1
    call bump
    call bump
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("a")), 21);
}

TEST(Interp, TwoDimensionalArrays) {
  auto P = parseOrDie(R"(program t
    integer i, j, s
    integer g(3, 4)
    do i = 1, 3
      do j = 1, 4
        g(i, j) = i * 10 + j
      end do
    end do
    s = g(2, 3) + g(3, 1)
  end)");
  Memory M = runSerial(*P);
  EXPECT_EQ(M.intScalar(P->findSymbol("s")), 23 + 31);
}

TEST(Interp, ArrayExtentFromConstant) {
  auto P = parseOrDie(R"(program t
    integer n
    real x(n)
    integer i
    n = 8
    do i = 1, n
      x(i) = i * 1.0
    end do
  end)");
  Memory M = runSerial(*P);
  const Buffer &B = M.buffer(P->findSymbol("x"));
  ASSERT_EQ(B.D.size(), 8u);
  EXPECT_DOUBLE_EQ(B.D[7], 8.0);

  // The pipeline must keep n's definition: const-prop rewrites the loop
  // bound to 8, after which only the extent of x still reads n.
  xform::PipelineResult Plans =
      xform::parallelize(*P, xform::PipelineMode::Full);
  Interpreter I(*P);
  ExecOptions Par;
  Par.Plans = &Plans;
  Par.Threads = 2;
  Memory After = I.run(Par);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_EQ(After.buffer(P->findSymbol("x")).D, B.D);
}

TEST(Interp, ChecksumIsDeterministic) {
  auto P = parseOrDie(benchprogs::fig3Source());
  Memory A = runSerial(*P);
  Memory B = runSerial(*P);
  EXPECT_DOUBLE_EQ(A.checksum(), B.checksum());
  EXPECT_NE(A.checksum(), 0.0);
}

//===----------------------------------------------------------------------===//
// Parallel execution equivalence
//===----------------------------------------------------------------------===//

class ParallelEquiv : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquiv, BenchmarksMatchSerial) {
  int Which = GetParam();
  std::vector<benchprogs::BenchmarkProgram> All =
      benchprogs::allBenchmarks(/*Scale=*/0.08);
  benchprogs::BenchmarkProgram &B = All[Which];

  auto P = parseOrDie(B.Source);
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);

  Interpreter I(*P);
  Memory Serial = I.run(ExecOptions{});

  ExecOptions Par;
  Par.Plans = &Plan;
  Par.Threads = 4;
  ExecStats Stats;
  Memory Parallel = I.run(Par, &Stats);

  EXPECT_GT(Stats.ParallelLoopRuns, 0u)
      << B.Name << ": expected at least one parallel loop execution";
  // Privatized dead arrays have unspecified post-loop contents (OpenMP
  // PRIVATE semantics); compare everything else.
  std::set<unsigned> Dead = deadPrivateIds(Plan);
  EXPECT_NEAR(Serial.checksumExcluding(Dead),
              Parallel.checksumExcluding(Dead),
              std::abs(Serial.checksum()) * 1e-9 + 1e-9)
      << B.Name << ": parallel result diverged";
}

std::string benchCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"TRFD", "DYFESM", "BDNA", "P3M", "TREE"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParallelEquiv,
                         ::testing::Values(0, 1, 2, 3, 4), benchCaseName);

TEST(ParallelExec, FigureExamplesMatchSerial) {
  for (const std::string &Src :
       {benchprogs::fig1aSource(), benchprogs::fig1bSource(),
        benchprogs::fig14Source(), benchprogs::fig3Source()}) {
    auto P = parseOrDie(Src);
    xform::PipelineResult Plan =
        xform::parallelize(*P, xform::PipelineMode::Full);
    Interpreter I(*P);
    Memory Serial = I.run(ExecOptions{});
    ExecOptions Par;
    Par.Plans = &Plan;
    Par.Threads = 3;
    Memory Parallel = I.run(Par);
    std::set<unsigned> Dead = deadPrivateIds(Plan);
    EXPECT_NEAR(Serial.checksumExcluding(Dead),
                Parallel.checksumExcluding(Dead),
                std::abs(Serial.checksum()) * 1e-9 + 1e-9);
  }
}

TEST(ParallelExec, SingleThreadDispatchesOneVmChunk) {
  // A plan-marked loop dispatches the same way at every thread count: at
  // T=1 each dispatch is one VM chunk through the same transaction and
  // commit, so the 1-processor baseline runs the parallel run's engine.
  auto P = parseOrDie(benchprogs::fig14Source());
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  Interpreter I(*P);
  Memory Serial = I.run(ExecOptions{});
  ExecOptions One;
  One.Plans = &Plan;
  One.Threads = 1;
  One.MinParallelWork = 0;
  ExecStats Stats;
  Memory M = I.run(One, &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_GT(Stats.ParallelLoopRuns, 0u);
  EXPECT_EQ(Stats.ChunksRun, Stats.ParallelLoopRuns);
  EXPECT_EQ(Stats.VmParallelLoopRuns, Stats.ParallelLoopRuns);
  std::set<unsigned> Dead = deadPrivateIds(Plan);
  EXPECT_EQ(M.checksumExcluding(Dead), Serial.checksumExcluding(Dead));
}

} // namespace
