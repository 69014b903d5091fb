//===- tests/test_pipeline.cpp - Whole-pipeline analysis tests ------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// These tests pin the paper's headline result: with the irregular array
/// access analyses on, the Table 3 loops of all five programs parallelize;
/// without them, none do.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "support/Statistic.h"
#include "verify/PlanAudit.h"
#include "xform/Parallelizer.h"
#include "xform/Passes.h"

using namespace iaa;
using namespace iaa::mf;
using namespace iaa::xform;
using iaa::test::parseOrDie;

namespace {

bool loopParallel(const PipelineResult &R, const std::string &Label) {
  const LoopReport *Rep = R.reportFor(Label);
  return Rep && Rep->Parallel;
}

//===----------------------------------------------------------------------===//
// Normalization passes
//===----------------------------------------------------------------------===//

TEST(Passes, ConstantPropagation) {
  auto P = parseOrDie(R"(program t
    integer n, a
    n = 100
    a = n + 1
  end)");
  unsigned Changes = propagateConstants(*P);
  EXPECT_GE(Changes, 1u);
  const auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[1]);
  sym::SymExpr Rhs = sym::SymExpr::fromAst(AS->rhs());
  EXPECT_TRUE(Rhs.isConstant());
  EXPECT_EQ(Rhs.constValue(), 101);
}

TEST(Passes, ConstPropSkipsMultiplyAssigned) {
  auto P = parseOrDie(R"(program t
    integer n, a
    n = 100
    n = 200
    a = n
  end)");
  propagateConstants(*P);
  const auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[2]);
  EXPECT_FALSE(sym::SymExpr::fromAst(AS->rhs()).isConstant());
}

TEST(Passes, ForwardSubstitution) {
  auto P = parseOrDie(R"(program t
    integer j, jj, n
    integer ind(10)
    real x(10), z(10)
    n = 10
    do j = 1, n
      jj = ind(j)
      z(jj) = x(jj) * 2.0
    end do
  end)");
  unsigned Changes = forwardSubstitute(*P);
  EXPECT_GE(Changes, 1u);
  auto *Loop = cast<DoStmt>(P->mainProcedure()->body()[1]);
  const auto *AS = cast<AssignStmt>(Loop->body()[1]);
  // z(jj) must have become z(ind(j)).
  const auto *T = AS->arrayTarget();
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(isa<mf::ArrayRef>(T->subscript(0)));
}

TEST(Passes, ForwardSubstitutionStopsAtRedefinition) {
  auto P = parseOrDie(R"(program t
    integer a, b, c, d
    b = 1
    a = b + 1
    b = 99
    c = a
    d = a
  end)");
  forwardSubstitute(*P);
  // c = a could not be replaced by b+1 because b changed.
  const auto *AS = cast<AssignStmt>(P->mainProcedure()->body()[3]);
  sym::SymExpr Rhs = sym::SymExpr::fromAst(AS->rhs());
  // After constant folding "a" may remain symbolic; the point is that it
  // must NOT reference b's stale value: either VarRef(a) or literal 2 via
  // chains, never b + 1.
  EXPECT_FALSE(Rhs.references(P->findSymbol("b")));
}

TEST(Passes, DeadCodeElimination) {
  auto P = parseOrDie(R"(program t
    integer a, b
    real x(5)
    a = 1
    b = a + 2
    x(1) = 1.0
  end)");
  // b is never read: its assignment dies; then a is never read either.
  unsigned Removed = eliminateDeadCode(*P);
  EXPECT_EQ(Removed, 2u);
  EXPECT_EQ(P->mainProcedure()->body().size(), 1u);
}

TEST(Passes, InductionSubstitution) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(100)
    n = 50
    p = 0
    do i = 1, n
      p = p + 1
      x(p) = 1.0
    end do
  end)");
  unsigned Changes = substituteInductions(*P);
  EXPECT_EQ(Changes, 1u);
  auto *Loop = cast<DoStmt>(P->mainProcedure()->body()[2]);
  const auto *AS = cast<AssignStmt>(Loop->body()[1]);
  // x(p) became x(0 + 1*(i - 1 + 1)) = affine in i.
  sym::SymExpr Sub = sym::SymExpr::fromAst(AS->arrayTarget()->subscript(0));
  EXPECT_EQ(Sub.coeffOfVar(P->findSymbol("i")), 1);
  EXPECT_FALSE(Sub.references(P->findSymbol("p")));
}

TEST(Passes, InductionSubstitutionSkipsConditional) {
  auto P = parseOrDie(R"(program t
    integer i, n, p
    real x(100), y(100)
    n = 50
    p = 0
    do i = 1, n
      if (y(i) > 0) then
        p = p + 1
      end if
      x(p + 1) = 1.0
    end do
  end)");
  EXPECT_EQ(substituteInductions(*P), 0u);
}

//===----------------------------------------------------------------------===//
// Paper figure programs
//===----------------------------------------------------------------------===//

TEST(Pipeline, Fig1aParallelWithIAA) {
  auto P = parseOrDie(benchprogs::fig1aSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  ASSERT_NE(R.reportFor("dok"), nullptr);
  EXPECT_TRUE(loopParallel(R, "dok")) << R.str();
  // x must be privatized via the consecutively-written property.
  const LoopReport *Rep = R.reportFor("dok");
  bool FoundCW = false;
  for (const auto &O : Rep->PrivOutcomes)
    if (O.Array->name() == "x" && O.Privatizable && O.Reason == "CW")
      FoundCW = true;
  EXPECT_TRUE(FoundCW) << R.str();
}

TEST(Pipeline, Fig1aSerialWithoutIAA) {
  auto P = parseOrDie(benchprogs::fig1aSource());
  PipelineResult R = parallelize(*P, PipelineMode::NoIAA);
  EXPECT_FALSE(loopParallel(R, "dok")) << R.str();
}

TEST(Pipeline, Fig1bStackPrivatization) {
  auto P = parseOrDie(benchprogs::fig1bSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_TRUE(loopParallel(R, "doi")) << R.str();
  const LoopReport *Rep = R.reportFor("doi");
  bool FoundStack = false;
  for (const auto &O : Rep->PrivOutcomes)
    if (O.Array->name() == "t" && O.Privatizable && O.Reason == "STACK")
      FoundStack = true;
  EXPECT_TRUE(FoundStack) << R.str();
}

TEST(Pipeline, Fig3OffsetLengthTest) {
  auto P = parseOrDie(benchprogs::fig3Source());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_TRUE(loopParallel(R, "d200")) << R.str();
  const LoopReport *Rep = R.reportFor("d200");
  bool UsedOffsetLength = false;
  for (const auto &O : Rep->DepOutcomes)
    if (O.Test == deptest::TestKind::OffsetLength)
      UsedOffsetLength = true;
  EXPECT_TRUE(UsedOffsetLength) << R.str();
  // The inner loop is trivially parallel too (distinct j elements).
  EXPECT_TRUE(loopParallel(R, "d300")) << R.str();
}

TEST(Pipeline, Fig14GatherPrivatization) {
  auto P = parseOrDie(benchprogs::fig14Source());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_TRUE(loopParallel(R, "dok")) << R.str();
  EXPECT_TRUE(loopParallel(R, "doj")) << R.str();
}

//===----------------------------------------------------------------------===//
// The five benchmarks: Table 3's parallelization outcomes
//===----------------------------------------------------------------------===//

struct BenchCase {
  int Index;
  const char *Name;
};

class BenchmarkPipeline : public ::testing::TestWithParam<int> {};

TEST_P(BenchmarkPipeline, IrregularLoopsParallelOnlyWithIAA) {
  auto All = benchprogs::allBenchmarks(/*Scale=*/0.05);
  const benchprogs::BenchmarkProgram &B = All[GetParam()];

  auto P1 = parseOrDie(B.Source);
  PipelineResult Full = parallelize(*P1, PipelineMode::Full);
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_TRUE(loopParallel(Full, Label))
        << B.Name << "/" << Label << " should parallelize with IAA\n"
        << Full.str();

  auto P2 = parseOrDie(B.Source);
  PipelineResult Base = parallelize(*P2, PipelineMode::NoIAA);
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_FALSE(loopParallel(Base, Label))
        << B.Name << "/" << Label << " must stay serial without IAA";

  auto P3 = parseOrDie(B.Source);
  PipelineResult Apo = parallelize(*P3, PipelineMode::Apo);
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_FALSE(loopParallel(Apo, Label))
        << B.Name << "/" << Label << " must stay serial under APO";
}

std::string pipelineCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"TRFD", "DYFESM", "BDNA", "P3M", "TREE"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkPipeline,
                         ::testing::Values(0, 1, 2, 3, 4), pipelineCaseName);

TEST(Pipeline, TrfdUsesClosedFormDistance) {
  auto B = benchprogs::trfd(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do140");
  ASSERT_NE(Rep, nullptr);
  bool UsedCFD = false;
  for (const auto &O : Rep->DepOutcomes)
    for (const std::string &Prop : O.PropertiesUsed)
      if (Prop.find("CFD") != std::string::npos)
        UsedCFD = true;
  EXPECT_TRUE(UsedCFD) << R.str();
  // TRFD's ia() additionally has a constant base: the paper reports CFV.
  EXPECT_TRUE(analysis::ClosedFormDistanceChecker::hasConstantBase(
      *P, P->findSymbol("ia")));
}

TEST(Pipeline, DyfesmUsesOffsetLengthWithCfb) {
  auto B = benchprogs::dyfesm(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do4");
  ASSERT_NE(Rep, nullptr);
  bool OffsetLength = false, UsedCfb = false;
  for (const auto &O : Rep->DepOutcomes) {
    if (O.Test == deptest::TestKind::OffsetLength)
      OffsetLength = true;
    for (const std::string &Prop : O.PropertiesUsed)
      if (Prop.find("CFB") != std::string::npos)
        UsedCfb = true;
  }
  EXPECT_TRUE(OffsetLength) << R.str();
  EXPECT_TRUE(UsedCfb) << R.str();
  // pptr has no constant base (runtime istart): CFD, not CFV.
  EXPECT_FALSE(analysis::ClosedFormDistanceChecker::hasConstantBase(
      *P, P->findSymbol("pptr")));
}

TEST(Pipeline, BdnaPrivatizesThroughCfb) {
  auto B = benchprogs::bdna(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do240");
  ASSERT_NE(Rep, nullptr);
  bool XdtViaCfb = false, IndViaCw = false;
  for (const auto &O : Rep->PrivOutcomes) {
    if (O.Array->name() == "xdt" && O.Privatizable &&
        O.Reason == "CFB-indirect")
      XdtViaCfb = true;
    if (O.Array->name() == "ind" && O.Privatizable && O.Reason == "CW")
      IndViaCw = true;
  }
  EXPECT_TRUE(XdtViaCfb) << R.str();
  EXPECT_TRUE(IndViaCw) << R.str();
  // The gather loop itself stays serial (carried counter).
  EXPECT_FALSE(loopParallel(R, "do236"));
}

TEST(Pipeline, TreePrivatizesStack) {
  auto B = benchprogs::tree(0.05);
  auto P = parseOrDie(B.Source);
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("do10");
  ASSERT_NE(Rep, nullptr);
  EXPECT_TRUE(Rep->Parallel) << R.str();
  bool StackPriv = false;
  for (const auto &O : Rep->PrivOutcomes)
    if (O.Array->name() == "stack" && O.Privatizable && O.Reason == "STACK")
      StackPriv = true;
  EXPECT_TRUE(StackPriv) << R.str();
}

TEST(Pipeline, ReductionRecognition) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(100)
    n = 100
    do i = 1, n
      x(i) = i * 0.5
    end do
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("red");
  ASSERT_NE(Rep, nullptr);
  EXPECT_TRUE(Rep->Parallel) << R.str();
  EXPECT_EQ(Rep->Reductions.size(), 1u);
}

TEST(Pipeline, ApoRejectsReductions) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(100)
    n = 100
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Apo);
  EXPECT_FALSE(loopParallel(R, "red"));
}

TEST(Pipeline, CarriedScalarBlocks) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(100)
    n = 100
    carry: do i = 1, n
      x(i) = s * 0.5
      s = x(i) + 1.0
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_FALSE(loopParallel(R, "carry")) << R.str();
}

TEST(Pipeline, TrueArrayDependenceBlocks) {
  auto P = parseOrDie(R"(program t
    integer i, n
    real x(101)
    n = 100
    rec: do i = 1, n
      x(i + 1) = x(i) * 0.5 + 1.0
    end do
  end)");
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  EXPECT_FALSE(loopParallel(R, "rec")) << R.str();
}

//===----------------------------------------------------------------------===//
// Planning cost scales linearly with program size
//===----------------------------------------------------------------------===//

/// K copies of a Fig. 3 CCS kernel plus a Fig. 1(a) kernel; copy c names
/// its arrays and loops with the suffix c, so every copy plans alike.
std::string scaledProgram(unsigned K) {
  std::string Decls = "program scaled\n  integer i, j, k\n", Body;
  for (unsigned C = 0; C < K; ++C) {
    std::string Copy = R"(  do i = 1, 20
    ln@(i) = mod(i * 7, 4) + 1
  end do
  off@(1) = 1
  do i = 1, 20
    off@(i + 1) = off@(i) + ln@(i)
  end do
  ccs@: do i = 1, 20
    do j = 1, ln@(i)
      dat@(off@(i) + j - 1) = i * 0.5 + j
    end do
  end do
  do i = 1, 20
    y@(i) = i * 0.5
    lnk@(i) = i + 1
  end do
  lnk@(20) = 0
  dok@: do k = 1, 8
    p@ = 0
    i = lnk@(1)
    while (i /= 0)
      p@ = p@ + 1
      x@(p@) = y@(i) + k
      i = lnk@(i)
    end while
    do j = 1, p@
      dz@(k, j) = x@(j)
    end do
  end do
)";
    std::string Suffix = std::to_string(C);
    for (size_t At; (At = Copy.find('@')) != std::string::npos;)
      Copy.replace(At, 1, Suffix);
    Decls += "  integer p" + Suffix + ", off" + Suffix + "(21), ln" + Suffix +
             "(20), lnk" + Suffix + "(20)\n  real dat" + Suffix + "(81), x" +
             Suffix + "(20), y" + Suffix + "(20), dz" + Suffix + "(8, 20)\n";
    Body += Copy;
  }
  return Decls + Body + "end\n";
}

struct PlanningCounts {
  uint64_t Loops = 0;     ///< Loops the privatizer analyzed.
  uint64_t Sites = 0;     ///< Statements the live-out query examined.
  uint64_t Summaries = 0; ///< Whole-program SymbolUses summaries built.
};

PlanningCounts planAndAudit(unsigned K) {
  auto P = parseOrDie(scaledProgram(K));
  stat::Collector C;
  {
    stat::CollectorScope Scope(&C);
    PipelineResult R = parallelize(*P, PipelineMode::Full);
    verify::PlanAuditor Auditor(*P);
    verify::AuditResult A = Auditor.audit(R);
    EXPECT_TRUE(loopParallel(R, "ccs0")) << R.str();
    EXPECT_TRUE(loopParallel(R, "dok0")) << R.str();
    EXPECT_TRUE(A.allCertified()) << A.str();
  }
  return {C.value("priv_loops_analyzed"),
          C.value("priv_liveout_sites_examined"),
          C.value("uses_program_summaries")};
}

TEST(PlanningScale, LiveOutSitesPerLoopAndUseSummariesStayFlat) {
  // Deterministic counts, not wall time: a live-out query that scans the
  // whole program examines more statements per loop as the program grows,
  // and a query that rebuilds a whole-program use summary builds more of
  // them per compile.
  PlanningCounts Small = planAndAudit(100);
  PlanningCounts Large = planAndAudit(800);
  ASSERT_GT(Small.Loops, 0u);
  ASSERT_GT(Small.Sites, 0u);
  EXPECT_EQ(Large.Sites * Small.Loops, Small.Sites * Large.Loops)
      << "sites per loop: " << Small.Sites / double(Small.Loops)
      << " at K=100, " << Large.Sites / double(Large.Loops) << " at K=800";
  EXPECT_EQ(Large.Summaries, Small.Summaries);
}

} // namespace
