//===- tests/test_audit.cpp - Plan auditor certification tests ------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The plan auditor re-derives every parallel-marked loop's race freedom
/// without reusing the dependence tester's conclusions. These tests pin
/// the two sides of its contract: every loop the paper parallelizes is
/// independently Certified (zero Rejected anywhere), and seeded planner
/// bugs — dropped privatization, dropped reduction, unproved last-value
/// writeback, a live array left out of LiveOutArrays, force-parallelized
/// dependences — are flagged.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "verify/PlanAudit.h"
#include "verify/PlanMutator.h"
#include "xform/Parallelizer.h"

using namespace iaa;
using namespace iaa::mf;
using namespace iaa::verify;
using namespace iaa::xform;
using iaa::test::parseOrDie;

namespace {

struct Audited {
  std::unique_ptr<Program> P;
  PipelineResult R;
  AuditResult A;

  explicit Audited(const std::string &Source) : P(parseOrDie(Source)) {
    R = parallelize(*P, PipelineMode::Full);
    PlanAuditor Auditor(*P);
    A = Auditor.audit(R);
  }
};

AuditVerdict verdictOf(const Audited &Au, const std::string &Label) {
  const LoopAudit *LA = Au.A.auditFor(Label);
  EXPECT_NE(LA, nullptr) << Label << " was not audited (not parallel?)";
  return LA ? LA->Verdict : AuditVerdict::Rejected;
}

//===----------------------------------------------------------------------===//
// Certification of the paper's parallel loops
//===----------------------------------------------------------------------===//

TEST(Audit, CertifiesFig16Kernels) {
  for (const std::string &Source :
       {benchprogs::fig1aSource(), benchprogs::fig1bSource(),
        benchprogs::fig3Source(), benchprogs::fig14Source()}) {
    Audited Au(Source);
    EXPECT_FALSE(Au.A.Loops.empty()) << "kernel parallelized no loops";
    EXPECT_TRUE(Au.A.allCertified())
        << "auditor disagrees with the planner:\n"
        << Au.A.str();
    EXPECT_EQ(Au.A.numWithVerdict(AuditVerdict::Rejected), 0u) << Au.A.str();
  }
}

class BenchmarkAudit : public ::testing::TestWithParam<int> {};

TEST_P(BenchmarkAudit, CertifiesEveryParallelLoop) {
  auto All = benchprogs::allBenchmarks(/*Scale=*/0.05);
  const benchprogs::BenchmarkProgram &B = All[GetParam()];
  Audited Au(B.Source);

  // Zero Rejected: the auditor never contradicts a plan the paper's
  // analyses justified.
  EXPECT_EQ(Au.A.numWithVerdict(AuditVerdict::Rejected), 0u)
      << B.Name << ":\n"
      << Au.A.str();

  // Every irregular loop of Table 3 is not just accepted but independently
  // re-proved.
  for (const std::string &Label : B.IrregularLoops)
    EXPECT_EQ(verdictOf(Au, Label), AuditVerdict::Certified)
        << B.Name << "/" << Label << ":\n"
        << Au.A.str();

  // And the audit is total over parallel-marked loops.
  EXPECT_TRUE(Au.A.allCertified()) << B.Name << ":\n" << Au.A.str();
}

std::string auditCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"TRFD", "DYFESM", "BDNA", "P3M", "TREE"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkAudit,
                         ::testing::Values(0, 1, 2, 3, 4), auditCaseName);

//===----------------------------------------------------------------------===//
// Outcome recording and strict demotion
//===----------------------------------------------------------------------===//

TEST(Audit, RecordAuditFillsOutcomesAndRemarks) {
  Audited Au(benchprogs::fig3Source());
  size_t RemarksBefore = Au.R.Remarks.size();
  unsigned Demoted = recordAudit(Au.R, Au.A, AuditMode::Warn);
  EXPECT_EQ(Demoted, 0u);
  ASSERT_EQ(Au.R.AuditOutcomes.size(), Au.A.Loops.size());
  EXPECT_EQ(Au.R.Remarks.size(), RemarksBefore + Au.A.Loops.size());
  for (const auto &O : Au.R.AuditOutcomes) {
    EXPECT_EQ(O.Verdict, "certified");
    EXPECT_FALSE(O.Demoted);
  }
  bool SawAuditRemark = false;
  for (const Remark &M : Au.R.Remarks)
    if (M.K == Remark::Kind::Audit)
      SawAuditRemark = true;
  EXPECT_TRUE(SawAuditRemark);
}

TEST(Audit, StrictDemotesUncertifiedPlans) {
  // A loop with a genuine loop-carried array dependence, force-marked
  // parallel as a planner bug would.
  Audited Au(R"(program t
    integer i, n
    real a(101)
    n = 100
    carried: do i = 1, n
      a(i + 1) = a(i) + 1.0
    end do
  end)");
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::ForceParallel,
                                          "carried", ""}));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("carried");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified) << LA->str();

  unsigned Demoted = recordAudit(Au.R, A2, AuditMode::Strict);
  EXPECT_EQ(Demoted, 1u);
  const DoStmt *L = Au.P->findLoop("carried");
  EXPECT_EQ(Au.R.planFor(L), nullptr) << "strict mode must clear the plan";
  ASSERT_FALSE(Au.R.AuditOutcomes.empty());
  EXPECT_TRUE(Au.R.AuditOutcomes.front().Demoted);
  const LoopReport *Rep = Au.R.reportFor("carried");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel);
}

TEST(Audit, RejectedCarriesStructuredCounterexample) {
  // Every iteration writes the same whole section [1, m]: a definite
  // write-write overlap between iterations 1 and 2.
  Audited Au(R"(program t
    integer i, j, n, m
    real a(8)
    n = 100
    m = 8
    conflict: do i = 1, n
      do j = 1, m
        a(j) = a(j) + 1.0
      end do
    end do
  end)");
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::ForceParallel,
                                          "conflict", ""}));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("conflict");
  ASSERT_NE(LA, nullptr);
  EXPECT_EQ(LA->Verdict, AuditVerdict::Rejected) << LA->str();
  ASSERT_TRUE(LA->Counterexample.has_value());
  const AuditCounterexample &CE = *LA->Counterexample;
  ASSERT_NE(CE.Var, nullptr);
  EXPECT_EQ(CE.Var->name(), "a");
  EXPECT_EQ(CE.IterA, "i = 1");
  EXPECT_EQ(CE.IterB, "i = 2");
  EXPECT_FALSE(CE.SectionA.empty());
  EXPECT_FALSE(CE.SectionB.empty());
}

//===----------------------------------------------------------------------===//
// The audit re-checks premises, not just conclusions
//===----------------------------------------------------------------------===//

TEST(Audit, DropPrivatizationIsFlagged) {
  auto B = benchprogs::bdna(0.05);
  Audited Au(B.Source);
  ASSERT_EQ(verdictOf(Au, "do240"), AuditVerdict::Certified);

  // Find the privatized array of do240 and drop it from the plan.
  const DoStmt *L = Au.P->findLoop("do240");
  ASSERT_NE(L, nullptr);
  const LoopPlan *Plan = Au.R.planFor(L);
  ASSERT_NE(Plan, nullptr);
  ASSERT_FALSE(Plan->PrivateArrays.empty());
  std::string Dropped = (*Plan->PrivateArrays.begin())->name();
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::DropPrivatization,
                                          "do240", Dropped}));

  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("do240");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified)
      << "dropping privatization of " << Dropped << " must be flagged:\n"
      << LA->str();
}

TEST(Audit, DropReductionIsFlagged) {
  Audited Au(R"(program t
    integer i, n
    real s, x(100)
    n = 100
    s = 0.0
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  ASSERT_EQ(verdictOf(Au, "red"), AuditVerdict::Certified);
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::DropReduction,
                                          "red", "s"}));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("red");
  ASSERT_NE(LA, nullptr);
  EXPECT_EQ(LA->Verdict, AuditVerdict::Rejected) << LA->str();
  ASSERT_TRUE(LA->Counterexample.has_value());
  EXPECT_EQ(LA->Counterexample->Var->name(), "s");
}

TEST(Audit, SkipLastValueIsFlagged) {
  // The planner stays serial here: w is live after the loop and iteration
  // i only rewrites w(1..m) fully, while early iterations also write
  // w(m+1) — the final iteration's copy would lose it. The mutation
  // claims the proof anyway.
  Audited Au(R"(program t
    integer i, j, n, m
    real w(9), y(100), z(100)
    n = 100
    m = 8
    lv: do i = 1, n
      do j = 1, m
        w(j) = y(i) * 2.0
      end do
      if (i <= 4) then
        w(m + 1) = y(i)
      end if
      z(i) = w(1) + w(m + 1)
    end do
    y(1) = w(m + 1)
  end)");
  const LoopReport *Rep = Au.R.reportFor("lv");
  ASSERT_NE(Rep, nullptr);
  ASSERT_FALSE(Rep->Parallel) << "planner should refuse: " << Rep->WhyNot;
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::SkipLastValue,
                                          "lv", "w"}));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("lv");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified) << LA->str();
  bool SawFailedLastValue = false;
  for (const ObligationCheck &O : LA->Obligations)
    if (O.Kind == "live-out-reproducible" && !O.Ok)
      SawFailedLastValue = true;
  EXPECT_TRUE(SawFailedLastValue) << LA->str();
}

TEST(Audit, LivenessIsReDerivedNotReadOffThePlan) {
  // t is read after lp only as the step of `after`, and iteration i writes
  // t(i:300), so no final-iteration writeback reproduces the serial t. A
  // plan that privatizes t but leaves it out of LiveOutArrays drops the
  // writeback altogether (the plan a live-out query that skipped do steps
  // produced); the auditor must see that t is live on its own.
  Audited Au(R"(program p
    integer i, k, c
    integer t(300)
    real s(300)
    c = 0
    lp: do i = 1, 300
      do k = i, 300
        t(k) = i
      end do
      s(i) = t(i) * 2.0
    end do
    after: do k = 1, 30000, t(2)
      c = c + k
    end do
  end)");
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::SkipLastValue,
                                          "lp", "t"}));
  Au.R.Plans.at(Au.P->findLoop("lp")).LiveOutArrays.erase(
      Au.P->findSymbol("t"));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("lp");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified) << LA->str();
  bool SawFailedLastValue = false;
  for (const ObligationCheck &O : LA->Obligations)
    if (O.Kind == "live-out-reproducible" && O.Subject == "t" && !O.Ok)
      SawFailedLastValue = true;
  EXPECT_TRUE(SawFailedLastValue) << LA->str();
}

TEST(Audit, DroppedInjectivityPremiseIsFlagged) {
  // ind() has duplicate values, so the planner's injectivity proof fails
  // and the loop stays serial; force-parallelizing reproduces a planner
  // that trusted a wrong INJ fact. The auditor re-checks the premise with
  // its own solver and must refuse to certify.
  Audited Au(R"(program t
    integer i, n
    integer ind(100)
    real x(200)
    n = 100
    do i = 1, n
      ind(i) = i - (i / 2) * 2 + 1
    end do
    gather: do i = 1, n
      x(ind(i)) = x(ind(i)) + 1.0
    end do
  end)");
  const LoopReport *Rep = Au.R.reportFor("gather");
  ASSERT_NE(Rep, nullptr);
  ASSERT_FALSE(Rep->Parallel) << "planner should refuse: " << Rep->WhyNot;
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::ForceParallel,
                                          "gather", ""}));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("gather");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified) << LA->str();
}

TEST(Audit, WidenedSectionIsRejectedWithWitness) {
  // Segments [ptr(i), ptr(i) + len(i)] overlap by exactly one element at
  // each boundary (a widened section): ptr(i+1) = ptr(i) + len(i), and
  // iteration i writes up to ptr(i) + len(i) inclusive. The CFD rewrite
  // lets the auditor prove the overlap, not merely fail to certify.
  Audited Au(R"(program t
    integer i, n
    integer ptr(101), len(100)
    real x(1000)
    integer j, lo, hi
    n = 100
    do i = 1, n
      len(i) = 3
    end do
    ptr(1) = 1
    do i = 1, n
      ptr(i + 1) = ptr(i) + len(i)
    end do
    widened: do i = 1, n
      lo = ptr(i)
      hi = ptr(i) + len(i)
      do j = lo, hi
        x(j) = x(j) + 1.0
      end do
    end do
  end)");
  const LoopReport *Rep = Au.R.reportFor("widened");
  ASSERT_NE(Rep, nullptr);
  ASSERT_FALSE(Rep->Parallel) << "planner should refuse: " << Rep->WhyNot;
  ASSERT_TRUE(applyMutation(Au.R, *Au.P, {MutationKind::ForceParallel,
                                          "widened", ""}));
  PlanAuditor Auditor(*Au.P);
  AuditResult A2 = Auditor.audit(Au.R);
  const LoopAudit *LA = A2.auditFor("widened");
  ASSERT_NE(LA, nullptr);
  EXPECT_EQ(LA->Verdict, AuditVerdict::Rejected) << LA->str();
  ASSERT_TRUE(LA->Counterexample.has_value());
  EXPECT_EQ(LA->Counterexample->Var->name(), "x");
}

} // namespace
