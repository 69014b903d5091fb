//===- tests/test_racecheck.cpp - Shadow-memory race checker tests --------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The differential harness of the plan auditor: every certified plan must
/// run race-free under the interpreter's shadow-memory checker, and every
/// seeded plan mutation the auditor flags statically must also surface as a
/// concrete dynamic race. A planner bug that slipped past both layers would
/// need to fool two independent oracles — a symbolic one and a concrete one.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "verify/PlanAudit.h"
#include "verify/PlanMutator.h"
#include "xform/Parallelizer.h"

#include <cmath>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using namespace iaa::verify;
using iaa::test::parseOrDie;

namespace {

struct Harness {
  std::unique_ptr<Program> P;
  xform::PipelineResult Plan;

  explicit Harness(const std::string &Source) : P(parseOrDie(Source)) {
    Plan = xform::parallelize(*P, xform::PipelineMode::Full);
  }

  /// Executes under the shadow-memory checker and returns the stats.
  ExecStats check() {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.RaceCheck = true;
    ExecStats Stats;
    I.run(Opts, &Stats);
    return Stats;
  }
};

//===----------------------------------------------------------------------===//
// Certified plans are dynamically race-free
//===----------------------------------------------------------------------===//

class BenchmarkRaceCheck : public ::testing::TestWithParam<int> {};

TEST_P(BenchmarkRaceCheck, CertifiedPlanHasNoRaces) {
  auto All = benchprogs::allBenchmarks(/*Scale=*/0.05);
  const benchprogs::BenchmarkProgram &B = All[GetParam()];
  Harness R(B.Source);

  // The static certificate first: the auditor accepts the plan.
  PlanAuditor Auditor(*R.P);
  ASSERT_TRUE(Auditor.audit(R.Plan).allCertified());

  // Then the dynamic cross-check: zero conflicts observed.
  ExecStats Stats = R.check();
  EXPECT_EQ(Stats.RacesFound, 0u) << B.Name << ": "
                                  << (Stats.Races.empty()
                                          ? std::string()
                                          : Stats.Races.front().str());
}

std::string raceCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"TRFD", "DYFESM", "BDNA", "P3M", "TREE"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkRaceCheck,
                         ::testing::Values(0, 1, 2, 3, 4), raceCaseName);

TEST(RaceCheck, FigureKernelsAreRaceFree) {
  for (const std::string &Source :
       {benchprogs::fig1aSource(), benchprogs::fig1bSource(),
        benchprogs::fig3Source(), benchprogs::fig14Source()}) {
    ExecStats Stats = Harness(Source).check();
    EXPECT_EQ(Stats.RacesFound, 0u)
        << (Stats.Races.empty() ? std::string() : Stats.Races.front().str());
  }
}

TEST(RaceCheck, ShadowRunMatchesSerialResult) {
  // The monitored execution is a serial execution with bookkeeping: the
  // final memory must be bit-identical to a plain serial run.
  auto B = benchprogs::p3m(0.05);
  Harness R(B.Source);
  Interpreter I(*R.P);
  Memory Serial = I.run(ExecOptions{});

  ExecOptions Opts;
  Opts.Plans = &R.Plan;
  Opts.RaceCheck = true;
  Memory Shadowed = I.run(Opts);
  EXPECT_EQ(Serial.checksum(), Shadowed.checksum());
}

//===----------------------------------------------------------------------===//
// Seeded mutations: each flagged statically AND confirmed dynamically
//===----------------------------------------------------------------------===//

/// Applies \p M, asserts the auditor refuses to certify the mutated plan,
/// and returns the dynamic race count observed when executing it.
unsigned auditThenRun(Harness &R, const Mutation &M) {
  EXPECT_TRUE(applyMutation(R.Plan, *R.P, M))
      << mutationKindName(M.Kind) << " did not apply";
  PlanAuditor Auditor(*R.P);
  AuditResult A = Auditor.audit(R.Plan);
  const LoopAudit *LA = A.auditFor(M.Loop);
  EXPECT_NE(LA, nullptr);
  if (LA) {
    EXPECT_NE(LA->Verdict, AuditVerdict::Certified)
        << "auditor missed the seeded bug:\n"
        << LA->str();
  }
  return R.check().RacesFound;
}

TEST(RaceCheck, DropPrivatizationRaces) {
  auto B = benchprogs::bdna(0.05);
  Harness R(B.Source);
  const DoStmt *L = R.P->findLoop("do240");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Plan = R.Plan.planFor(L);
  ASSERT_NE(Plan, nullptr);
  ASSERT_FALSE(Plan->PrivateArrays.empty());
  std::string Dropped = (*Plan->PrivateArrays.begin())->name();

  unsigned Races = auditThenRun(
      R, {MutationKind::DropPrivatization, "do240", Dropped});
  EXPECT_GT(Races, 0u) << "unprivatized " << Dropped
                       << " raced in no iteration pair";
}

TEST(RaceCheck, DropReductionRaces) {
  Harness R(R"(program t
    integer i, n
    real s, x(100)
    n = 100
    s = 0.0
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  unsigned Races = auditThenRun(R, {MutationKind::DropReduction, "red", "s"});
  EXPECT_GT(Races, 0u);

  // The shared-scalar update is a flow dependence between every pair of
  // adjacent iterations.
  ExecStats Stats = R.check();
  ASSERT_FALSE(Stats.Races.empty());
  bool SawFlow = false;
  for (const RaceRecord &Rec : Stats.Races)
    if (Rec.Var == "s" && Rec.Kind == RaceKind::ReadAfterWrite)
      SawFlow = true;
  EXPECT_TRUE(SawFlow) << Stats.Races.front().str();
}

TEST(RaceCheck, SkipLastValueLosesTheLiveOutElement) {
  // n is small enough that every conflict record fits under the storage
  // cap: the post-loop LastValueLoss scan must still find room.
  Harness R(R"(program t
    integer i, j, n, m
    real w(9), y(100), z(100)
    n = 24
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
  const xform::LoopReport *Rep = R.Plan.reportFor("lv");
  ASSERT_NE(Rep, nullptr);
  ASSERT_FALSE(Rep->Parallel) << "planner should refuse: " << Rep->WhyNot;

  unsigned Races = auditThenRun(R, {MutationKind::SkipLastValue, "lv", "w"});
  EXPECT_GT(Races, 0u);

  // w(m+1) is written only by iterations 1..4: its final write is not in
  // the final iteration (the writeback loses it), and later iterations
  // read it before any write of their own.
  ExecStats Stats = R.check();
  bool SawLoss = false, SawExposed = false;
  for (const RaceRecord &Rec : Stats.Races) {
    if (Rec.Var != "w")
      continue;
    SawLoss |= Rec.Kind == RaceKind::LastValueLoss;
    SawExposed |= Rec.Kind == RaceKind::ExposedPrivateRead;
  }
  EXPECT_TRUE(SawLoss);
  EXPECT_TRUE(SawExposed);
}

TEST(RaceCheck, DroppedWritebackLosesEveryWrittenElement) {
  // Audit.LivenessIsReDerivedNotReadOffThePlan's program: t is read after
  // lp only as the step of `after`. The plan privatizes t but leaves it
  // out of LiveOutArrays, so the writeback is dropped; the checker derives
  // t's liveness itself and reports every element lp wrote as lost (at
  // T=4 the dropped writeback faults `after` with a zero step).
  Harness R(R"(program p
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
  ASSERT_TRUE(
      applyMutation(R.Plan, *R.P, {MutationKind::SkipLastValue, "lp", "t"}));
  R.Plan.Plans.at(R.P->findLoop("lp"))
      .LiveOutArrays.erase(R.P->findSymbol("t"));
  ExecStats Stats = R.check();
  EXPECT_EQ(Stats.RacesFound, 300u) << "every t element lp wrote is lost";
  ASSERT_FALSE(Stats.Races.empty());
  for (const RaceRecord &Rec : Stats.Races) {
    EXPECT_EQ(Rec.Var, "t") << Rec.str();
    EXPECT_EQ(Rec.Kind, RaceKind::LastValueLoss) << Rec.str();
  }
}

TEST(RaceCheck, DroppedInjectivityPremiseRaces) {
  // ind() maps pairs of iterations to the same element; a plan that
  // trusted a bogus injectivity fact produces write-write conflicts.
  Harness R(R"(program t
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
  unsigned Races = auditThenRun(R, {MutationKind::ForceParallel, "gather", ""});
  EXPECT_GT(Races, 0u);

  ExecStats Stats = R.check();
  bool SawWW = false;
  for (const RaceRecord &Rec : Stats.Races)
    SawWW |= Rec.Var == "x" && Rec.Kind == RaceKind::WriteWrite;
  EXPECT_TRUE(SawWW);
}

TEST(RaceCheck, WidenedSectionRacesOnTheBoundaryElement) {
  // Adjacent segments share exactly their boundary element; the race is
  // real but sparse — one conflicting element per iteration pair.
  Harness R(R"(program t
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
  unsigned Races = auditThenRun(R, {MutationKind::ForceParallel,
                                    "widened", ""});
  EXPECT_GT(Races, 0u);
}

//===----------------------------------------------------------------------===//
// Record plumbing
//===----------------------------------------------------------------------===//

TEST(RaceCheck, CancelledRunStopsAtTheDeadline) {
  // A race-checked loop polls the run's deadline like any serial loop: a
  // cancelled token ends the run with a deadline fault, attributed to the
  // shadowed loop, instead of letting it run to completion.
  Harness R(R"(program t
    integer i
    real x(5000)
    lp: do i = 1, 5000
      x(i) = i * 2.0
    end do
  end)");
  ASSERT_NE(R.Plan.planFor(R.P->findLoop("lp")), nullptr);
  CancelToken Cancel;
  Cancel.cancel();
  Interpreter I(*R.P);
  ExecOptions Opts;
  Opts.Plans = &R.Plan;
  Opts.RaceCheck = true;
  Opts.Cancel = &Cancel;
  I.run(Opts);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::DeadlineExceeded) << FS.str();
  EXPECT_EQ(FS.Fault.Loop, "lp");
}

TEST(RaceCheck, RecordsNameTheLoopAndKind) {
  Harness R(R"(program t
    integer i, n
    real a(101)
    n = 100
    carried: do i = 1, n
      a(i + 1) = a(i) + 1.0
    end do
  end)");
  ASSERT_TRUE(applyMutation(R.Plan, *R.P,
                            {MutationKind::ForceParallel, "carried", ""}));
  ExecStats Stats = R.check();
  ASSERT_GT(Stats.RacesFound, 0u);
  ASSERT_FALSE(Stats.Races.empty());
  const RaceRecord &Rec = Stats.Races.front();
  EXPECT_EQ(Rec.Loop, "carried");
  EXPECT_EQ(Rec.Var, "a");
  EXPECT_LT(Rec.IterA, Rec.IterB);
  EXPECT_NE(std::string(raceKindName(Rec.Kind)), "");
  EXPECT_NE(Rec.str().find("carried"), std::string::npos);
  // The cap bounds stored records, never the count.
  EXPECT_LE(Stats.Races.size(), 64u);
  EXPECT_GE(Stats.RacesFound, static_cast<unsigned>(Stats.Races.size()));
}

} // namespace
