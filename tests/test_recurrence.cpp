//===- tests/test_recurrence.cpp - Recurrence-based promotion tests -------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The recurrence solver end to end: index-array-building loops are
/// classified on the None ⊑ Bounded ⊑ MonotoneNonDec ⊑ StrictlyIncreasing
/// lattice (direct and accumulator shapes, conditional widening, reset and
/// negative-step bailouts), the derived facts promote previously
/// runtime-conditional loops to unconditionally parallel plans, promoted
/// loops never touch the inspection verdict cache, the auditor re-derives
/// every promotion from scratch, a forged recurrence fact is caught by both
/// the auditor and the race checker, and strict demotion restores the
/// conditional dispatch a promotion replaced.
///
/// Suite names here start with "Recurrence" so the CI ThreadSanitizer job's
/// --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/RecurrenceSolver.h"
#include "analysis/SymbolUses.h"
#include "interp/Interpreter.h"
#include "support/Statistic.h"
#include "verify/PlanAudit.h"
#include "verify/PlanMutator.h"
#include "xform/Parallelizer.h"

#include <set>

using namespace iaa;
using namespace iaa::analysis;
using namespace iaa::interp;
using namespace iaa::mf;
using namespace iaa::verify;
using iaa::deptest::RuntimeCheck;
using iaa::deptest::RuntimeCheckKind;
using iaa::test::parseOrDie;

namespace {

const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// Fused CCS build: colcnt is defined in the same body the colptr
/// recurrence reads it, which defeats the statement-level CFD walk but not
/// the recurrence solver (step mod(i*5,7)+1 >= 1, so colptr is strictly
/// increasing and the scale loop's segments are disjoint). The scale loop
/// must come out unconditionally parallel with the monotone/offset-length
/// inspections deleted.
const char *FusedCcs = R"(program t
    integer i, j, n
    integer colptr(101), colcnt(100)
    real vals(800)
    n = 100
    colptr(1) = 1
    build: do i = 1, n
      colcnt(i) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
    end do
    fill: do i = 1, 800
      vals(i) = mod(i, 13) * 0.125
    end do
    scale: do i = 1, n
      do j = 1, colcnt(i)
        vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.5 + 0.25
      end do
    end do
  end)";

/// Prefix sum through a scalar accumulator: every step is >= 1, so pos is
/// strictly increasing (hence injective) and the scatter through it needs
/// no injectivity inspection. x has 3100 >= 3n elements, so the bounds
/// check discharges statically too.
const char *PrefixSumScatter = R"(program t
    integer i, n, p
    integer pos(1000)
    real x(3100), y(1000)
    n = 1000
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(pos(i)) = x(pos(i)) + y(i) * 0.5
    end do
  end)";

/// PrefixSumScatter with the scatter repeated three times — if a promoted
/// loop consulted the verdict cache, this is the program that would show
/// hits.
const char *PrefixSumScatterRep = R"(program t
    integer i, r, n, p
    integer pos(1000)
    real x(3100), y(1000)
    n = 1000
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, 3
      scat: do i = 1, n
        x(pos(i)) = x(pos(i)) + y(i) * 0.5
      end do
    end do
  end)";

/// Gather/scatter whose index array is a permutation of 1..n only at run
/// time: statically serial, parallel conditional on an injectivity
/// inspection. Repeated so demotion accounting (1 inspection + 2 cache
/// hits) is observable.
const char *PermutationScatterRep = R"(program t
    integer i, r, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, 3
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end do
  end)";

/// Every index value occurs twice: a forged promotion of this loop races.
const char *DuplicateScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, 500) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";

struct Harness {
  std::unique_ptr<Program> P;
  xform::PipelineResult Plan;

  explicit Harness(const std::string &Source) : P(parseOrDie(Source)) {
    Plan = xform::parallelize(*P, xform::PipelineMode::Full);
  }

  double serialChecksum() {
    Interpreter I(*P);
    Memory Serial = I.run(ExecOptions{});
    return Serial.checksumExcluding(deadPrivateIds(Plan));
  }

  ExecStats runChecked(Memory *OutMem = nullptr, unsigned Threads = 4) {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.Threads = Threads;
    Opts.MinParallelWork = 0;
    Opts.RuntimeChecks = true;
    ExecStats Stats;
    Memory M = I.run(Opts, &Stats);
    if (OutMem)
      *OutMem = std::move(M);
    return Stats;
  }
};

/// Catalog-only fixture for the classification unit tests.
struct CatalogFixture {
  std::unique_ptr<Program> P;
  std::unique_ptr<SymbolUses> Uses;
  std::unique_ptr<RecurrenceCatalog> C;

  explicit CatalogFixture(const std::string &Source) : P(parseOrDie(Source)) {
    Uses = std::make_unique<SymbolUses>(*P);
    C = std::make_unique<RecurrenceCatalog>(*P, *Uses);
  }

  const RecurrenceFact *fact(const char *Loop, const char *Array) {
    return C->factFor(P->findLoop(Loop), P->findSymbol(Array));
  }
};

//===----------------------------------------------------------------------===//
// Catalog: shape recognition and lattice classification
//===----------------------------------------------------------------------===//

TEST(RecurrenceCatalog, AccumulatorPrefixSumIsStrictlyIncreasing) {
  CatalogFixture F(PrefixSumScatter);
  const RecurrenceFact *R = F.fact("build", "pos");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Class, RecurrenceClass::StrictlyIncreasing) << R->describe();
  EXPECT_TRUE(R->Accumulator);
  ASSERT_NE(R->AccumulatorSym, nullptr);
  EXPECT_EQ(R->AccumulatorSym->name(), "p");
  EXPECT_FALSE(R->Conditional);
  EXPECT_TRUE(R->beyondStatementAnalysis());
  EXPECT_TRUE(R->Deps.touches(F.P->findSymbol("p")))
      << "a later write to the accumulator must invalidate the fact";
}

TEST(RecurrenceCatalog, ConditionalIncrementWidensToNonStrict) {
  CatalogFixture F(R"(program t
    integer i, n, p
    integer pos(1000), y(1000)
    n = 1000
    mk: do i = 1, n
      y(i) = mod(i, 4)
    end do
    p = 0
    build: do i = 1, n
      if (y(i) > 0) then
        p = p + 1
      end if
      pos(i) = p
    end do
  end)");
  const RecurrenceFact *R = F.fact("build", "pos");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Class, RecurrenceClass::MonotoneNonDec)
      << "a guarded increment may not fire: strictness is unprovable";
  EXPECT_TRUE(R->Conditional);
  EXPECT_TRUE(R->Accumulator);
}

TEST(RecurrenceCatalog, AccumulatorResetBails) {
  CatalogFixture F(R"(program t
    integer i, n, p
    integer pos(1000)
    n = 1000
    p = 0
    build: do i = 1, n
      p = p + 1
      if (mod(i, 10) == 0) then
        p = 0
      end if
      pos(i) = p
    end do
  end)");
  EXPECT_EQ(F.fact("build", "pos"), nullptr)
      << "a reset breaks monotonicity; no fact may be derived";
}

TEST(RecurrenceCatalog, NegativeAccumulatorStepBails) {
  CatalogFixture F(R"(program t
    integer i, n, p
    integer pos(1000)
    n = 1000
    p = 5000
    build: do i = 1, n
      p = p - 1
      pos(i) = p
    end do
  end)");
  EXPECT_EQ(F.fact("build", "pos"), nullptr);
}

TEST(RecurrenceCatalog, DirectShapeWithInBodyStep) {
  CatalogFixture F(FusedCcs);
  const RecurrenceFact *R = F.fact("build", "colptr");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Class, RecurrenceClass::StrictlyIncreasing)
      << "mod(i*5,7)+1 >= 1 on every iteration: " << R->describe();
  EXPECT_FALSE(R->Accumulator);
  EXPECT_TRUE(R->StepDefinedInBody)
      << "colcnt is written in the same body the recurrence reads it";
  EXPECT_TRUE(R->StepReadsArray);
  EXPECT_TRUE(R->beyondStatementAnalysis());
}

TEST(RecurrenceCatalog, WholeProgramHullBoundsEarlierStepArray) {
  CatalogFixture F(R"(program t
    integer i, n, t
    integer off(101), len(100)
    n = 100
    mk: do i = 1, n
      len(i) = mod(i, 5)
    end do
    off(1) = 1
    build: do i = 1, n
      off(i + 1) = off(i) + len(i)
    end do
    use: do i = 1, n
      t = off(i)
    end do
  end)");
  const RecurrenceFact *R = F.fact("build", "off");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Class, RecurrenceClass::MonotoneNonDec)
      << "len ranges over [0, 4] program-wide: nonneg but not strict";
  EXPECT_TRUE(R->StepReadsArray);
  EXPECT_FALSE(R->StepDefinedInBody);
}

TEST(RecurrenceCatalog, NonUnitStrideDerivesNoFact) {
  CatalogFixture F(R"(program t
    integer i, n
    integer off(102)
    n = 100
    off(1) = 1
    build: do i = 1, n, 2
      off(i + 1) = off(i) + 1
    end do
  end)");
  EXPECT_EQ(F.fact("build", "off"), nullptr)
      << "a stride-2 build orders only every other adjacent pair";
}

TEST(RecurrenceCatalog, PermutedStepWriteDerivesNoFact) {
  CatalogFixture F(R"(program t
    integer i, n
    integer colptr(101), colcnt(100), perm(100)
    n = 100
    colptr(1) = 1
    mkperm: do i = 1, n
      perm(i) = i
    end do
    build: do i = 1, n
      colcnt(perm(i)) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
    end do
  end)");
  EXPECT_EQ(F.fact("build", "colptr"), nullptr)
      << "colcnt written through a runtime permutation is unanalyzable";
}

//===----------------------------------------------------------------------===//
// Promotion: conditional plans become unconditional parallel
//===----------------------------------------------------------------------===//

/// Expects \p Label to be promoted in \p R and returns its plan.
const xform::LoopPlan *expectPromoted(Harness &R, const char *Label) {
  const xform::LoopReport *Rep = R.Plan.reportFor(Label);
  EXPECT_NE(Rep, nullptr);
  if (!Rep)
    return nullptr;
  EXPECT_TRUE(Rep->Parallel) << Label << ": " << Rep->WhyNot;
  EXPECT_TRUE(Rep->RecurrencePromoted) << Label;
  EXPECT_FALSE(Rep->RuntimeConditional);

  const DoStmt *L = R.P->findLoop(Label);
  EXPECT_NE(L, nullptr);
  const xform::LoopPlan *Plan = L ? R.Plan.planFor(L) : nullptr;
  EXPECT_NE(Plan, nullptr) << "promotion must yield an unconditional plan";
  if (Plan) {
    EXPECT_TRUE(Plan->RecurrencePromoted);
    EXPECT_TRUE(Plan->RuntimeChecks.empty())
        << "the deleted inspections may not linger as live checks";
    EXPECT_FALSE(Plan->FallbackChecks.empty())
        << "the plan must remember the checks it replaced for strict audits";
  }
  return Plan;
}

TEST(RecurrencePromotion, FusedCcsScaleBecomesUnconditional) {
  Harness R(FusedCcs);
  expectPromoted(R, "scale");

  // The proof must be flagged recurrence-backed with a -REC property tag.
  const xform::LoopReport *Rep = R.Plan.reportFor("scale");
  ASSERT_NE(Rep, nullptr);
  bool SawRecBacked = false, SawRecTag = false;
  for (const deptest::ArrayDepOutcome &O : Rep->DepOutcomes) {
    SawRecBacked |= O.RecurrenceBacked;
    for (const std::string &Prop : O.PropertiesUsed)
      if (Prop.find("REC") != std::string::npos)
        SawRecTag = true;
  }
  EXPECT_TRUE(SawRecBacked);
  EXPECT_TRUE(SawRecTag);
}

TEST(RecurrencePromotion, PrefixSumScatterBecomesUnconditional) {
  Harness R(PrefixSumScatter);
  expectPromoted(R, "scat");

  const xform::LoopReport *Rep = R.Plan.reportFor("scat");
  ASSERT_NE(Rep, nullptr);
  bool SawInjRec = false;
  for (const deptest::ArrayDepOutcome &O : Rep->DepOutcomes)
    for (const std::string &Prop : O.PropertiesUsed)
      if (Prop.find("INJ") != std::string::npos &&
          Prop.find("REC") != std::string::npos)
        SawInjRec = true;
  EXPECT_TRUE(SawInjRec)
      << "the scatter proof must rest on recurrence-backed injectivity";
}

TEST(RecurrencePromotion, InterveningWriteKillsFactAndBlocksPromotion) {
  // pos(3) is overwritten between the build and the scatter: the fact no
  // longer describes the array's contents on the query path, so the loop
  // must stay runtime-conditional.
  Harness R(R"(program t
    integer i, n, p
    integer pos(1000)
    real x(3100), y(1000)
    n = 1000
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    pos(3) = 7
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(pos(i)) = x(pos(i)) + y(i) * 0.5
    end do
  end)");
  const xform::LoopReport *Rep = R.Plan.reportFor("scat");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel);
  EXPECT_FALSE(Rep->RecurrencePromoted);
  EXPECT_TRUE(Rep->RuntimeConditional) << Rep->WhyNot;
}

//===----------------------------------------------------------------------===//
// Cache non-interaction and dispatch-tier accounting
//===----------------------------------------------------------------------===//

TEST(RecurrenceCache, PromotedLoopNeverTouchesVerdictCache) {
  // Three invocations of the promoted scatter with checks enabled: a
  // conditional plan would inspect once and hit the cache twice; the
  // promoted plan must do neither and still run parallel each time.
  Harness R(PrefixSumScatterRep);
  expectPromoted(R, "scat");
  double Want = R.serialChecksum();

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want);
  EXPECT_EQ(Stats.InspectionsRun, 0u)
      << "a statically proven loop may not consult the inspector";
  EXPECT_EQ(Stats.InspectionsCached, 0u)
      << "nor populate or read the verdict cache";
  EXPECT_GE(Stats.ParallelLoopRuns, 3u);
  EXPECT_GE(Stats.DispatchStatic, 3u)
      << "every promoted invocation dispatches on the static tier";
  EXPECT_EQ(Stats.DispatchConditional, 0u);
}

TEST(RecurrenceCache, DispatchTiersPartitionInvocations) {
  // The duplicate-index kernel: init dispatches statically parallel, the
  // scatter is inspected (and fails) — a conditional-tier dispatch. A plain
  // serial run of the same program must count only serial-tier dispatches.
  Harness R(DuplicateScatter);
  ExecStats Checked = R.runChecked();
  EXPECT_GE(Checked.DispatchConditional, 1u)
      << "an inspector-decided dispatch counts as conditional even when "
         "the verdict is serial";
  EXPECT_GE(Checked.DispatchStatic, 1u);

  Interpreter I(*R.P);
  ExecStats Serial;
  I.run(ExecOptions{}, &Serial);
  EXPECT_EQ(Serial.DispatchStatic, 0u);
  EXPECT_EQ(Serial.DispatchConditional, 0u);
  EXPECT_GE(Serial.DispatchSerial, 2u);
}

//===----------------------------------------------------------------------===//
// Auditor: independent re-derivation, forged facts, strict demotion
//===----------------------------------------------------------------------===//

TEST(RecurrenceAudit, PromotionsCertifiedFromScratch) {
  for (const char *Source : {FusedCcs, PrefixSumScatter}) {
    Harness R(Source);
    const char *Label = Source == FusedCcs ? "scale" : "scat";
    PlanAuditor Auditor(*R.P);
    AuditResult A = Auditor.audit(R.Plan);
    const LoopAudit *LA = A.auditFor(Label);
    ASSERT_NE(LA, nullptr) << Label;
    EXPECT_EQ(LA->Verdict, AuditVerdict::Certified)
        << Label << ":\n" << LA->str();
    EXPECT_FALSE(LA->Conditional)
        << "a promoted plan must certify unconditionally — the auditor "
           "re-derives the recurrence facts, it does not trust them";
  }
}

TEST(RecurrenceAudit, ForgedFactCaughtByBothOracles) {
  // Promote the duplicate-index kernel's conditional plan as if the
  // recurrence solver had proven its index array injective. The auditor
  // must refuse the certificate, and the race checker must observe the
  // concrete write-write conflicts the duplicated indices produce.
  Harness R(DuplicateScatter);
  ASSERT_TRUE(applyMutation(
      R.Plan, *R.P, {MutationKind::ForgeRecurrenceFact, "scat", ""}));

  const DoStmt *L = R.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Forged = R.Plan.planFor(L);
  ASSERT_NE(Forged, nullptr)
      << "the mutation must leave an unconditionally parallel plan behind";
  EXPECT_TRUE(Forged->RecurrencePromoted);
  EXPECT_FALSE(Forged->FallbackChecks.empty());

  PlanAuditor Auditor(*R.P);
  AuditResult A = Auditor.audit(R.Plan);
  const LoopAudit *LA = A.auditFor("scat");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified)
      << "auditor accepted a forged recurrence fact:\n" << LA->str();

  Interpreter I(*R.P);
  ExecOptions Opts;
  Opts.Plans = &R.Plan;
  Opts.RaceCheck = true;
  ExecStats Stats;
  I.run(Opts, &Stats);
  EXPECT_GT(Stats.RacesFound, 0u)
      << "duplicate indices must surface as dynamic conflicts";
}

TEST(RecurrenceAudit, StrictDemotionRestoresConditionalDispatch) {
  // A forged promotion of the permutation kernel, demoted under strict
  // audit: the plan must fall back to exactly the conditional dispatch it
  // replaced — and then run correctly with 1 inspection + 2 cache hits
  // across its three invocations.
  Harness R(PermutationScatterRep);
  double Want = R.serialChecksum();
  ASSERT_TRUE(applyMutation(
      R.Plan, *R.P, {MutationKind::ForgeRecurrenceFact, "scat", ""}));

  PlanAuditor Auditor(*R.P);
  AuditResult A = Auditor.audit(R.Plan);
  const LoopAudit *LA = A.auditFor("scat");
  ASSERT_NE(LA, nullptr);
  ASSERT_NE(LA->Verdict, AuditVerdict::Certified);

  unsigned Demoted = recordAudit(R.Plan, A, AuditMode::Strict);
  EXPECT_EQ(Demoted, 1u);

  const DoStmt *L = R.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(R.Plan.planFor(L), nullptr)
      << "the forged unconditional plan must be gone";
  const xform::LoopPlan *Cond = R.Plan.conditionalPlanFor(L);
  ASSERT_NE(Cond, nullptr)
      << "demotion must restore conditional dispatch, not serialize";
  bool SawInjective = false;
  for (const RuntimeCheck &C : Cond->RuntimeChecks)
    if (C.Kind == RuntimeCheckKind::InjectiveOnRange) {
      SawInjective = true;
      ASSERT_NE(C.Index, nullptr);
      EXPECT_EQ(C.Index->name(), "ind");
    }
  EXPECT_TRUE(SawInjective);
  const xform::LoopReport *Rep = R.Plan.reportFor("scat");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel);
  EXPECT_FALSE(Rep->RecurrencePromoted);
  EXPECT_TRUE(Rep->RuntimeConditional);

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want);
  EXPECT_EQ(Stats.InspectionsRun, 1u);
  EXPECT_EQ(Stats.InspectionsCached, 2u);
  EXPECT_EQ(Stats.RuntimeCheckFails, 0u);
}

//===----------------------------------------------------------------------===//
// Execution: bit-identical across thread counts
//===----------------------------------------------------------------------===//

TEST(RecurrenceExec, PromotedLoopsBitIdenticalAcrossThreadCounts) {
  for (const char *Source : {FusedCcs, PrefixSumScatter}) {
    Harness R(Source);
    double Want = R.serialChecksum();
    std::set<unsigned> Dead = deadPrivateIds(R.Plan);

    for (unsigned T : ThreadCounts) {
      Memory M(*R.P);
      ExecStats Stats = R.runChecked(&M, T);
      EXPECT_EQ(M.checksumExcluding(Dead), Want) << "T=" << T;
      EXPECT_EQ(Stats.InspectionsRun, 0u);
      EXPECT_EQ(Stats.RuntimeCheckFails, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Stats counters
//===----------------------------------------------------------------------===//

TEST(RecurrenceStats, CountersTrackDerivationConsumptionAndPromotion) {
  stat::resetAll();
  Harness R(PrefixSumScatter);
  ASSERT_NE(stat::find("recurrence_facts_derived"), nullptr);
  EXPECT_GT(stat::find("recurrence_facts_derived")->value(), 0u);
  EXPECT_GT(stat::find("recurrence_facts_consumed")->value(), 0u);
  EXPECT_GE(stat::find("recurrence_loops_promoted")->value(), 1u);
}

} // namespace
