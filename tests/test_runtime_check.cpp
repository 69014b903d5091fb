//===- tests/test_runtime_check.cpp - Inspector/executor tests ------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The inspector/executor runtime-check subsystem end to end: statically
/// serial gather/scatter and sparse-segment loops must come out of the
/// pipeline as runtime-conditional plans, run parallel exactly when the
/// O(n) inspection of their index arrays passes, fall back to serial when
/// it fails, cache verdicts keyed on index-array versions (and re-inspect
/// after the index array is rewritten), and stay bit-identical to serial
/// execution throughout. The auditor certifies conditional plans modulo
/// their recorded checks, and a seeded drop-runtime-check mutation is
/// caught both statically (auditor) and dynamically (race checker).
///
/// Suite names here start with "RuntimeCheck" so the CI ThreadSanitizer
/// job's --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Inspector.h"
#include "interp/Interpreter.h"
#include "verify/PlanAudit.h"
#include "verify/PlanMutator.h"
#include "xform/Parallelizer.h"

#include <set>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using namespace iaa::verify;
using iaa::deptest::RuntimeCheck;
using iaa::deptest::RuntimeCheckKind;
using iaa::test::parseOrDie;

namespace {

const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// Gather/scatter whose index array is a permutation of 1..n at run time
/// (gcd(7, 1000) = 1) but opaque to the static analysis: the scat loop is
/// statically serial and parallelizable only via an injectivity inspection.
const char *PermutationScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";

/// Same shape, but every index value occurs twice (range 1..500 over 1000
/// iterations): the inspection must fail and the loop must run serially.
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

/// CCS-style segment kernel: colcnt is written through a permutation (the
/// identity at run time, but the recurrence solver cannot prove that
/// statically), so colptr's building recurrence stays unbounded and the
/// scale loop needs the monotone + offset-length inspection to run
/// parallel.
const char *CcsScale = R"(program t
    integer i, j, n
    integer colptr(101), colcnt(100), perm(100)
    real vals(800)
    n = 100
    colptr(1) = 1
    mkperm: do i = 1, n
      perm(i) = i
    end do
    build: do i = 1, n
      colcnt(perm(i)) = mod(i * 5, 7) + 1
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

struct Harness {
  std::unique_ptr<Program> P;
  xform::PipelineResult Plan;

  explicit Harness(const std::string &Source) : P(parseOrDie(Source)) {
    Plan = xform::parallelize(*P, xform::PipelineMode::Full);
  }

  /// Serial-reference checksum, excluding dead privatized arrays.
  double serialChecksum() {
    Interpreter I(*P);
    Memory Serial = I.run(ExecOptions{});
    return Serial.checksumExcluding(deadPrivateIds(Plan));
  }

  /// Runs with runtime checks enabled and returns the stats.
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

//===----------------------------------------------------------------------===//
// Plan emission
//===----------------------------------------------------------------------===//

TEST(RuntimeCheckPlan, GatherScatterEmitsConditionalPlan) {
  Harness R(PermutationScatter);
  const xform::LoopReport *Rep = R.Plan.reportFor("scat");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel) << "mod-built index must stay statically serial";
  EXPECT_TRUE(Rep->RuntimeConditional) << Rep->WhyNot;

  const DoStmt *L = R.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(R.Plan.planFor(L), nullptr);
  const xform::LoopPlan *Cond = R.Plan.conditionalPlanFor(L);
  ASSERT_NE(Cond, nullptr);
  EXPECT_FALSE(Cond->Parallel);

  bool SawInjective = false, SawBounds = false;
  for (const RuntimeCheck &C : Cond->RuntimeChecks) {
    if (C.Kind == RuntimeCheckKind::InjectiveOnRange) {
      SawInjective = true;
      ASSERT_NE(C.Index, nullptr);
      EXPECT_EQ(C.Index->name(), "ind");
    }
    if (C.Kind == RuntimeCheckKind::BoundsWithin)
      SawBounds = true;
  }
  EXPECT_TRUE(SawInjective);
  EXPECT_TRUE(SawBounds);
}

TEST(RuntimeCheckPlan, CcsEmitsMonotoneAndOffsetLength) {
  Harness R(CcsScale);
  const xform::LoopReport *Rep = R.Plan.reportFor("scale");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel);
  EXPECT_TRUE(Rep->RuntimeConditional) << Rep->WhyNot;

  const DoStmt *L = R.P->findLoop("scale");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Cond = R.Plan.conditionalPlanFor(L);
  ASSERT_NE(Cond, nullptr);

  bool SawMono = false, SawDisjoint = false;
  for (const RuntimeCheck &C : Cond->RuntimeChecks) {
    if (C.Kind == RuntimeCheckKind::MonotonicNonDecreasing) {
      SawMono = true;
      ASSERT_NE(C.Index, nullptr);
      EXPECT_EQ(C.Index->name(), "colptr");
    }
    if (C.Kind == RuntimeCheckKind::OffsetLengthDisjoint) {
      SawDisjoint = true;
      ASSERT_NE(C.Length, nullptr);
      EXPECT_EQ(C.Length->name(), "colcnt");
    }
  }
  EXPECT_TRUE(SawMono);
  EXPECT_TRUE(SawDisjoint);
}

//===----------------------------------------------------------------------===//
// Execution: parallel on pass, serial on fail, bit-identical throughout
//===----------------------------------------------------------------------===//

TEST(RuntimeCheckExec, PermutationRunsParallelBitIdentical) {
  Harness R(PermutationScatter);
  double Want = R.serialChecksum();
  std::set<unsigned> Dead = deadPrivateIds(R.Plan);

  for (unsigned T : ThreadCounts) {
    Memory M(*R.P);
    ExecStats Stats = R.runChecked(&M, T);
    EXPECT_EQ(M.checksumExcluding(Dead), Want) << "T=" << T;
    EXPECT_EQ(Stats.RuntimeCheckFails, 0u)
        << (Stats.RuntimeDecisions.empty()
                ? std::string()
                : Stats.RuntimeDecisions.front().str());
    EXPECT_GE(Stats.InspectionsRun, 1u);
    EXPECT_GE(Stats.ParallelLoopRuns, 1u)
        << "passing inspection must license parallel dispatch";
  }
}

TEST(RuntimeCheckExec, CcsRunsParallelBitIdentical) {
  Harness R(CcsScale);
  double Want = R.serialChecksum();
  std::set<unsigned> Dead = deadPrivateIds(R.Plan);

  for (unsigned T : ThreadCounts) {
    Memory M(*R.P);
    ExecStats Stats = R.runChecked(&M, T);
    EXPECT_EQ(M.checksumExcluding(Dead), Want) << "T=" << T;
    EXPECT_EQ(Stats.RuntimeCheckFails, 0u);
  }
}

TEST(RuntimeCheckExec, DuplicateIndexFallsBackSerial) {
  Harness R(DuplicateScatter);
  double Want = R.serialChecksum();

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want)
      << "serial fallback must reproduce the serial result exactly";
  EXPECT_GE(Stats.RuntimeCheckFails, 1u);

  bool SawScatFail = false;
  for (const ExecStats::RuntimeDecision &D : Stats.RuntimeDecisions) {
    if (D.Loop == "scat" && !D.Pass) {
      SawScatFail = true;
      EXPECT_FALSE(D.Detail.empty());
    }
  }
  EXPECT_TRUE(SawScatFail);
}

TEST(RuntimeCheckExec, DisabledFlagNeverInspects) {
  Harness R(PermutationScatter);
  Interpreter I(*R.P);
  ExecOptions Opts;
  Opts.Plans = &R.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  ExecStats Stats;
  Memory M = I.run(Opts, &Stats);
  EXPECT_EQ(Stats.InspectionsRun, 0u);
  EXPECT_EQ(Stats.InspectionsCached, 0u);
  EXPECT_TRUE(Stats.RuntimeDecisions.empty());
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), R.serialChecksum());
}

//===----------------------------------------------------------------------===//
// Verdict cache and invalidation
//===----------------------------------------------------------------------===//

TEST(RuntimeCheckCache, RepeatedInvocationUsesCachedVerdict) {
  // The scat loop runs three times with ind untouched in between: one
  // fresh inspection, two cache hits.
  Harness R(R"(program t
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
  end)");
  double Want = R.serialChecksum();

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want);
  EXPECT_EQ(Stats.InspectionsRun, 1u);
  EXPECT_GE(Stats.InspectionsCached, 1u);
  EXPECT_EQ(Stats.InspectionsCached, 2u);
  EXPECT_EQ(Stats.RuntimeCheckFails, 0u);
}

TEST(RuntimeCheckCache, WriteToIndexArrayInvalidates) {
  // Between the two invocations ind(5) is overwritten with ind(6): the
  // write bumps ind's version, so the second invocation must re-inspect,
  // find the duplicate, and fall back to serial — with the final memory
  // still bit-identical to a full serial run.
  Harness R(R"(program t
    integer i, r, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, 2
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
      if (r == 1) then
        ind(5) = ind(6)
      end if
    end do
  end)");
  double Want = R.serialChecksum();

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want);
  EXPECT_EQ(Stats.InspectionsRun, 2u)
      << "rewriting the index array must force re-inspection";
  EXPECT_EQ(Stats.InspectionsCached, 0u);
  EXPECT_EQ(Stats.RuntimeCheckFails, 1u)
      << "the duplicated index must flip the verdict to serial";
}

TEST(RuntimeCheckCache, WriteToSegmentLengthArrayInvalidates) {
  // Regression: the verdict cache key must cover *every* array the checks
  // read — Length arrays included — not just the primary index array. Here
  // the CRS offset array colptr never changes, but the segment-length array
  // seglen is widened between the two invocations so that adjacent
  // segments overlap. A cache keyed on colptr alone would serve the stale
  // Pass verdict and race; the second invocation must instead re-inspect,
  // fail, and fall back to serial.
  Harness R(R"(program t
    integer i, j, k, n
    integer colptr(101), colcnt(100), seglen(100)
    real vals(900)
    n = 100
    colptr(1) = 1
    build: do i = 1, n
      colcnt(i) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
      seglen(i) = colcnt(i)
    end do
    fill: do i = 1, 900
      vals(i) = mod(i, 13) * 0.125
    end do
    outer: do k = 1, 2
      scale: do i = 1, n
        do j = 1, seglen(i)
          vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.5 + 0.25
        end do
      end do
      if (k == 1) then
        widen: do i = 1, n
          seglen(i) = colcnt(i) + 1
        end do
      end if
    end do
  end)");
  double Want = R.serialChecksum();

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M, 4);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want);
  EXPECT_EQ(Stats.InspectionsRun, 2u)
      << "widening seglen must force re-inspection even though the "
         "checked offset array colptr is unchanged";
  EXPECT_EQ(Stats.InspectionsCached, 0u)
      << "a verdict cached on colptr alone would poison the second "
         "invocation";
  EXPECT_EQ(Stats.RuntimeCheckFails, 1u)
      << "the widened segments overlap, so the re-inspection must fail";
}

TEST(RuntimeCheckCache, UntouchedSegmentLengthArrayStillHits) {
  // Control for the poisoning regression above: with seglen untouched
  // between invocations, the second one must reuse the verdict (only
  // vals — not a check source — changed).
  Harness R(R"(program t
    integer i, j, k, n
    integer colptr(101), colcnt(100), seglen(100)
    real vals(900)
    n = 100
    colptr(1) = 1
    build: do i = 1, n
      colcnt(i) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
      seglen(i) = colcnt(i)
    end do
    fill: do i = 1, 900
      vals(i) = mod(i, 13) * 0.125
    end do
    outer: do k = 1, 2
      scale: do i = 1, n
        do j = 1, seglen(i)
          vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.5 + 0.25
        end do
      end do
    end do
  end)");
  double Want = R.serialChecksum();

  Memory M(*R.P);
  ExecStats Stats = R.runChecked(&M, 4);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(R.Plan)), Want);
  EXPECT_EQ(Stats.InspectionsRun, 1u);
  EXPECT_EQ(Stats.InspectionsCached, 1u);
  EXPECT_EQ(Stats.RuntimeCheckFails, 0u);
}

//===----------------------------------------------------------------------===//
// Inspector unit tests
//===----------------------------------------------------------------------===//

/// A bare program whose arrays the tests fill by hand.
struct InspectorFixture {
  std::unique_ptr<Program> P;
  Memory Mem;
  const Symbol *Ind, *Len, *X;

  InspectorFixture()
      : P(parseOrDie(R"(program t
          integer ind(16), len(16)
          real x(8)
        end)")),
        Mem(*P), Ind(P->findSymbol("ind")), Len(P->findSymbol("len")),
        X(P->findSymbol("x")) {}

  void setInd(std::vector<int64_t> V) {
    Buffer &B = Mem.buffer(Ind);
    for (size_t I = 0; I < V.size(); ++I)
      B.I[I] = V[I];
  }
  void setLen(std::vector<int64_t> V) {
    Buffer &B = Mem.buffer(Len);
    for (size_t I = 0; I < V.size(); ++I)
      B.I[I] = V[I];
  }
};

TEST(RuntimeCheckInspector, InjectiveDetectsDuplicates) {
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::InjectiveOnRange;
  C.Index = F.Ind;

  F.setInd({4, 2, 7, 1, 9, 3});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 6, nullptr, 1).Pass);

  F.setInd({4, 2, 7, 1, 2, 3});
  InspectionOutcome O = inspectRuntimeCheck(C, F.Mem, 1, 6, nullptr, 1);
  EXPECT_FALSE(O.Pass);
  EXPECT_NE(O.Detail.find("ind"), std::string::npos) << O.Detail;
}

TEST(RuntimeCheckInspector, InjectiveSparseValuesUseSortFallback) {
  // A value spread far beyond 8*N forces the sort + adjacent-pair path.
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::InjectiveOnRange;
  C.Index = F.Ind;

  F.setInd({1, 1000000000, 2000000000, 5});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 4, nullptr, 1).Pass);
  F.setInd({1, 1000000000, 2000000000, 1000000000});
  EXPECT_FALSE(inspectRuntimeCheck(C, F.Mem, 1, 4, nullptr, 1).Pass);
}

TEST(RuntimeCheckInspector, InjectiveExtremeValuesTakeTheSortPath) {
  // Values near +-2^63: max - min + 1 overflows int64_t, so the value
  // range cannot size a bitset and the sort path decides.
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::InjectiveOnRange;
  C.Index = F.Ind;
  const int64_t Big = 9000000000000000000;

  F.setInd({Big, -Big, INT64_MAX, INT64_MIN, 0});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 5, nullptr, 1).Pass);

  F.setInd({Big, -Big, INT64_MAX, INT64_MIN, -Big});
  InspectionOutcome O = inspectRuntimeCheck(C, F.Mem, 1, 5, nullptr, 1);
  EXPECT_FALSE(O.Pass);
  EXPECT_NE(O.Detail.find(std::to_string(-Big)), std::string::npos)
      << O.Detail;
}

TEST(RuntimeCheckInspector, OffsetLengthExtremeValuesOverlap) {
  // A segment whose end lies past INT64_MAX still overlaps its successor:
  // the end is computed without wrapping around to a negative value.
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::OffsetLengthDisjoint;
  C.Index = F.Ind;
  C.Length = F.Len;
  C.HasHiLen = true;
  C.AccessHiLen = -1; // Segment i spans [ind(i), ind(i) + len(i) - 1].

  F.setInd({INT64_MAX - 10, INT64_MAX - 4});
  F.setLen({6, 4});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 2, nullptr, 1).Pass);

  F.setLen({INT64_MAX, 4});
  InspectionOutcome O = inspectRuntimeCheck(C, F.Mem, 1, 2, nullptr, 1);
  EXPECT_FALSE(O.Pass);
  EXPECT_NE(O.Detail.find("overlap"), std::string::npos) << O.Detail;
}

TEST(RuntimeCheckInspector, BoundsAgainstConstantsAndArrayExtent) {
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::BoundsWithin;
  C.Index = F.Ind;
  C.LoBound = 1;
  C.UpBound = 8;

  F.setInd({1, 8, 3});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);
  F.setInd({1, 9, 3});
  EXPECT_FALSE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);

  // With BoundedArray the upper bound is x's runtime extent (8), not
  // UpBound.
  C.UpBound = 0;
  C.BoundedArray = F.X;
  F.setInd({1, 8, 3});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);
  F.setInd({0, 8, 3});
  EXPECT_FALSE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);
}

TEST(RuntimeCheckInspector, MonotoneScan) {
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::MonotonicNonDecreasing;
  C.Index = F.Ind;

  F.setInd({1, 3, 3, 7, 12});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 5, nullptr, 1).Pass);
  F.setInd({1, 3, 2, 7, 12});
  InspectionOutcome O = inspectRuntimeCheck(C, F.Mem, 1, 5, nullptr, 1);
  EXPECT_FALSE(O.Pass);
  EXPECT_NE(O.Detail.find("decreases"), std::string::npos) << O.Detail;
}

TEST(RuntimeCheckInspector, OffsetLengthSegments) {
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::OffsetLengthDisjoint;
  C.Index = F.Ind;
  C.Length = F.Len;
  C.AccessLo = 0;
  C.HasHiLen = true;
  C.AccessHiLen = -1; // Segment i spans [ind(i), ind(i) + len(i) - 1].

  // Back-to-back segments: 1..3, 4..5, 6..9.
  F.setInd({1, 4, 6});
  F.setLen({3, 2, 4});
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);

  // Second segment reaches into the third.
  F.setLen({3, 3, 4});
  InspectionOutcome O = inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1);
  EXPECT_FALSE(O.Pass);
  EXPECT_NE(O.Detail.find("overlap"), std::string::npos) << O.Detail;

  // Negative length.
  F.setLen({3, -1, 4});
  EXPECT_FALSE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);

  // Non-monotone offsets.
  F.setInd({4, 1, 6});
  F.setLen({1, 1, 1});
  EXPECT_FALSE(inspectRuntimeCheck(C, F.Mem, 1, 3, nullptr, 1).Pass);
}

TEST(RuntimeCheckInspector, WindowEdgeCases) {
  InspectorFixture F;
  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::InjectiveOnRange;
  C.Index = F.Ind;

  // Zero-trip window passes vacuously.
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 5, 4, nullptr, 1).Pass);

  // Window beyond the array extent fails (ind has 16 elements).
  InspectionOutcome O = inspectRuntimeCheck(C, F.Mem, 1, 17, nullptr, 1);
  EXPECT_FALSE(O.Pass);
  EXPECT_NE(O.Detail.find("extent"), std::string::npos) << O.Detail;

  // Window adjusts shift the inspected positions.
  C.LoAdjust = 1;
  C.UpAdjust = 1;
  F.setInd({7, 1, 2, 3, 7});
  // Positions 2..5 are {1, 2, 3, 7}: injective even though position 1
  // repeats the value 7.
  EXPECT_TRUE(inspectRuntimeCheck(C, F.Mem, 1, 4, nullptr, 1).Pass);
}

TEST(RuntimeCheckInspector, ParallelScanMatchesSerialVerdict) {
  // A window big enough to cross MinParallelWindow, scanned serially and
  // on a pool: identical verdicts, and the parallel failure report names
  // the smallest failing position (deterministic counterexample).
  auto P = parseOrDie(R"(program t
      integer ind(20000)
    end)");
  Memory Mem(*P);
  const Symbol *Ind = P->findSymbol("ind");
  ASSERT_NE(Ind, nullptr);
  Buffer &B = Mem.buffer(Ind);
  const int64_t N = 20000;
  for (int64_t I = 0; I < N; ++I)
    B.I[I] = (I * 7919) % N + 1; // gcd(7919, 20000) = 1: a permutation.

  RuntimeCheck C;
  C.Kind = RuntimeCheckKind::InjectiveOnRange;
  C.Index = Ind;

  WorkerPool Pool(4);
  EXPECT_TRUE(inspectRuntimeCheck(C, Mem, 1, N, nullptr, 1).Pass);
  EXPECT_TRUE(inspectRuntimeCheck(C, Mem, 1, N, &Pool, 4).Pass);

  B.I[12345] = B.I[123]; // Seed one duplicate.
  InspectionOutcome Serial = inspectRuntimeCheck(C, Mem, 1, N, nullptr, 1);
  InspectionOutcome Par = inspectRuntimeCheck(C, Mem, 1, N, &Pool, 4);
  EXPECT_FALSE(Serial.Pass);
  EXPECT_FALSE(Par.Pass);

  RuntimeCheck M;
  M.Kind = RuntimeCheckKind::MonotonicNonDecreasing;
  M.Index = Ind;
  for (int64_t I = 0; I < N; ++I)
    B.I[I] = I / 3;
  EXPECT_TRUE(inspectRuntimeCheck(M, Mem, 1, N, &Pool, 4).Pass);
  B.I[N / 2] = 0;
  EXPECT_FALSE(inspectRuntimeCheck(M, Mem, 1, N, &Pool, 4).Pass);
}

//===----------------------------------------------------------------------===//
// Auditor certification and the drop-runtime-check mutation
//===----------------------------------------------------------------------===//

TEST(RuntimeCheckAudit, ConditionalPlansCertifiedConditionally) {
  for (const char *Source : {PermutationScatter, CcsScale}) {
    Harness R(Source);
    const char *Label =
        Source == PermutationScatter ? "scat" : "scale";
    PlanAuditor Auditor(*R.P);
    AuditResult A = Auditor.audit(R.Plan);
    const LoopAudit *LA = A.auditFor(Label);
    ASSERT_NE(LA, nullptr) << Label;
    EXPECT_EQ(LA->Verdict, AuditVerdict::Certified)
        << Label << ":\n" << LA->str();
    EXPECT_TRUE(LA->Conditional)
        << "certification must be conditional on the runtime checks";
  }
}

TEST(RuntimeCheckAudit, UnmutatedConditionalPlanIsRaceFree) {
  // A runtime-conditional plan never runs parallel under the race checker
  // (the checker monitors parallel-marked plans): zero conflicts.
  Harness R(DuplicateScatter);
  Interpreter I(*R.P);
  ExecOptions Opts;
  Opts.Plans = &R.Plan;
  Opts.RaceCheck = true;
  ExecStats Stats;
  I.run(Opts, &Stats);
  EXPECT_EQ(Stats.RacesFound, 0u)
      << (Stats.Races.empty() ? std::string() : Stats.Races.front().str());
}

TEST(RuntimeCheckAudit, DropRuntimeCheckCaughtByBothOracles) {
  // Strip the checks from the duplicate-index kernel's conditional plan
  // and mark it unconditionally parallel, as if the inspector had been
  // skipped. The auditor must refuse the certificate (the injectivity the
  // checks were guarding is undischarged), and the shadow-memory race
  // checker must observe the concrete write-write conflicts the duplicate
  // indices produce.
  Harness R(DuplicateScatter);
  ASSERT_TRUE(applyMutation(
      R.Plan, *R.P, {MutationKind::DropRuntimeCheck, "scat", ""}));

  const DoStmt *L = R.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  ASSERT_NE(R.Plan.planFor(L), nullptr)
      << "mutation must leave an unconditionally parallel plan behind";

  PlanAuditor Auditor(*R.P);
  AuditResult A = Auditor.audit(R.Plan);
  const LoopAudit *LA = A.auditFor("scat");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified)
      << "auditor missed the dropped runtime checks:\n" << LA->str();

  Interpreter I(*R.P);
  ExecOptions Opts;
  Opts.Plans = &R.Plan;
  Opts.RaceCheck = true;
  ExecStats Stats;
  I.run(Opts, &Stats);
  EXPECT_GT(Stats.RacesFound, 0u)
      << "duplicate indices must surface as dynamic conflicts";
}

TEST(RuntimeCheckAudit, StrictModeStripsUncertifiedConditionalPlan) {
  // recordAudit under strict mode must strip the runtime-conditional
  // dispatch of a plan the auditor could not certify. Corrupt the plan's
  // recorded window so the checks no longer cover the accesses.
  Harness R(PermutationScatter);
  const DoStmt *L = R.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  auto It = R.Plan.Plans.find(L);
  ASSERT_NE(It, R.Plan.Plans.end());
  for (RuntimeCheck &C : It->second.RuntimeChecks)
    if (C.Kind == RuntimeCheckKind::InjectiveOnRange)
      C.LoAdjust = 5; // Window no longer covers iterations 1..4.

  PlanAuditor Auditor(*R.P);
  AuditResult A = Auditor.audit(R.Plan);
  const LoopAudit *LA = A.auditFor("scat");
  ASSERT_NE(LA, nullptr);
  EXPECT_NE(LA->Verdict, AuditVerdict::Certified);

  recordAudit(R.Plan, A, AuditMode::Strict);
  EXPECT_EQ(R.Plan.conditionalPlanFor(L), nullptr)
      << "strict demotion must strip the conditional dispatch";
}

} // namespace
