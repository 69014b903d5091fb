//===- tests/test_fault.cpp - Fault-containment tests ---------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The fault-containment subsystem end to end: serial faults unwind to the
/// interpreter's FaultState with exact source/loop/iteration attribution
/// (no process abort); the checked allocation path faults on overflowing
/// extents instead of wrapping; parallel-worker faults are trapped locally,
/// published first-fault-wins, cancel the chunk dispenser, and roll the
/// loop's transaction back bit-identically; serial replay either recovers
/// (the fault was a parallelism artifact) or reproduces the fault with
/// serial attribution (a genuinely faulting program, e.g. dispatched past a
/// lying inspector); and the whole machinery holds at every thread count,
/// with injected faults of every kind.
///
/// Suite names here start with "Fault" so the CI ThreadSanitizer job's
/// --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Fault.h"
#include "interp/Interpreter.h"
#include "prof/Profiler.h"
#include "verify/FaultInjector.h"
#include "verify/PlanMutator.h"
#include "xform/Parallelizer.h"

#include <set>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using iaa::test::parseOrDie;

namespace {

const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// A certified-parallel loop over shared x: the injection target for the
/// containment tests (`lp` has no real fault of its own, so a serial
/// replay always recovers).
const char *SharedScale = R"(program t
    integer i, n
    real x(2000)
    n = 2000
    init: do i = 1, n
      x(i) = i * 0.5
    end do
    lp: do i = 1, n
      x(i) = x(i) * 2.0 + 1.0
    end do
  end)";

/// A genuinely faulting scatter: ind is a permutation except entry 500,
/// poisoned to 2000 past x's extent of 1000. Statically the scat loop is
/// serial (opaque index), so it reaches parallel execution only through a
/// runtime-check inspection — which the bounds check makes fail, unless a
/// lying inspector (FaultInjector::skipInspectionOf) vouches for it.
const char *PoisonedScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000)
    n = 1000
    fill: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.25
    end do
    ind(500) = 2000
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + 1.0
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
    EXPECT_FALSE(I.faultState().Faulted) << I.faultState().str();
    return Serial.checksumExcluding(deadPrivateIds(Plan));
  }
};

//===----------------------------------------------------------------------===//
// Serial faults: structured attribution, no process abort
//===----------------------------------------------------------------------===//

TEST(FaultSerial, OutOfBoundsAttribution) {
  Harness H(PoisonedScatter);
  Interpreter I(*H.P);
  I.run(ExecOptions{});
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  const RuntimeFault &F = FS.Fault;
  EXPECT_EQ(F.Kind, FaultKind::OutOfBounds);
  EXPECT_EQ(F.Loop, "scat");
  ASSERT_TRUE(F.HasIteration);
  EXPECT_EQ(F.Iteration, 500);
  EXPECT_EQ(F.Var, "x");
  ASSERT_TRUE(F.HasValue);
  EXPECT_EQ(F.Value, 2000);
  EXPECT_EQ(F.Bound, 1000);
  EXPECT_FALSE(F.InParallel);
  EXPECT_FALSE(F.DuringReplay);
  EXPECT_TRUE(F.Loc.isValid()) << "fault must carry a real source location";
  EXPECT_EQ(FS.FaultsObserved, 1u);
  EXPECT_EQ(FS.Rollbacks, 0u);
}

TEST(FaultSerial, FaultStateResetsAcrossRuns) {
  Harness Bad(PoisonedScatter);
  Interpreter I(*Bad.P);
  I.run(ExecOptions{});
  ASSERT_TRUE(I.faultState().Faulted);
  // The same interpreter is reusable and the state is per-invocation:
  // a clean serial run of the same program up to the fault does not exist,
  // so re-run and confirm identical fresh attribution (not accumulation).
  I.run(ExecOptions{});
  EXPECT_TRUE(I.faultState().Faulted);
  EXPECT_EQ(I.faultState().FaultsObserved, 1u);
}

TEST(FaultSerial, DivByZeroInLoopBody) {
  auto P = parseOrDie(R"(program t
    integer i, n, d
    real q(100)
    n = 100
    d = 0
    lp: do i = 1, n
      q(i) = 100 / d
    end do
  end)");
  Interpreter I(*P);
  I.run(ExecOptions{});
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::DivByZero);
  EXPECT_EQ(FS.Fault.Loop, "lp");
  ASSERT_TRUE(FS.Fault.HasIteration);
  EXPECT_EQ(FS.Fault.Iteration, 1);
  EXPECT_TRUE(FS.Fault.Loc.isValid());
}

//===----------------------------------------------------------------------===//
// Checked allocation: overflowing extents fault instead of wrapping
//===----------------------------------------------------------------------===//

TEST(FaultAlloc, ElementCountOverflowIsChecked) {
  // 100000 * 100000 = 1e10 elements: past the allocation cap. The checked
  // multiply must raise BadExtent, not wrap into an under-allocated buffer.
  auto P = parseOrDie(R"(program t
    real x(100000, 100000)
    x(1, 1) = 1.0
  end)");
  Interpreter I(*P);
  I.run(ExecOptions{});
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::BadExtent);
  EXPECT_EQ(FS.Fault.Var, "x");
  EXPECT_NE(FS.Fault.Detail.find("overflows the allocation limit"),
            std::string::npos)
      << FS.Fault.Detail;
}

TEST(FaultAlloc, SaturatedExtentExpressionFaults) {
  // The extent product saturates (no signed-overflow UB) and then trips
  // the allocation cap.
  auto P = parseOrDie(R"(program t
    integer n
    real x(n * n * n * n * n)
    n = 100000
    x(1) = 1.0
  end)");
  Interpreter I(*P);
  I.run(ExecOptions{});
  ASSERT_TRUE(I.faultState().Faulted);
  EXPECT_EQ(I.faultState().Fault.Kind, FaultKind::BadExtent);
}

TEST(FaultAlloc, SaturatedExtentDividedByMinusOneFaults) {
  // The dividend saturates to INT64_MIN; dividing it by -1 must saturate
  // too (the hardware divide traps) and then trip the allocation cap.
  auto P = parseOrDie(R"(program t
    real x((0 - 9223372036854775807 - 9) / (0 - 1))
    x(1) = 1.0
  end)");
  Interpreter I(*P);
  I.run(ExecOptions{});
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::BadExtent);
  EXPECT_NE(FS.Fault.Detail.find("overflows the allocation limit"),
            std::string::npos)
      << FS.Fault.Detail;
}

//===----------------------------------------------------------------------===//
// Parallel containment: first-fault-wins, cancellation, rollback
//===----------------------------------------------------------------------===//

TEST(FaultContain, FirstFaultWinsUnderReport) {
  Harness H(SharedScale);
  verify::FaultInjector Inj;
  Inj.faultAt("lp", verify::InjectionPoint::EveryIteration);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.OnFault = FaultAction::Report;
  Opts.Injector = &Inj;
  ExecStats Stats;
  I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::Injected);
  EXPECT_TRUE(FS.Fault.InParallel);
  EXPECT_EQ(FS.Fault.Loop, "lp");
  // Every worker traps at most one fault (its loop ends there), at least
  // one trapped, and exactly one was published. The trapped count includes
  // the published winner.
  EXPECT_GE(Stats.WorkerFaults, 1u);
  EXPECT_LE(Stats.WorkerFaults, 4u);
  EXPECT_EQ(FS.FaultsObserved, Stats.WorkerFaults + 1) << "winner re-counted "
                                                          "at the top level";
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 0u) << "report mode must not replay";

  // The interpreter (and a fresh worker pool) stays usable after a
  // cancelled, faulted dispatch.
  I.run(ExecOptions{});
  EXPECT_FALSE(I.faultState().Faulted);
}

TEST(FaultContain, RollbackIsBitIdentical) {
  Harness H(SharedScale);
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1500);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.OnFault = FaultAction::Report;
  Opts.Injector = &Inj;
  Memory M = I.run(Opts);
  ASSERT_TRUE(I.faultState().Faulted);
  ASSERT_EQ(I.faultState().Rollbacks, 1u);
  // lp's transaction rolled back: x must hold exactly the init-loop values,
  // bit for bit, with no trace of the partially executed parallel loop.
  const Symbol *X = H.P->findSymbol("x");
  ASSERT_NE(X, nullptr);
  const Buffer &B = M.buffer(X);
  ASSERT_EQ(B.D.size(), 2000u);
  for (size_t E = 0; E < B.D.size(); ++E)
    ASSERT_EQ(B.D[E], (E + 1) * 0.5) << "element " << E;
}

//===----------------------------------------------------------------------===//
// Serial replay
//===----------------------------------------------------------------------===//

TEST(FaultReplayTest, RecoversParallelOnlyFault) {
  Harness H(SharedScale);
  double Want = H.serialChecksum();
  // The injected fault fires only inside a parallel chunk, so the serial
  // replay of the rolled-back loop deterministically recovers.
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1000, /*ParallelOnly=*/true);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.Injector = &Inj;
  ASSERT_EQ(Opts.OnFault, FaultAction::Replay) << "replay is the default";
  ExecStats Stats;
  Memory M = I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  EXPECT_FALSE(FS.Faulted) << FS.str();
  EXPECT_GE(FS.FaultsObserved, 1u);
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 1u);
  EXPECT_EQ(FS.ReplaysRecovered, 1u);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want)
      << "recovered run must be bit-identical to serial";
  ASSERT_EQ(Stats.FaultRemarks.size(), 1u);
  EXPECT_EQ(Stats.FaultRemarks[0].K, Remark::Kind::FaultReplay);
  EXPECT_EQ(Stats.FaultRemarks[0].Loop, "lp");
  EXPECT_NE(Stats.FaultRemarks[0].Reason.find("recovered"),
            std::string::npos);
}

TEST(FaultReplayTest, ReplayNeverForksNestedConditionalLoops) {
  // Regression: the inspection gate tested for a worker frame but not for
  // a replay, so while a rolled-back outer loop was replayed serially its
  // nested runtime-conditional scatter was inspected, dispatched, and
  // counted in a tier on every outer iteration. A replay is faithful
  // serial re-execution: nested loops neither inspect nor fork.
  Harness H(R"(program t
    integer i, j, n
    integer ind(1000)
    real x(8, 1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      y(i) = mod(i, 9) * 0.25
    end do
    outer: do j = 1, 8
      scat: do i = 1, n
        x(j, ind(i)) = x(j, ind(i)) + y(i) * 0.5
      end do
    end do
  end)");
  ASSERT_NE(H.Plan.planFor(H.P->findLoop("outer")), nullptr);
  ASSERT_NE(H.Plan.conditionalPlanFor(H.P->findLoop("scat")), nullptr);
  double Want = H.serialChecksum();

  verify::FaultInjector Inj;
  Inj.faultAt("outer", 3, /*ParallelOnly=*/true);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.RuntimeChecks = true;
  Opts.Injector = &Inj;
  ExecStats Stats;
  Memory M = I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  ASSERT_FALSE(FS.Faulted) << FS.str();
  EXPECT_EQ(FS.ReplaysRecovered, 1u);
  EXPECT_EQ(Stats.ParallelLoopRuns, 2u) << "init and the faulted outer";
  EXPECT_EQ(Stats.DispatchStatic, 1u) << "init";
  EXPECT_EQ(Stats.DispatchReplay, 1u) << "outer";
  EXPECT_EQ(Stats.DispatchConditional, 0u);
  EXPECT_EQ(Stats.DispatchSerial, 0u);
  EXPECT_EQ(Stats.InspectionsRun, 0u) << "the replay inspected scat";
  EXPECT_EQ(Stats.InspectionsCached, 0u) << "the replay inspected scat";
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want);
}

TEST(FaultReplayTest, StaleVerdictPoisonedIndexReproducedSerially) {
  // A lying inspector vouches for the poisoned scatter (the bounds
  // inspection would have rejected it), so the loop dispatches parallel
  // and some worker traps the out-of-bounds subscript. The rollback
  // restores the pre-loop state and the serial replay reproduces the
  // fault with exact serial attribution: iteration 500, value 2000.
  Harness H(PoisonedScatter);
  const xform::LoopReport *Rep = H.Plan.reportFor("scat");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->RuntimeConditional)
      << "poisoned scatter must be runtime-conditional for this test";
  verify::FaultInjector Inj;
  Inj.skipInspectionOf("scat");
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.RuntimeChecks = true;
  Opts.Injector = &Inj;
  ExecStats Stats;
  I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  const RuntimeFault &F = FS.Fault;
  EXPECT_EQ(F.Kind, FaultKind::OutOfBounds);
  EXPECT_TRUE(F.DuringReplay);
  EXPECT_FALSE(F.InParallel);
  EXPECT_EQ(F.Loop, "scat");
  ASSERT_TRUE(F.HasIteration);
  EXPECT_EQ(F.Iteration, 500);
  ASSERT_TRUE(F.HasValue);
  EXPECT_EQ(F.Value, 2000);
  EXPECT_EQ(F.Bound, 1000);
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 1u);
  EXPECT_EQ(FS.ReplaysRecovered, 0u);
  ASSERT_EQ(Stats.FaultRemarks.size(), 1u);
  EXPECT_NE(Stats.FaultRemarks[0].Reason.find("reproduced"),
            std::string::npos);
}

TEST(FaultReplayTest, WithoutLyingInspectorTheCheckCatchesIt) {
  // Sanity for the test above: with an honest inspection the bounds check
  // fails, the loop falls back to serial, and the genuine fault surfaces
  // with plain serial attribution (no rollback, no replay).
  Harness H(PoisonedScatter);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.RuntimeChecks = true;
  ExecStats Stats;
  I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_FALSE(FS.Fault.DuringReplay);
  EXPECT_FALSE(FS.Fault.InParallel);
  EXPECT_EQ(FS.Rollbacks, 0u);
  EXPECT_GE(Stats.RuntimeCheckFails, 1u);
}

// Suite deliberately NOT named Fault*: the force-parallel dispatch below
// races on d by construction (that is the scenario — a mis-certified plan),
// so the CI ThreadSanitizer job must not pick it up; the ordinary and
// ASan/UBSan jobs run it.
TEST(ReplaySpeculation, ForceParallelDivZeroRecoversToSerialSemantics) {
  // LRPD-style mis-speculation: d(i) = 1 then q(i) = 100 / d(i-1) carries
  // a flow dependence, so serially the divisor is always 1. Force-marked
  // parallel, a worker starting mid-space may read a not-yet-written
  // d(i-1) = 0 and trap div-by-zero — a pure parallelism artifact. The
  // assertion holds whether or not the timing-dependent fault fires: the
  // final memory is bit-identical to serial and no fault survives, because
  // a faulted dispatch rolls back and replays serially and a clean dispatch
  // produced serial values anyway (the only racy outcome is the trap).
  auto P = parseOrDie(R"(program t
    integer i, n
    integer d(4000)
    real q(4000)
    n = 4000
    d(1) = 1
    lp: do i = 2, n
      d(i) = 1
      q(i) = 100 / d(i - 1)
    end do
  end)");
  xform::PipelineResult Plan = xform::parallelize(*P, xform::PipelineMode::Full);
  const xform::LoopReport *Rep = Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  ASSERT_FALSE(Rep->Parallel) << "the dependence must be statically rejected";
  ASSERT_TRUE(verify::applyMutation(
      Plan, *P, {verify::MutationKind::ForceParallel, "lp", ""}));

  Interpreter Ref(*P);
  double Want = Ref.run(ExecOptions{}).checksum();
  ASSERT_FALSE(Ref.faultState().Faulted);

  Interpreter I(*P);
  ExecOptions Opts;
  Opts.Plans = &Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Memory M = I.run(Opts);
  const FaultState &FS = I.faultState();
  EXPECT_FALSE(FS.Faulted) << FS.str();
  EXPECT_EQ(FS.Replays, FS.Rollbacks);
  EXPECT_EQ(FS.ReplaysRecovered, FS.Replays);
  EXPECT_EQ(M.checksum(), Want);
}

//===----------------------------------------------------------------------===//
// Injection sweeps: kind x thread count
//===----------------------------------------------------------------------===//

TEST(FaultSweep, ContainedUnderEveryThreadCount) {
  Harness H(SharedScale);
  double Want = H.serialChecksum();
  const FaultKind Kinds[] = {FaultKind::Injected, FaultKind::OutOfBounds,
                             FaultKind::DivByZero};
  for (FaultKind K : Kinds)
    for (unsigned T : ThreadCounts) {
      verify::InjectionPoint Pt;
      Pt.Loop = "lp";
      Pt.Iteration = 1000;
      Pt.ParallelOnly = true;
      Pt.Kind = K;
      Pt.Detail = "sweep injection";
      verify::FaultInjector Inj;
      Inj.addPoint(Pt);
      Interpreter I(*H.P);
      ExecOptions Opts;
      Opts.Plans = &H.Plan;
      Opts.Threads = T;
      Opts.MinParallelWork = 0;
      Opts.Injector = &Inj;
      ExecStats Stats;
      Memory M = I.run(Opts, &Stats);
      const FaultState &FS = I.faultState();
      std::string Ctx =
          std::string(faultKindName(K)) + "/T=" + std::to_string(T);
      EXPECT_FALSE(FS.Faulted) << Ctx << ": " << FS.str();
      EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want) << Ctx;
      // A dispatch happened (one VM chunk at T=1), trapped the
      // injection, rolled back, and recovered by serial replay.
      EXPECT_EQ(FS.Rollbacks, 1u) << Ctx;
      EXPECT_EQ(FS.ReplaysRecovered, 1u) << Ctx;
    }
}

TEST(FaultSweep, AbortModePropagatesWithoutRollback) {
  Harness H(SharedScale);
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1000);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.OnFault = FaultAction::Abort;
  Opts.Injector = &Inj;
  I.run(Opts);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::Injected);
  EXPECT_EQ(FS.Rollbacks, 0u) << "abort mode must not snapshot or roll back";
  EXPECT_EQ(FS.Replays, 0u);
}

//===----------------------------------------------------------------------===//
// Stale-state regression pins
//===----------------------------------------------------------------------===//

TEST(FaultContain, RollbackPreservesInspectionCache) {
  // Regression: rollback used to bump every restored buffer's version
  // *past* the snapshot, although the restored bytes are exactly the
  // pre-loop bytes. That spuriously invalidated inspection verdicts cached
  // against those versions. The pin: `lp` MAY-writes ind (the guard never
  // fires, so the replay's serial stores touch only x) and faults in
  // parallel on both trips of the rep loop; the conditional scatter keyed
  // on ind must inspect once and hit the cache on the second trip.
  Harness H(R"(program t
    integer r, i, n
    integer ind(1000)
    real x(1000)
    n = 1000
    fill: do i = 1, n
      ind(i) = n + 1 - i
      x(i) = i * 0.5
    end do
    rep: do r = 1, 2
      lp: do i = 1, n
        if (x(i) < 0.0) then
          ind(i) = 1
        end if
        x(i) = x(i) + 1.0
      end do
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + 1.0
      end do
    end do
  end)");
  const xform::LoopReport *Lp = H.Plan.reportFor("lp");
  ASSERT_NE(Lp, nullptr);
  ASSERT_TRUE(Lp->Parallel) << Lp->WhyNot;
  const xform::LoopReport *Scat = H.Plan.reportFor("scat");
  ASSERT_NE(Scat, nullptr);
  ASSERT_TRUE(Scat->RuntimeConditional) << Scat->WhyNot;
  double Want = H.serialChecksum();

  verify::FaultInjector Inj;
  Inj.faultAt("lp", 500, /*ParallelOnly=*/true);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.RuntimeChecks = true;
  Opts.Injector = &Inj;
  ExecStats Stats;
  Memory M = I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  EXPECT_FALSE(FS.Faulted) << FS.str();
  EXPECT_EQ(FS.Rollbacks, 2u) << "lp faults and recovers on both trips";
  EXPECT_EQ(FS.ReplaysRecovered, 2u);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want);
  // ind was never actually written after fill, so the scatter's verdict
  // from trip 1 is still valid on trip 2 — the rollbacks in between must
  // not have disturbed ind's version.
  EXPECT_EQ(Stats.InspectionsRun, 1u)
      << "rollback spuriously invalidated a cached inspection verdict";
  EXPECT_EQ(Stats.InspectionsCached, 1u);
}

TEST(FaultContain, ReplayedInvocationCountsOneTier) {
  // Regression: a faulted-then-replayed invocation used to count in its
  // original dispatch tier *and* implicitly as the replay, so the health
  // report's tier counts exceeded the invocation count. Pinned behavior:
  // one tier per invocation, with the recovered invocation attributed to
  // the replay tier.
  Harness H(SharedScale);
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1000, /*ParallelOnly=*/true);
  prof::Session Prof;
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.Injector = &Inj;
  Opts.Prof = &Prof;
  ExecStats Stats;
  I.run(Opts, &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  ASSERT_EQ(I.faultState().ReplaysRecovered, 1u);
  // init dispatched statically; lp's only invocation is the replay.
  EXPECT_EQ(Stats.DispatchStatic, 1u) << "faulted invocation re-counted in "
                                         "its original tier";
  EXPECT_EQ(Stats.DispatchReplay, 1u);
  EXPECT_EQ(Stats.DispatchConditional, 0u);
  EXPECT_EQ(Stats.DispatchSerial, 0u);

  bool Saw = false;
  for (const prof::LoopHealth &LH : Prof.health(&H.Plan)) {
    EXPECT_EQ(LH.DispatchStatic + LH.DispatchConditional + LH.DispatchSerial +
                  LH.DispatchReplay,
              LH.Invocations)
        << LH.Label << ": tiers must sum to invocations";
    if (LH.Label == "lp") {
      Saw = true;
      EXPECT_EQ(LH.Invocations, 1u);
      EXPECT_EQ(LH.DispatchReplay, 1u);
      EXPECT_EQ(LH.DispatchStatic, 0u);
      EXPECT_EQ(LH.Verdict, "parallelized")
          << "a recovered fault must not demote the verdict";
    }
  }
  EXPECT_TRUE(Saw);
}

TEST(FaultContain, ReportedFaultStillCountsItsTier) {
  // Counterpart pin for the deferred tier accounting: under report mode
  // there is no replay, so the faulted invocation stays in the tier it
  // dispatched under.
  Harness H(SharedScale);
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1000);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.OnFault = FaultAction::Report;
  Opts.Injector = &Inj;
  ExecStats Stats;
  I.run(Opts, &Stats);
  ASSERT_TRUE(I.faultState().Faulted);
  EXPECT_EQ(Stats.DispatchStatic, 2u) << "init and the faulted lp dispatch";
  EXPECT_EQ(Stats.DispatchReplay, 0u);
}

//===----------------------------------------------------------------------===//
// The transaction's footprint
//===----------------------------------------------------------------------===//

TEST(FaultContain, SnapshotCoversConditionalWrites) {
  // The snapshot holds every buffer the loop body MAY write: after a
  // reported fault, y (written only on a branch) is restored bit for bit
  // along with x, and z (only read) is untouched.
  Harness H(R"(program t
    integer i, n
    real x(2000), y(2000), z(2000)
    n = 2000
    init: do i = 1, n
      x(i) = i * 0.5
      y(i) = i * 0.25
      z(i) = 1.0
    end do
    lp: do i = 1, n
      x(i) = x(i) * 2.0 + 1.0
      if (i > 1000) then
        y(i) = y(i) + z(i)
      end if
    end do
  end)");
  const xform::LoopReport *Rep = H.Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->Parallel) << Rep->WhyNot;
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1500);
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.Threads = 4;
  Opts.MinParallelWork = 0;
  Opts.OnFault = FaultAction::Report;
  Opts.Injector = &Inj;
  Memory M = I.run(Opts);
  ASSERT_TRUE(I.faultState().Faulted);
  ASSERT_EQ(I.faultState().Rollbacks, 1u);
  const Buffer &X = M.buffer(H.P->findSymbol("x"));
  const Buffer &Y = M.buffer(H.P->findSymbol("y"));
  const Buffer &Z = M.buffer(H.P->findSymbol("z"));
  ASSERT_EQ(Y.D.size(), 2000u);
  for (size_t E = 0; E < Y.D.size(); ++E) {
    ASSERT_EQ(X.D[E], (E + 1) * 0.5) << "element " << E;
    ASSERT_EQ(Y.D[E], (E + 1) * 0.25) << "element " << E;
    ASSERT_EQ(Z.D[E], 1.0) << "element " << E;
  }
}

} // namespace
