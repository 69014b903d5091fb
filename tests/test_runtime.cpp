//===- tests/test_runtime.cpp - Scheduling-runtime tests ------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the persistent parallel runtime: the WorkerPool fork/join
/// primitive, the ChunkDispenser's guided chunks, the empty-chunk
/// last-value regression (NIter=6 over T=4 used to write an idle worker's
/// untouched copy-in privates back to shared memory), an array read after
/// its loop only in a do step, and the division-by-zero array-extent
/// fault.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Interpreter.h"
#include "interp/ThreadPool.h"
#include "xform/Parallelizer.h"

#include <atomic>
#include <set>
#include <vector>

using namespace iaa;
using namespace iaa::interp;
using iaa::test::parseOrDie;

namespace {

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

TEST(WorkerPool, RunsEveryWorkerExactlyOnce) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.maxWorkers(), 4u);
  std::vector<std::atomic<int>> Hits(4);
  for (auto &H : Hits)
    H = 0;
  Pool.run(4, [&](unsigned W) { ++Hits[W]; });
  for (unsigned W = 0; W < 4; ++W)
    EXPECT_EQ(Hits[W].load(), 1) << "worker " << W;
}

TEST(WorkerPool, ReusesThreadsAcrossInvocations) {
  // The structural point of the pool: many fork/joins, one thread spawn.
  WorkerPool Pool(3);
  std::atomic<int> Total{0};
  const int Rounds = 200;
  for (int R = 0; R < Rounds; ++R)
    Pool.run(3, [&](unsigned) { ++Total; });
  EXPECT_EQ(Total.load(), Rounds * 3);
  EXPECT_EQ(Pool.generation(), static_cast<uint64_t>(Rounds));
}

TEST(WorkerPool, RunWithFewerWorkersParksTheRest) {
  WorkerPool Pool(4);
  std::vector<std::atomic<int>> Hits(4);
  for (auto &H : Hits)
    H = 0;
  Pool.run(2, [&](unsigned W) { ++Hits[W]; });
  EXPECT_EQ(Hits[0].load(), 1);
  EXPECT_EQ(Hits[1].load(), 1);
  EXPECT_EQ(Hits[2].load(), 0);
  EXPECT_EQ(Hits[3].load(), 0);
}

TEST(WorkerPool, SingleWorkerRunsInline) {
  WorkerPool Pool(1);
  int Calls = 0;
  Pool.run(1, [&](unsigned W) {
    EXPECT_EQ(W, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(Pool.generation(), 0u) << "no fork generation for one worker";
}

//===----------------------------------------------------------------------===//
// ChunkDispenser
//===----------------------------------------------------------------------===//

/// Drains the dispenser single-threaded (round-robin over workers) and
/// checks that the chunks exactly partition [Lo, Up] in increasing order,
/// per worker and globally.
void expectExactCover(int64_t Lo, int64_t Up, unsigned Workers) {
  ChunkDispenser D(Lo, Up, Workers);
  std::set<int64_t> Seen;
  std::vector<int64_t> LastPerWorker(Workers, INT64_MIN);
  unsigned Chunks = 0;
  std::vector<bool> Done(Workers, false);
  bool Any = true;
  while (Any) {
    Any = false;
    for (unsigned W = 0; W < Workers; ++W) {
      if (Done[W])
        continue;
      int64_t First, Last;
      unsigned Id;
      if (!D.next(First, Last, Id)) {
        Done[W] = true;
        continue;
      }
      Any = true;
      ++Chunks;
      EXPECT_LE(First, Last) << "empty chunks must never be dispensed";
      EXPECT_GT(First, LastPerWorker[W])
          << "a worker's chunks must be increasing";
      LastPerWorker[W] = Last;
      for (int64_t I = First; I <= Last; ++I)
        EXPECT_TRUE(Seen.insert(I).second)
            << "iteration " << I << " dispensed twice";
    }
  }
  EXPECT_EQ(Seen.size(), static_cast<size_t>(Up >= Lo ? Up - Lo + 1 : 0));
  if (Up >= Lo) {
    EXPECT_EQ(*Seen.begin(), Lo);
    EXPECT_EQ(*Seen.rbegin(), Up);
  }
  EXPECT_EQ(D.chunksDispensed(), Chunks);
}

TEST(ChunkDispenser, PartitionsExactly) {
  for (unsigned T : {1u, 2u, 4u, 7u}) {
    expectExactCover(1, 6, T);   // The regression shape.
    expectExactCover(1, 100, T);
    expectExactCover(5, 5, T);   // Single iteration.
    expectExactCover(-3, 11, T); // Negative lower bound.
  }
}

TEST(ChunkDispenser, GuidedTailNeverStarves) {
  // Once fewer iterations remain than workers, Remaining/Workers is zero;
  // the floor of 1 must still drain every last iteration instead of
  // starving the trailing workers. expectExactCover checks it (no
  // duplicates, no gaps, max dispensed iteration == Up).
  for (unsigned T : {1u, 2u, 4u, 7u}) {
    expectExactCover(1, 37, T); // NIter = 37, prime-ish tail shapes.
    expectExactCover(1, 3, T);  // A space smaller than the worker count.
  }
}

TEST(ChunkDispenser, ZeroTripSpaceDispensesNothing) {
  // Up < Lo (a zero- or negative-trip do loop): the dispenser must
  // dispense nothing, count zero chunks, and stay well-defined under
  // arbitrarily many repeated polls — an exhausted poll must not advance
  // the shared cursor.
  const std::pair<int64_t, int64_t> EmptyBounds[] = {{1, 0}, {5, 1}, {0, -3}};
  for (auto [Lo, Up] : EmptyBounds) {
    ChunkDispenser D(Lo, Up, 3);
    int64_t First, Last;
    unsigned Id;
    for (int Poll = 0; Poll < 300; ++Poll)
      EXPECT_FALSE(D.next(First, Last, Id)) << "[" << Lo << ", " << Up << "]";
    EXPECT_EQ(D.chunksDispensed(), 0u);
  }
}

TEST(ChunkDispenser, GuidedChunksShrink) {
  ChunkDispenser D(1, 1000, 4);
  int64_t First, Last;
  unsigned Id;
  ASSERT_TRUE(D.next(First, Last, Id));
  EXPECT_EQ(Last - First + 1, 250) << "the first grab takes remaining / T";
  int64_t PrevSize = 250;
  while (D.next(First, Last, Id)) {
    int64_t Size = Last - First + 1;
    EXPECT_LE(Size, PrevSize) << "guided chunks must not grow";
    PrevSize = Size;
  }
  EXPECT_EQ(PrevSize, 1) << "guided drains down to the floor";
}

//===----------------------------------------------------------------------===//
// Empty-chunk last-value regression (the headline bug)
//===----------------------------------------------------------------------===//

// NIter=6 over T=4: guided hands out six 1-iteration chunks, and whichever
// workers wake first take them, so a worker can finish with none. The
// pre-rework runtime unconditionally wrote worker T-1's privates back, so
// `tmp` and `w` ended up with an idle worker's untouched copy-in (the
// pre-loop zeros) instead of iteration 6's values.
const char *LastValueSource = R"(program t
  integer i, j, n, tmp
  integer w(3)
  integer out(6), fin(4)
  n = 6
  lp: do i = 1, n
    tmp = i * 3
    do j = 1, 3
      w(j) = i * 10 + j
    end do
    out(i) = tmp + w(1)
  end do
  fin(1) = tmp
  fin(2) = i
  fin(3) = w(1)
  fin(4) = w(3)
end)";

TEST(LastValue, EmptyChunkDoesNotCorruptPrivates) {
  auto P = parseOrDie(LastValueSource);
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  ASSERT_NE(Plan.reportFor("lp"), nullptr);
  ASSERT_TRUE(Plan.reportFor("lp")->Parallel)
      << Plan.reportFor("lp")->WhyNot;

  Interpreter I(*P);
  ExecOptions Par;
  Par.Plans = &Plan;
  Par.Threads = 4;
  Par.MinParallelWork = 0;
  // Which worker runs which chunk varies from run to run, so repeat the
  // run: the final iteration's owner and the idle workers move around.
  for (int Run = 0; Run < 50; ++Run) {
    ExecStats Stats;
    Memory M = I.run(Par, &Stats);

    EXPECT_EQ(Stats.ParallelLoopRuns, 1u);
    EXPECT_EQ(Stats.ChunksRun, 6u)
        << "six 1-iteration chunks, never an empty one";
    EXPECT_LE(Stats.WorkersEngaged, 4u);

    const Buffer &Fin = M.buffer(P->findSymbol("fin"));
    EXPECT_EQ(Fin.I[0], 18)
        << "privatized scalar: last value is iteration 6's";
    EXPECT_EQ(Fin.I[1], 7) << "do index is ub+1 after the loop";
    EXPECT_EQ(Fin.I[2], 61)
        << "privatized array: last value is iteration 6's";
    EXPECT_EQ(Fin.I[3], 63);
    const Buffer &Out = M.buffer(P->findSymbol("out"));
    for (int64_t It = 1; It <= 6; ++It)
      EXPECT_EQ(Out.I[It - 1], It * 3 + It * 10 + 1) << "iteration " << It;
  }
}

TEST(LastValue, MatchesSerialThreadedAndSimulated) {
  auto P = parseOrDie(LastValueSource);
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  Interpreter I(*P);
  Memory Serial = I.run(ExecOptions{});
  double Want = Serial.checksum();
  for (bool Simulate : {false, true}) {
    ExecOptions Par;
    Par.Plans = &Plan;
    Par.Threads = 4;
    Par.MinParallelWork = 0;
    Par.Simulate = Simulate;
    Memory M = I.run(Par);
    EXPECT_EQ(M.checksum(), Want) << (Simulate ? "simulated" : "threaded");
  }
}

TEST(LastValue, ArrayReadOnlyInALaterDoStepIsLiveOut) {
  // After lp, t is read only as the step of `after`. Every iteration
  // writes t(i:300), so no single iteration's private copy holds the serial
  // final contents: lp must stay serial. A live-out query that skipped do
  // steps privatized t without a writeback, and `after` then stepped by the
  // stale shared t(2) = 0 and faulted.
  auto P = parseOrDie(R"(program p
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
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  const xform::LoopReport *Rep = Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel);
  bool SawT = false;
  for (const xform::ArrayPrivOutcome &O : Rep->PrivOutcomes)
    if (O.Array->name() == "t") {
      SawT = true;
      EXPECT_TRUE(O.LiveOut);
    }
  EXPECT_TRUE(SawT);

  Interpreter I(*P);
  double Want = I.run(ExecOptions{}).checksum();
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  for (unsigned T : {2u, 4u}) {
    ExecOptions Par;
    Par.Plans = &Plan;
    Par.Threads = T;
    Par.MinParallelWork = 0;
    double Got = I.run(Par).checksum();
    ASSERT_FALSE(I.faultState().Faulted) << "T=" << T << ": "
                                         << I.faultState().str();
    EXPECT_EQ(Got, Want) << "T=" << T;
  }
}

//===----------------------------------------------------------------------===//
// Runtime faults
//===----------------------------------------------------------------------===//

TEST(RuntimeFault, DivisionByZeroInArrayExtent) {
  // m is a whole-program constant 0; the extent n / m used to silently
  // evaluate to 0 and trip the unrelated "extent must be positive" fault.
  // Faults are structured values now, not process aborts: the run unwinds
  // cleanly and faultState() carries the attribution.
  auto P = parseOrDie(R"(program t
    integer n, m
    real x(n / m)
    n = 10
    m = 0
    x(1) = 1.0
  end)");
  Interpreter I(*P);
  I.run(ExecOptions{});
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::DivByZero);
  EXPECT_NE(FS.Fault.Detail.find("division by zero in array extent"),
            std::string::npos);
  EXPECT_TRUE(FS.Fault.Loc.isValid());
}

} // namespace
