//===- tests/test_profiler.cpp - Loop profiler tests ----------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the iaa::prof loop profiler: program results are
/// bit-identical with profiling on or off across every schedule x
/// thread-count combination; conditional dispatch outcomes are attributed
/// per invocation; the profiler's dispatch tiers agree with ExecStats
/// under the race checker; the invocation cap demotes later invocations to
/// light (counted, timeline-free) records; the JSONL export round-trips
/// through the strict parser and is reproducible run to run; and absent
/// hardware counters degrade to "perf": null rather than failing.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "prof/Profiler.h"
#include "support/Json.h"
#include "verify/FaultInjector.h"
#include "xform/Parallelizer.h"

#include <regex>
#include <set>
#include <string>

using namespace iaa;
using namespace iaa::interp;
using iaa::test::parseOrDie;

namespace {

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

/// Compiles \p Source through the full pipeline and keeps a profiling
/// session for the runs below, for inspection afterwards.
struct Profiled {
  std::unique_ptr<mf::Program> P;
  xform::PipelineResult Plan;
  prof::Session S;

  explicit Profiled(const std::string &Source, prof::SessionOptions O = {})
      : P(parseOrDie(Source)),
        Plan(xform::parallelize(*P, xform::PipelineMode::Full)), S(O) {}

  /// Serial run without plans.
  void runSerial() {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Prof = &S;
    I.run(Opts);
  }

  /// Parallel run against the pipeline plan.
  ExecStats runParallel(unsigned Threads, bool RuntimeChecks = false) {
    Interpreter I(*P);
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.Threads = Threads;
    Opts.MinParallelWork = 0;
    Opts.RuntimeChecks = RuntimeChecks;
    Opts.Prof = &S;
    ExecStats Stats;
    I.run(Opts, &Stats);
    return Stats;
  }
};

//===----------------------------------------------------------------------===//
// Observation only: results are bit-identical with profiling on or off
//===----------------------------------------------------------------------===//

TEST(ProfilerInvariance, ChecksumsBitIdenticalAcrossSchedulesAndThreads) {
  const Schedule AllSchedules[] = {Schedule::Static, Schedule::Dynamic,
                                   Schedule::Guided};
  const unsigned ThreadCounts[] = {1, 2, 4, 7};

  auto P = parseOrDie(benchprogs::fig1aSource());
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  Interpreter I(*P);
  std::set<unsigned> Dead = deadPrivateIds(Plan);
  double Want = I.run(ExecOptions{}).checksumExcluding(Dead);

  for (Schedule S : AllSchedules)
    for (unsigned T : ThreadCounts) {
      ExecOptions Opts;
      Opts.Plans = &Plan;
      Opts.Threads = T;
      Opts.Sched = S;
      Opts.MinParallelWork = 0;
      prof::Session Prof; // Default options, as mfpar --profile uses.
      Opts.Prof = &Prof;
      Memory M = I.run(Opts);
      EXPECT_EQ(M.checksumExcluding(Dead), Want)
          << "schedule " << scheduleName(S) << ", T=" << T;
      EXPECT_FALSE(Prof.invocations().empty());
    }
}

//===----------------------------------------------------------------------===//
// Dispatch attribution
//===----------------------------------------------------------------------===//

TEST(ProfilerDispatch, ConditionalPassAndFailAreAttributed) {
  // A permutation index passes its injectivity inspection: the scat loop
  // must be recorded as conditional-parallel with the inspection cost
  // attributed. A duplicate-heavy index fails it: conditional-serial.
  const char *Permutation = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      y(i) = i * 0.5
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";
  {
    Profiled H(Permutation);
    H.runParallel(4, /*RuntimeChecks=*/true);
    bool Saw = false;
    for (const prof::LoopProfile &LP : H.S.invocations())
      if (LP.Label == "scat") {
        Saw = true;
        EXPECT_EQ(LP.Kind, prof::DispatchKind::CondParallel);
        EXPECT_EQ(LP.Threads, 4u);
        EXPECT_GT(LP.InspectUs, 0.0);
      }
    EXPECT_TRUE(Saw);
  }
  {
    const char *Duplicates = R"(program t
      integer i, n
      integer ind(1000)
      real x(1000), y(1000)
      n = 1000
      init: do i = 1, n
        ind(i) = mod(i * 7, 500) + 1
        y(i) = i * 0.5
      end do
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end)";
    Profiled H(Duplicates);
    H.runParallel(4, /*RuntimeChecks=*/true);
    bool Saw = false;
    for (const prof::LoopProfile &LP : H.S.invocations())
      if (LP.Label == "scat") {
        Saw = true;
        EXPECT_EQ(LP.Kind, prof::DispatchKind::CondSerial);
        EXPECT_GT(LP.InspectUs, 0.0);
      }
    EXPECT_TRUE(Saw);
  }
}

TEST(ProfilerDispatch, RaceCheckedInvocationsCountSerialInBothViews) {
  // Under the race checker a plan-marked loop runs serially under shadow
  // tags and forks nothing, so ExecStats and the health report must put
  // it in the same tier: serial, never static.
  Profiled H(R"(program t
    integer i
    real x(5000)
    lp: do i = 1, 5000
      x(i) = i * 2.0
    end do
  end)");
  Interpreter I(*H.P);
  ExecOptions Opts;
  Opts.Plans = &H.Plan;
  Opts.RaceCheck = true;
  Opts.Prof = &H.S;
  ExecStats Stats;
  I.run(Opts, &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_EQ(Stats.RacesFound, 0u);
  EXPECT_EQ(Stats.ParallelLoopRuns, 0u);
  EXPECT_EQ(Stats.DispatchStatic, 0u);

  unsigned Static = 0, Conditional = 0, Serial = 0, Replay = 0;
  for (const prof::LoopHealth &LH : H.S.health(&H.Plan)) {
    Static += LH.DispatchStatic;
    Conditional += LH.DispatchConditional;
    Serial += LH.DispatchSerial;
    Replay += LH.DispatchReplay;
  }
  EXPECT_EQ(Static, Stats.DispatchStatic);
  EXPECT_EQ(Conditional, Stats.DispatchConditional);
  EXPECT_EQ(Serial, Stats.DispatchSerial);
  EXPECT_EQ(Replay, Stats.DispatchReplay);
  EXPECT_EQ(Serial, 1u);
}

TEST(ProfilerDispatch, ParallelLoopRecordsWorkerTimelines) {
  Profiled H(benchprogs::fig1aSource());
  H.runParallel(4);
  bool SawParallel = false;
  for (const prof::LoopProfile &LP : H.S.invocations()) {
    // Every recorded invocation carries a timeline, even serial ones
    // (synthesized single-worker lane with busy == wall).
    ASSERT_FALSE(LP.Workers.empty()) << LP.Label;
    if (LP.Kind != prof::DispatchKind::Parallel)
      continue;
    SawParallel = true;
    unsigned Chunks = 0;
    for (const prof::WorkerTimeline &W : LP.Workers) {
      Chunks += W.Chunks;
      EXPECT_GE(W.BusyUs, 0.0);
    }
    EXPECT_GE(Chunks, LP.Workers.size())
        << LP.Label << ": every engaged worker ran at least one chunk";
  }
  EXPECT_TRUE(SawParallel);
}

TEST(ProfilerDispatch, InvocationCapDemotesToLightRecords) {
  // The inner loop runs 40 times but only the first 32 invocations are
  // fully recorded; the rest are counted in the health aggregate without
  // a timeline.
  Profiled H(R"(program t
    integer i, k, n
    real x(64)
    n = 64
    out: do k = 1, 40
      inn: do i = 1, n
        x(i) = x(i) + 1.0
      end do
    end do
  end)");
  H.runSerial();
  unsigned InnRecorded = 0;
  for (const prof::LoopProfile &LP : H.S.invocations())
    if (LP.Label == "inn")
      ++InnRecorded;
  EXPECT_EQ(InnRecorded, 32u);
  bool Saw = false;
  for (const prof::LoopHealth &LH : H.S.health(&H.Plan))
    if (LH.Label == "inn") {
      Saw = true;
      EXPECT_EQ(LH.Invocations, 40u);
      EXPECT_EQ(LH.Recorded, 32u);
    }
  EXPECT_TRUE(Saw);
}

TEST(ProfilerDispatch, CancelledDrainClampsTimelineAndImbalance) {
  // Regression: when a worker's first dynamic poll found the dispenser
  // already cancelled (a sibling faulted immediately), its timeline
  // recorded a zero-chunk lane whose dispatch span could exceed the loop
  // wall, driving StallUs and the aggregated imbalance percentage
  // negative. Single-iteration dynamic chunks with an every-iteration
  // parallel-only fault make the cancelled-drain path all but certain;
  // the pinned invariants must hold regardless of which worker loses the
  // race.
  Profiled H(R"(program t
    integer i, n
    real x(2000)
    n = 2000
    init: do i = 1, n
      x(i) = i * 0.5
    end do
    lp: do i = 1, n
      x(i) = x(i) * 2.0 + 1.0
    end do
  end)");
  verify::FaultInjector Inj;
  Inj.faultAt("lp", verify::InjectionPoint::EveryIteration,
              /*ParallelOnly=*/true);
  for (int Round = 0; Round < 4; ++Round) {
    Interpreter I(*H.P);
    ExecOptions Opts;
    Opts.Plans = &H.Plan;
    Opts.Threads = 7;
    Opts.Sched = Schedule::Dynamic;
    Opts.ChunkSize = 1;
    Opts.MinParallelWork = 0;
    Opts.Injector = &Inj;
    Opts.Prof = &H.S;
    I.run(Opts);
    ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  }
  for (const prof::LoopProfile &LP : H.S.invocations()) {
    if (LP.Label != "lp")
      continue;
    for (const prof::WorkerTimeline &W : LP.Workers) {
      EXPECT_GE(W.DispatchUs, 0.0) << LP.Invocation << "/" << W.Worker;
      EXPECT_LE(W.DispatchUs, LP.WallUs) << LP.Invocation << "/" << W.Worker
                                         << ": dispatch span past loop wall";
      EXPECT_GE(W.StallUs, 0.0) << LP.Invocation << "/" << W.Worker;
    }
  }
  for (const prof::LoopHealth &LH : H.S.health(&H.Plan))
    EXPECT_GE(LH.ImbalancePct, 0.0) << LH.Label;
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

TEST(ProfilerExport, JsonlRoundTripsThroughStrictParser) {
  Profiled H(benchprogs::fig1aSource());
  H.runParallel(4);
  std::string Out = H.S.jsonl(&H.Plan);

  size_t SessionRecords = 0, LoopRecords = 0, HealthRecords = 0;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t End = Out.find('\n', Pos);
    ASSERT_NE(End, std::string::npos) << "jsonl must end in a newline";
    std::string Line = Out.substr(Pos, End - Pos);
    Pos = End + 1;
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << "unparsable JSONL line: " << Line;
    ASSERT_TRUE(V->isObject()) << Line;
    const json::Value *Type = V->member("type");
    ASSERT_NE(Type, nullptr) << Line;
    if (Type->S == "session")
      ++SessionRecords;
    else if (Type->S == "loop") {
      ++LoopRecords;
      EXPECT_NE(V->member("workers"), nullptr) << Line;
      EXPECT_NE(V->member("perf"), nullptr) << Line;
      // The engine follows from the dispatch kind: dispatched invocations
      // ran VM chunks, every other one the serial tree walk.
      const json::Value *Dispatch = V->member("dispatch");
      const json::Value *Engine = V->member("engine");
      ASSERT_NE(Dispatch, nullptr) << Line;
      ASSERT_NE(Engine, nullptr) << Line;
      bool Dispatched = Dispatch->S == "parallel" ||
                        Dispatch->S == "conditional-parallel" ||
                        Dispatch->S == "replay";
      EXPECT_EQ(Engine->S, Dispatched ? "vm" : "interp") << Line;
    } else if (Type->S == "health") {
      ++HealthRecords;
      EXPECT_NE(V->member("verdict"), nullptr) << Line;
      EXPECT_NE(V->member("dispatch"), nullptr) << Line;
    }
  }
  EXPECT_EQ(SessionRecords, 1u);
  EXPECT_FALSE(Out.empty());
  EXPECT_GT(LoopRecords, 0u);
  EXPECT_GT(HealthRecords, 0u);
  // Every executed labeled loop has a health record.
  EXPECT_EQ(HealthRecords, H.S.health(&H.Plan).size());
}

TEST(ProfilerExport, MissingHardwareCountersDegradeToNull) {
  Profiled H(R"(program t
    integer i, n
    real x(100)
    n = 100
    lp: do i = 1, n
      x(i) = i * 2.0
    end do
  end)");
  H.runSerial();
  // On hosts without perf_event access the session must still produce
  // complete records with "perf": null — never fail or omit the field.
  if (!H.S.countersAvailable()) {
    for (const prof::LoopProfile &LP : H.S.invocations()) {
      EXPECT_FALSE(LP.Perf.Valid);
      EXPECT_NE(LP.jsonLine().find("\"perf\": null"), std::string::npos);
    }
  } else {
    // Counters opened: the deltas must be populated and sane.
    for (const prof::LoopProfile &LP : H.S.invocations()) {
      if (LP.Perf.Valid) {
        EXPECT_GT(LP.Perf.Cycles, 0u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

/// Strips wall-clock noise from a profiler JSONL dump: every timing value
/// (any key ending in _us, plus the timing-derived health percentages),
/// the global chunk-dispatch sequence number (which races across workers
/// even under a static schedule), and the perf object are zeroed, so two
/// runs of the same program compare byte-identical iff the dispatch kinds,
/// iteration ranges and tiers were identical.
std::string normalizedJsonl(prof::Session &S,
                            const xform::PipelineResult *Plans) {
  std::string Out = S.jsonl(Plans);
  Out = std::regex_replace(
      Out,
      std::regex("\"([a-z_]*_us|seconds|imbalance_pct|analysis_pct|chunk)\": "
                 "[-+0-9.eE]+"),
      "\"$1\": 0");
  Out = std::regex_replace(
      Out, std::regex("\"perf\": (null|\\{[^}]*\\})"), "\"perf\": null");
  return Out;
}

const char *DeterminismKernel = R"(program t
    integer i, n
    integer ind(2048)
    real x(2048), y(2048)
    n = 2048
    init: do i = 1, n
      ind(i) = mod(i * 11, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 5) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i)
    end do
  end)";

TEST(ProfilerDeterminism, TwoRunsProduceByteIdenticalNormalizedJsonl) {
  // Two fresh sessions over the same program must record the same
  // dispatch kinds, iteration ranges and tiers. Static schedule keeps
  // chunk->worker assignment deterministic; timings are normalized away.
  prof::SessionOptions O;
  O.HardwareCounters = false;
  std::string Dump[2];
  for (int Run = 0; Run < 2; ++Run) {
    Profiled H(DeterminismKernel, O);
    H.runParallel(4, /*RuntimeChecks=*/true);
    Dump[Run] = normalizedJsonl(H.S, &H.Plan);
  }
  EXPECT_FALSE(Dump[0].empty());
  EXPECT_EQ(Dump[0], Dump[1]) << "profiles must be reproducible run-to-run";
}

} // namespace
