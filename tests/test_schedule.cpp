//===- tests/test_schedule.cpp - Loop-schedule equivalence suite ----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The guided dispenser must compute exactly what the serial loop
/// computes: for each Fig. 16 benchmark kernel the memory checksum is
/// bit-identical across serial and T in {1, 2, 4, 7} (7 deliberately does
/// not divide the common trip counts, so chunks come out ragged), in both
/// threaded and simulated execution, including scalar-reduction loops.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "xform/Parallelizer.h"

#include <set>

using namespace iaa;
using namespace iaa::interp;
using iaa::test::parseOrDie;

namespace {

const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// Runs \p P at every thread count and asserts the checksum (excluding dead
/// privatized arrays) equals the serial run's bit for bit.
void expectSerialEquivalence(const mf::Program &P,
                             const xform::PipelineResult &Plan,
                             const std::string &Name,
                             int64_t MinParallelWork = 0) {
  Interpreter I(P);
  Memory Serial = I.run(ExecOptions{});
  std::set<unsigned> Dead = deadPrivateIds(Plan);
  double Want = Serial.checksumExcluding(Dead);

  for (unsigned T : ThreadCounts) {
    ExecOptions Par;
    Par.Plans = &Plan;
    Par.Threads = T;
    Par.MinParallelWork = MinParallelWork;
    ExecStats Stats;
    Memory M = I.run(Par, &Stats);
    EXPECT_EQ(M.checksumExcluding(Dead), Want) << Name << ", T=" << T;
    EXPECT_GE(Stats.ChunksRun, Stats.WorkersEngaged)
        << Name << ": every engaged worker ran at least one chunk";
  }
}

class ScheduleEquiv : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleEquiv, ChecksumBitIdenticalAcrossThreadCounts) {
  auto All = benchprogs::allBenchmarks(/*Scale=*/0.08);
  const benchprogs::BenchmarkProgram &B = All[GetParam()];
  auto P = parseOrDie(B.Source);
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  expectSerialEquivalence(*P, Plan, B.Name);
}

std::string benchCaseName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"TRFD", "DYFESM", "BDNA", "P3M", "TREE"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(Fig16Kernels, ScheduleEquiv,
                         ::testing::Values(0, 1, 2, 3, 4), benchCaseName);

TEST(ScheduleEquivExtra, ReductionLoop) {
  // A scalar sum reduction with a dyadic-exact increment: per-worker
  // partials must merge to the serial sum for every chunk decomposition.
  auto P = parseOrDie(R"(program t
    integer i, n
    real s
    real x(997)
    n = 997
    do i = 1, n
      x(i) = mod(i * 13, 7) * 0.25 + 0.5
    end do
    s = 2.0
    red: do i = 1, n
      s = s + x(i)
    end do
  end)");
  xform::PipelineResult Plan =
      xform::parallelize(*P, xform::PipelineMode::Full);
  ASSERT_NE(Plan.reportFor("red"), nullptr);
  ASSERT_TRUE(Plan.reportFor("red")->Parallel);
  expectSerialEquivalence(*P, Plan, "reduction");
}

TEST(ScheduleEquivExtra, SimulateModelsTheDispenser) {
  // Simulated execution must produce the same memory state as the serial
  // run (it models the dispenser by list scheduling on virtual clocks).
  auto All = benchprogs::allBenchmarks(/*Scale=*/0.05);
  for (int Which : {1, 3}) { // DYFESM, P3M.
    auto P = parseOrDie(All[Which].Source);
    xform::PipelineResult Plan =
        xform::parallelize(*P, xform::PipelineMode::Full);
    Interpreter I(*P);
    Memory Serial = I.run(ExecOptions{});
    std::set<unsigned> Dead = deadPrivateIds(Plan);
    ExecOptions Par;
    Par.Plans = &Plan;
    Par.Threads = 7;
    Par.Simulate = true;
    Par.MinParallelWork = 0;
    Memory M = I.run(Par);
    EXPECT_EQ(M.checksumExcluding(Dead), Serial.checksumExcluding(Dead))
        << All[Which].Name << " simulated";
  }
}

} // namespace
