//===- bench/bench_table2.cpp - Reproduces Table 2 ------------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Table 2 of the paper reports, per program: lines of code, whole-program
/// compilation time, sequential execution time, the time spent in the
/// array property analysis, and that time as a percentage of compilation.
/// The paper measured 4.5%-10.9%; the claim reproduced here is the *shape*:
/// the demand-driven property analysis is a small single-/low-double-digit
/// fraction of total pipeline time.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Trace.h"

#include <benchmark/benchmark.h>

using namespace iaa;
using namespace iaa::bench;

namespace {

void printTable2() {
  std::printf("\n=== Table 2: compilation time and array property analysis "
              "share ===\n");
  std::printf("%-8s %6s %12s %12s %16s %8s\n", "Program", "Lines",
              "SeqExec(s)", "Pipeline(s)", "PropAnalysis(s)", "Share");
  double Scale = benchScale();
  JsonReport Report("table2");
  for (const benchprogs::BenchmarkProgram &B :
       benchprogs::allBenchmarks(Scale)) {
    // Compile repeatedly for a stable timing (the pipeline is fast).
    const int Rounds = 20;
    double PipelineSecs = 0, PropSecs = 0;
    for (int R = 0; R < Rounds; ++R) {
      Compiled C = compile(B, xform::PipelineMode::Full);
      PipelineSecs += C.Pipeline.TotalSeconds;
      PropSecs += C.Pipeline.PropertySeconds;
    }
    PipelineSecs /= Rounds;
    PropSecs /= Rounds;

    Compiled C = compile(B, xform::PipelineMode::Full);
    interp::ExecStats Stats;
    double SeqSecs = executeSerial(C, &Stats);

    // The same serial run with span collection switched on: the disabled
    // path costs one relaxed load per instrumentation site, so the two
    // timings should agree to noise (recorded in the JSON as evidence).
    trace::enable(true);
    interp::ExecStats TracedStats;
    double TracedSecs = executeSerial(C, &TracedStats);
    trace::enable(false);
    size_t TraceEvents = trace::eventCount();
    trace::clear();

    std::printf("%-8s %6u %12.3f %12.5f %16.5f %7.1f%%\n", B.Name.c_str(),
                B.lineCount(), SeqSecs, PipelineSecs, PropSecs,
                100.0 * PropSecs / PipelineSecs);
    Report.row({{"program", json::str(B.Name)},
                {"lines", json::num(B.lineCount())},
                {"seq_exec_s", json::num(SeqSecs)},
                {"seq_exec_traced_s", json::num(TracedSecs)},
                {"trace_events", json::num(static_cast<double>(TraceEvents))},
                {"pipeline_s", json::num(PipelineSecs)},
                {"prop_analysis_s", json::num(PropSecs)},
                {"prop_share_pct",
                 json::num(100.0 * PropSecs / PipelineSecs)}});
  }
  Report.write();
  std::printf("\nPaper reference (Table 2): property analysis was 4.5%% "
              "(TRFD) to 10.9%% (P3M) of compilation time.\n\n");
}

/// google-benchmark wrapper: one pipeline compilation per iteration.
void BM_PipelineCompile(benchmark::State &State) {
  auto All = benchprogs::allBenchmarks(benchScale());
  const benchprogs::BenchmarkProgram &B = All[State.range(0)];
  for (auto _ : State) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    benchmark::DoNotOptimize(C.Pipeline.Loops.size());
  }
  State.SetLabel(B.Name);
}

BENCHMARK(BM_PipelineCompile)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printTable2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
