//===- bench/bench_profile.cpp - Loop profiling coverage ------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Profiles the Fig. 16 kernels plus the paper's motivating gather/scatter
/// and sparse-CCS shapes with the iaa::prof loop profiler: per labeled loop
/// the health verdict, the invocations per dispatch tier, worker imbalance
/// and the analysis-cost share. Emits BENCH_profile.json, so dispatch
/// regressions become visible the same way timing regressions already are.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "prof/Profiler.h"

#include <benchmark/benchmark.h>

using namespace iaa;
using namespace iaa::bench;

namespace {

void runProfiled(const Compiled &C, unsigned Threads, prof::Session &S) {
  interp::Interpreter I(*C.Program);
  interp::ExecOptions Opts;
  Opts.Plans = &C.Pipeline;
  Opts.Threads = Threads;
  Opts.Simulate = true;
  Opts.Prof = &S;
  I.run(Opts);
}

void printProfiles() {
  std::printf("\n=== Loop profiles: Fig. 16 kernels + motivating shapes "
              "(4 simulated processors, IAA pipeline) ===\n\n");
  double Scale = benchScale();
  JsonReport Report("profile");

  std::vector<benchprogs::BenchmarkProgram> Programs =
      benchprogs::allBenchmarks(Scale);
  Programs.push_back({"Fig3-CCS", benchprogs::fig3Source(), {}, {}});
  Programs.push_back({"Fig14-gather", benchprogs::fig14Source(), {}, {}});

  for (const auto &B : Programs) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    prof::Session S;
    runProfiled(C, 4, S);
    std::printf("%s\n%s\n", B.Name.c_str(),
                S.healthText(&C.Pipeline).c_str());

    for (const prof::LoopHealth &H : S.health(&C.Pipeline))
      Report.row({{"program", json::str(B.Name)},
                  {"loop", json::str(H.Label)},
                  {"verdict", json::str(H.Verdict)},
                  {"dispatch_static", json::num(H.DispatchStatic)},
                  {"dispatch_conditional", json::num(H.DispatchConditional)},
                  {"dispatch_serial", json::num(H.DispatchSerial)},
                  {"dispatch_replay", json::num(H.DispatchReplay)},
                  {"imbalance_pct", json::num(H.ImbalancePct)},
                  {"analysis_pct", json::num(H.AnalysisPct)},
                  {"invocations", json::num(H.Invocations)},
                  {"wall_us", json::num(H.WallUs)}});
  }

  Report.write();
  std::printf("\nDispatch counts invocations per tier (static / "
              "conditional / serial / replay); imbalance compares the "
              "busiest worker with the mean.\n\n");
}

/// google-benchmark wrapper: one profiled simulated run (P3M's gathers).
void BM_ProfiledRun(benchmark::State &State) {
  auto All = benchprogs::allBenchmarks(0.1);
  Compiled C = compile(All[3], xform::PipelineMode::Full); // P3M.
  for (auto _ : State) {
    prof::Session S;
    runProfiled(C, 4, S);
    benchmark::DoNotOptimize(S.invocations().size());
  }
}

BENCHMARK(BM_ProfiledRun)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printProfiles();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
