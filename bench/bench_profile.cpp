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
/// and the analysis-cost share — and, per program, the profiling overhead
/// (profiled vs. unprofiled process CPU time). Emits BENCH_profile.json,
/// so dispatch regressions become visible the same way timing regressions
/// already are.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "prof/Profiler.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>

using namespace iaa;
using namespace iaa::bench;

namespace {

/// Process CPU seconds: unlike wall time, not inflated by whatever else
/// the machine is running, so overhead percentages stay meaningful on a
/// loaded CI box. Simulated-processor runs execute on the calling thread,
/// so process CPU time covers all the work.
double cpuSeconds() {
  timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return TS.tv_sec + TS.tv_nsec * 1e-9;
}

double runProfiled(const Compiled &C, unsigned Threads, prof::Session *S) {
  interp::Interpreter I(*C.Program);
  interp::ExecOptions Opts;
  Opts.Plans = &C.Pipeline;
  Opts.Threads = Threads;
  Opts.Simulate = true;
  Opts.Prof = S;
  double Begin = cpuSeconds();
  I.run(Opts, nullptr);
  return cpuSeconds() - Begin;
}

/// Min-of-\p Reps plain and profiled CPU times, interleaved so slow drift
/// in the machine's load hits both sides equally instead of biasing the
/// ratio. A fresh session per profiled rep keeps invocation caps out of
/// play. Returns {plain, profiled}.
std::pair<double, double> measureOverhead(const Compiled &C, unsigned Threads,
                                          int Reps) {
  double Plain = runProfiled(C, Threads, nullptr);
  double Profiled = 1e30;
  for (int R = 0; R < Reps; ++R) {
    prof::Session S;
    Profiled = std::min(Profiled, runProfiled(C, Threads, &S));
    if (R + 1 < Reps)
      Plain = std::min(Plain, runProfiled(C, Threads, nullptr));
  }
  return {Plain, Profiled};
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

    // Overhead: profiled vs. unprofiled process CPU time. Separate
    // sessions per run keep invocation caps out of play. Sub-millisecond
    // programs are all fixed per-invocation cost (session setup, record
    // building) — a percentage of nothing — so they are excluded from the
    // overhead row rather than reported as a scary number.
    auto [Plain, Profiled] = measureOverhead(C, 4, 5);
    bool OverheadMeaningful = Plain >= 1e-3;
    double OverheadPct =
        OverheadMeaningful ? (Profiled / Plain - 1.0) * 100.0 : 0.0;

    // The reported profile comes from one fresh session.
    prof::Session S;
    runProfiled(C, 4, &S);

    if (OverheadMeaningful)
      std::printf("%s (profiling overhead %+.1f%%)\n", B.Name.c_str(),
                  OverheadPct);
    else
      std::printf("%s (too short for a meaningful overhead percentage)\n",
                  B.Name.c_str());
    std::printf("%s", S.healthText(&C.Pipeline).c_str());
    std::printf("\n");

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
                  {"wall_us", json::num(H.WallUs)},
                  {"overhead_pct", json::num(OverheadPct)}});
  }

  Report.write();
  std::printf("\nDispatch counts invocations per tier (static / "
              "conditional / serial / replay); imbalance compares the "
              "busiest worker with the mean. Overhead compares profiled vs. "
              "unprofiled CPU time: the profiler records per loop "
              "invocation and per chunk, never per element access.\n\n");
}

/// google-benchmark wrapper: one profiled simulated run (P3M's gathers).
void BM_ProfiledRun(benchmark::State &State) {
  auto All = benchprogs::allBenchmarks(0.1);
  Compiled C = compile(All[3], xform::PipelineMode::Full); // P3M.
  for (auto _ : State) {
    prof::Session S;
    double Wall = runProfiled(C, 4, &S);
    benchmark::DoNotOptimize(Wall);
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
