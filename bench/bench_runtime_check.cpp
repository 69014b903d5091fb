//===- bench/bench_runtime_check.cpp - Inspector/executor payoff ----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Measures what the runtime-check subsystem buys on kernels the static
/// analysis must leave serial: a gather/scatter whose index array is a
/// permutation only discoverable at run time, and a sparse-CCS segment
/// update whose column pointers come from an unanalyzable recurrence. Each
/// kernel runs serial, with the static pipeline only (the irregular loop
/// stays serial), and with --runtime-check on (the inspector licenses
/// parallel dispatch), in the simulated-multiprocessor mode. The irregular
/// loop repeats several times per run, so the verdict cache amortizes the
/// O(n) inspection the way repeated solver calls would in a real
/// application. Emits BENCH_runtime_check.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace iaa;
using namespace iaa::bench;

namespace {

/// Gather/scatter over a runtime permutation, repeated \p Reps times.
benchprogs::BenchmarkProgram gatherScatter(int64_t N, int64_t Reps) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program gs
    integer i, r, n
    integer ind(%lld)
    real x(%lld), y(%lld)
    n = %lld
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, %lld
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end do
  end)",
                (long long)N, (long long)N, (long long)N, (long long)N,
                (long long)Reps);
  benchprogs::BenchmarkProgram B;
  B.Name = "gather_scatter";
  B.Source = Buf;
  return B;
}

/// CCS-style segment scaling with recurrence-built column pointers,
/// repeated \p Reps times. Segment lengths are mod(i*5, 7) + 1, so vals
/// needs at most 7 elements per column. colcnt is written through an
/// identity permutation so the recurrence solver cannot prove the build
/// statically and the scale loop keeps its runtime inspection (the
/// benchmark measures inspector overhead).
benchprogs::BenchmarkProgram ccsScale(int64_t Cols, int64_t Reps) {
  char Buf[1280];
  std::snprintf(Buf, sizeof(Buf), R"(program ccs
    integer i, j, r, n
    integer colptr(%lld), colcnt(%lld), perm(%lld)
    real vals(%lld)
    n = %lld
    colptr(1) = 1
    mkperm: do i = 1, n
      perm(i) = i
    end do
    build: do i = 1, n
      colcnt(perm(i)) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
    end do
    fill: do i = 1, %lld
      vals(i) = mod(i, 13) * 0.125
    end do
    rep: do r = 1, %lld
      scale: do i = 1, n
        do j = 1, colcnt(i)
          vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.0625 + 0.25
        end do
      end do
    end do
  end)",
                (long long)(Cols + 1), (long long)Cols, (long long)Cols,
                (long long)(Cols * 7), (long long)Cols, (long long)(Cols * 7),
                (long long)Reps);
  benchprogs::BenchmarkProgram B;
  B.Name = "sparse_ccs";
  B.Source = Buf;
  return B;
}

struct RunResult {
  double Seconds = 0;
  interp::ExecStats Stats;
};

RunResult runConfig(const Compiled &C, unsigned Threads, bool RuntimeChecks) {
  interp::Interpreter I(*C.Program);
  interp::ExecOptions Opts;
  Opts.Plans = &C.Pipeline;
  Opts.Threads = Threads;
  Opts.Simulate = true;
  Opts.RuntimeChecks = RuntimeChecks;
  RunResult R;
  I.run(Opts, &R.Stats);
  R.Seconds = R.Stats.TotalSeconds;
  return R;
}

void printRuntimeCheckBench() {
  std::printf("\n=== Inspector/executor runtime checks on statically-serial "
              "irregular kernels (simulated multiprocessor) ===\n\n");
  double Scale = benchScale();
  int64_t N = std::max<int64_t>(500, int64_t(20000 * Scale));
  int64_t Cols = std::max<int64_t>(100, int64_t(4000 * Scale));
  const int64_t Reps = 8;
  const std::vector<unsigned> Threads = {2, 4, 8};
  JsonReport Report("runtime_check");

  for (const benchprogs::BenchmarkProgram &B :
       {gatherScatter(N, Reps), ccsScale(Cols, Reps)}) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    interp::Interpreter I(*C.Program);
    interp::ExecStats SerialStats;
    I.run({}, &SerialStats);
    double Serial = SerialStats.TotalSeconds;
    Report.row({{"program", json::str(B.Name)},
                {"config", json::str("serial")},
                {"threads", json::num(1)},
                {"seconds", json::num(Serial)},
                {"speedup", json::num(1.0)}});

    std::printf("%s (serial %.4fs, %lld reps of the irregular loop)\n",
                B.Name.c_str(), Serial, (long long)Reps);
    std::printf("  %-14s", "config");
    for (unsigned T : Threads)
      std::printf("  %6up", T);
    std::printf("\n");

    for (bool Checks : {false, true}) {
      const char *Config = Checks ? "runtime-check" : "static-only";
      std::printf("  %-14s", Config);
      for (unsigned T : Threads) {
        RunResult R = runConfig(C, T, Checks);
        std::printf("  %6.2f", Serial / R.Seconds);
        Report.row(
            {{"program", json::str(B.Name)},
             {"config", json::str(Config)},
             {"threads", json::num(T)},
             {"seconds", json::num(R.Seconds)},
             {"speedup", json::num(Serial / R.Seconds)},
             {"inspections_run", json::num(R.Stats.InspectionsRun)},
             {"inspections_cached", json::num(R.Stats.InspectionsCached)},
             {"runtime_check_fails", json::num(R.Stats.RuntimeCheckFails)}});
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  Report.write();
  std::printf("\nstatic-only leaves the irregular loop serial (the index "
              "data is opaque to the compile-time tests); runtime-check "
              "inspects the index array once, caches the verdict on its "
              "version counter across the remaining reps, and dispatches "
              "the loop parallel. The gap between the two rows is the "
              "payoff of the inspector/executor path.\n\n");
}

/// google-benchmark wrapper: one simulated 4-thread run with and without
/// runtime checks.
void BM_RuntimeCheckRun(benchmark::State &State) {
  double Scale = benchScale();
  Compiled C = compile(
      gatherScatter(std::max<int64_t>(500, int64_t(5000 * Scale)), 4),
      xform::PipelineMode::Full);
  bool Checks = State.range(0) != 0;
  for (auto _ : State) {
    RunResult R = runConfig(C, 4, Checks);
    benchmark::DoNotOptimize(R.Seconds);
  }
  State.SetLabel(Checks ? "runtime-check" : "static-only");
}

BENCHMARK(BM_RuntimeCheckRun)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printRuntimeCheckBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
