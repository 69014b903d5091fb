//===- bench/bench_recurrence.cpp - Static promotion payoff ---------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Measures what the recurrence solver buys over the inspector/executor
/// path: kernels whose index arrays are built by analyzable recurrences (a
/// fused CCS build and a prefix-sum scatter) dispatch parallel on a static
/// proof — zero inspections, zero verdict-cache traffic — while a
/// permuted-build control with identical runtime behavior keeps paying for
/// the O(n) inspection. Each kernel runs serial, with runtime checks
/// enabled, and with them disabled (promoted loops stay parallel either
/// way; the control falls back to serial), in the simulated-multiprocessor
/// mode. A checksum sweep across thread counts guards bit-identical
/// results. Emits BENCH_recurrence.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <set>

using namespace iaa;
using namespace iaa::bench;

namespace {

/// Fused CCS segment scaling: colcnt is defined in the same body the
/// colptr recurrence reads it, so only the recurrence solver proves the
/// scale loop's segments disjoint — it promotes to unconditional parallel.
benchprogs::BenchmarkProgram ccsFused(int64_t Cols, int64_t Reps) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program ccs
    integer i, j, r, n
    integer colptr(%lld), colcnt(%lld)
    real vals(%lld)
    n = %lld
    colptr(1) = 1
    build: do i = 1, n
      colcnt(i) = mod(i * 5, 7) + 1
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
                (long long)(Cols + 1), (long long)Cols, (long long)(Cols * 7),
                (long long)Cols, (long long)(Cols * 7), (long long)Reps);
  benchprogs::BenchmarkProgram B;
  B.Name = "ccs_fused";
  B.Source = Buf;
  return B;
}

/// Prefix-sum scatter: pos is strictly increasing (accumulator step >= 1),
/// so the scatter through it is injective by construction and promotes.
benchprogs::BenchmarkProgram prefixScatter(int64_t N, int64_t Reps) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program pfx
    integer i, r, n, p
    integer pos(%lld)
    real x(%lld), y(%lld)
    n = %lld
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, %lld
      scat: do i = 1, n
        x(pos(i)) = x(pos(i)) + y(i) * 0.5
      end do
    end do
  end)",
                (long long)N, (long long)(N * 3 + 100), (long long)N,
                (long long)N, (long long)Reps);
  benchprogs::BenchmarkProgram B;
  B.Name = "prefix_scatter";
  B.Source = Buf;
  return B;
}

/// Control: the same CCS kernel with colcnt written through a runtime
/// permutation (the identity, but the solver cannot know that). No fact is
/// derived, the scale loop stays runtime-conditional, and every run pays
/// the inspection the promoted variants delete.
benchprogs::BenchmarkProgram ccsPermuted(int64_t Cols, int64_t Reps) {
  char Buf[1280];
  std::snprintf(Buf, sizeof(Buf), R"(program ccp
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
  B.Name = "ccs_permuted";
  B.Source = Buf;
  return B;
}

struct RunResult {
  double Seconds = 0;
  interp::ExecStats Stats;
};

RunResult runConfig(const Compiled &C, unsigned Threads, bool RuntimeChecks,
                    interp::Memory *OutMem = nullptr) {
  interp::Interpreter I(*C.Program);
  interp::ExecOptions Opts;
  Opts.Plans = &C.Pipeline;
  Opts.Threads = Threads;
  Opts.Simulate = true;
  Opts.RuntimeChecks = RuntimeChecks;
  RunResult R;
  interp::Memory M = I.run(Opts, &R.Stats);
  R.Seconds = R.Stats.TotalSeconds;
  if (OutMem)
    *OutMem = std::move(M);
  return R;
}

unsigned promotedLoops(const Compiled &C) {
  unsigned N = 0;
  for (const xform::LoopReport &Rep : C.Pipeline.Loops)
    if (Rep.Parallel && Rep.RecurrencePromoted)
      ++N;
  return N;
}

/// Serial-reference checksum compared against every thread count with
/// checks enabled.
bool checksumSweepOk(const Compiled &C, double Want) {
  std::set<unsigned> Dead = interp::deadPrivateIds(C.Pipeline);
  for (unsigned T : {1u, 2u, 4u, 7u}) {
    interp::Memory M(*C.Program);
    runConfig(C, T, /*RuntimeChecks=*/true, &M);
    if (M.checksumExcluding(Dead) != Want)
      return false;
  }
  return true;
}

void printRecurrenceBench() {
  std::printf("\n=== Recurrence-based static promotion vs. runtime "
              "inspection (simulated multiprocessor) ===\n\n");
  double Scale = benchScale();
  int64_t N = std::max<int64_t>(500, int64_t(20000 * Scale));
  int64_t Cols = std::max<int64_t>(100, int64_t(4000 * Scale));
  const int64_t Reps = 8;
  const std::vector<unsigned> Threads = {2, 4, 8};
  JsonReport Report("recurrence");

  for (const benchprogs::BenchmarkProgram &B :
       {ccsFused(Cols, Reps), prefixScatter(N, Reps), ccsPermuted(Cols, Reps)}) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    unsigned Promoted = promotedLoops(C);

    interp::Interpreter I(*C.Program);
    interp::ExecStats SerialStats;
    interp::Memory SerialMem = I.run({}, &SerialStats);
    double Serial = SerialStats.TotalSeconds;
    double Want =
        SerialMem.checksumExcluding(interp::deadPrivateIds(C.Pipeline));
    bool ChecksumOk = checksumSweepOk(C, Want);

    Report.row({{"program", json::str(B.Name)},
                {"kind", json::str("summary")},
                {"promoted_loops", json::num(Promoted)},
                {"checksum_ok", ChecksumOk ? "true" : "false"},
                {"serial_seconds", json::num(Serial)}});

    std::printf("%s (serial %.4fs, %u promoted loop(s), %lld reps, "
                "checksums %s)\n",
                B.Name.c_str(), Serial, Promoted, (long long)Reps,
                ChecksumOk ? "bit-identical" : "MISMATCH");
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
             {"kind", json::str("run")},
             {"config", json::str(Config)},
             {"threads", json::num(T)},
             {"seconds", json::num(R.Seconds)},
             {"speedup", json::num(Serial / R.Seconds)},
             {"dispatch_static", json::num(R.Stats.DispatchStatic)},
             {"dispatch_conditional", json::num(R.Stats.DispatchConditional)},
             {"dispatch_serial", json::num(R.Stats.DispatchSerial)},
             {"inspections_run", json::num(R.Stats.InspectionsRun)},
             {"inspections_cached", json::num(R.Stats.InspectionsCached)}});
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  Report.write();
  std::printf("\nccs_fused and prefix_scatter carry recurrence-promoted "
              "plans: their irregular loops dispatch parallel on the static "
              "tier with zero inspections, whether or not runtime checks "
              "are enabled. ccs_permuted is the control — byte-for-byte the "
              "same runtime behavior, but the permuted build hides the "
              "recurrence, so its loop pays the inspection under "
              "runtime-check and stays serial without it.\n\n");
}

/// google-benchmark wrapper: one simulated 4-thread run of the promoted
/// prefix-sum scatter and of the conditional control.
void BM_RecurrenceRun(benchmark::State &State) {
  double Scale = benchScale();
  bool Promoted = State.range(0) != 0;
  int64_t N = std::max<int64_t>(500, int64_t(5000 * Scale));
  Compiled C = compile(Promoted ? prefixScatter(N, 4)
                                : ccsPermuted(std::max<int64_t>(
                                                  100, int64_t(1000 * Scale)),
                                              4),
                       xform::PipelineMode::Full);
  for (auto _ : State) {
    RunResult R = runConfig(C, 4, /*RuntimeChecks=*/true);
    benchmark::DoNotOptimize(R.Seconds);
  }
  State.SetLabel(Promoted ? "promoted" : "conditional-control");
}

BENCHMARK(BM_RecurrenceRun)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printRecurrenceBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
