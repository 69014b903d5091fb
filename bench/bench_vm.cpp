//===- bench/bench_vm.cpp - Engine gain and parallel gain of the VM -------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Measures what the register-bytecode engine buys on the Fig. 16 benchmark
/// reconstructions plus a hot permutation-scatter microkernel, one factor
/// at a time. Each kernel runs three ways (best of three each): the
/// plan-free serial tree walk, the VM at T=1, and the VM at T=4 (real
/// threads). Engine gain is serial tree walk over VM at T=1 — the same
/// thread count on both sides; parallel gain is VM at T=1 over VM at T=4 —
/// the same engine on both sides. Times are the paper's irregular loops
/// (ExecStats::LoopSeconds); whole-program times, how many loop bodies
/// compiled vs bailed, and whether every run stayed bit-identical to the
/// serial reference are reported alongside. Emits BENCH_vm.json; CI
/// asserts every kernel's checksum, zero bailouts, and that the VM never
/// loses to the tree walk on the irregular loops.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>

using namespace iaa;
using namespace iaa::bench;

namespace {

/// Hot permutation scatter, repeated so the irregular loop dominates: ind
/// is a runtime permutation (mod(i*7, n)+1 with gcd(7, n) = 1), so the
/// loop parallelizes only via the injectivity inspection — whose verdict
/// is cached across the rep trips (ind never changes).
benchprogs::BenchmarkProgram scatterMicro(double Scale) {
  int64_t N = (int64_t)(400000 * Scale);
  if (N < 1000)
    N = 1000;
  while (N % 7 == 0 || N % 9 == 0)
    ++N;
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf), R"(program t
    integer i, r, n
    integer ind(%lld)
    real x(%lld), y(%lld)
    n = %lld
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = mod(i, 17) * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    rep: do r = 1, 12
      scat: do i = 1, n
        x(ind(i)) = x(ind(i)) + y(i) * 0.5
      end do
    end do
  end)",
                (long long)N, (long long)N, (long long)N, (long long)N);
  benchprogs::BenchmarkProgram B;
  B.Name = "pscatter";
  B.Source = Buf;
  B.IrregularLoops = {"scat"};
  return B;
}

struct TimedRun {
  double IrrSeconds = std::numeric_limits<double>::infinity();
  double TotalSeconds = std::numeric_limits<double>::infinity();
  unsigned VmLoops = 0, VmBailouts = 0;
  bool ChecksumOk = true;
};

/// Best of \p Reps runs of \p C: the plan-free serial tree walk when
/// \p VmThreads is 0, else the VM on that many real threads.
TimedRun runTimed(const Compiled &C, const std::vector<std::string> &IrrLoops,
                  unsigned VmThreads, double Want, int Reps) {
  TimedRun Best;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    interp::Interpreter I(*C.Program);
    interp::ExecOptions Opts;
    if (VmThreads) {
      Opts.Plans = &C.Pipeline;
      Opts.Threads = VmThreads;
      Opts.MinParallelWork = 0;
      Opts.RuntimeChecks = true;
    }
    interp::ExecStats Stats;
    interp::Memory M = I.run(Opts, &Stats);
    Best.ChecksumOk =
        Best.ChecksumOk && !I.faultState().Faulted &&
        M.checksumExcluding(interp::deadPrivateIds(C.Pipeline)) == Want;
    double Irr = 0;
    for (const std::string &L : IrrLoops) {
      auto It = Stats.LoopSeconds.find(L);
      if (It != Stats.LoopSeconds.end())
        Irr += It->second;
    }
    if (Irr < Best.IrrSeconds) {
      Best.IrrSeconds = Irr;
      Best.TotalSeconds = Stats.TotalSeconds;
      Best.VmLoops = Stats.VmLoopsCompiled;
      Best.VmBailouts = Stats.VmBailouts;
    }
  }
  return Best;
}

void printVm() {
  double Scale = benchScale();
  std::vector<benchprogs::BenchmarkProgram> Kernels =
      benchprogs::allBenchmarks(Scale);
  Kernels.push_back(scatterMicro(Scale));

  std::printf("\n=== Register-bytecode VM: engine gain (serial tree walk / "
              "VM at T=1) and parallel gain (VM T=1 / VM T=4), irregular "
              "loops, best of 3 ===\n\n");
  std::printf("  %-10s %10s %10s %10s %8s %8s  %8s %9s  %s\n", "kernel",
              "serial(s)", "vm-T1(s)", "vm-T4(s)", "engine", "parallel",
              "vm-loops", "bailouts", "checksum");

  JsonReport Report("vm");
  bool AllOk = true;
  double BestEngineGain = 0;
  for (const auto &B : Kernels) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    interp::Interpreter Ref(*C.Program);
    const double Want = Ref.run({}).checksumExcluding(
        interp::deadPrivateIds(C.Pipeline));

    TimedRun Serial = runTimed(C, B.IrregularLoops, 0, Want, 3);
    TimedRun Vm1 = runTimed(C, B.IrregularLoops, 1, Want, 3);
    TimedRun Vm4 = runTimed(C, B.IrregularLoops, 4, Want, 3);
    bool Ok = Serial.ChecksumOk && Vm1.ChecksumOk && Vm4.ChecksumOk;
    AllOk = AllOk && Ok;
    double EngineGain =
        Vm1.IrrSeconds > 0 ? Serial.IrrSeconds / Vm1.IrrSeconds : 0;
    double ParallelGain =
        Vm4.IrrSeconds > 0 ? Vm1.IrrSeconds / Vm4.IrrSeconds : 0;
    BestEngineGain = std::max(BestEngineGain, EngineGain);
    unsigned Bailouts = std::max(Vm1.VmBailouts, Vm4.VmBailouts);

    std::printf("  %-10s %10.4f %10.4f %10.4f %7.2fx %7.2fx  %8u %9u  %s\n",
                B.Name.c_str(), Serial.IrrSeconds, Vm1.IrrSeconds,
                Vm4.IrrSeconds, EngineGain, ParallelGain, Vm4.VmLoops,
                Bailouts, Ok ? "ok" : "MISMATCH");
    Report.row({{"kernel", json::str(B.Name)},
                {"serial_seconds", json::num(Serial.IrrSeconds)},
                {"vm_t1_seconds", json::num(Vm1.IrrSeconds)},
                {"vm_t4_seconds", json::num(Vm4.IrrSeconds)},
                {"engine_gain", json::num(EngineGain)},
                {"parallel_gain", json::num(ParallelGain)},
                {"serial_total_seconds", json::num(Serial.TotalSeconds)},
                {"vm_t1_total_seconds", json::num(Vm1.TotalSeconds)},
                {"vm_t4_total_seconds", json::num(Vm4.TotalSeconds)},
                {"vm_loops", json::num(Vm4.VmLoops)},
                {"vm_bailouts", json::num(Bailouts)},
                {"checksum_ok", Ok ? "true" : "false"}});
  }
  Report.write();

  std::printf("\nBest irregular-loop engine gain: %.2fx. %s\n\n",
              BestEngineGain,
              AllOk ? "All checksums bit-identical to serial."
                    : "CHECKSUM MISMATCH — see table.");
}

/// google-benchmark wrapper: the scatter microkernel as the serial tree
/// walk (arg 0) and on the VM at T=1 and T=4.
void BM_Engine(benchmark::State &State) {
  benchprogs::BenchmarkProgram B = scatterMicro(0.05);
  Compiled C = compile(B, xform::PipelineMode::Full);
  interp::Interpreter Serial(*C.Program);
  const double Want = Serial.run({}).checksumExcluding(
      interp::deadPrivateIds(C.Pipeline));
  auto VmThreads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    TimedRun R = runTimed(C, B.IrregularLoops, VmThreads, Want, 1);
    benchmark::DoNotOptimize(R.IrrSeconds);
  }
  State.SetLabel(VmThreads ? "vm-T" + std::to_string(VmThreads)
                           : "serial-tree-walk");
}

BENCHMARK(BM_Engine)->Arg(0)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printVm();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
