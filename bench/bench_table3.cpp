//===- bench/bench_table3.cpp - Reproduces Table 3 ------------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Table 3 of the paper reports, per irregular loop: the arrays analyzed,
/// the property established (CW, STACK, CFV, CFD, CFB), which test consumed
/// it (DD = dependence test, PRIV = privatization test), the loop's share
/// of sequential execution time, and its share of parallel execution time
/// if it were left serial. This bench regenerates all of those columns from
/// the pipeline reports and the interpreter's per-loop timing.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <set>

using namespace iaa;
using namespace iaa::bench;

namespace {

/// "CFD" is reported as "CFV" when the recurrence additionally has a
/// constant base (TRFD's ia(i) = i*(i-1)/2), matching the paper's labels.
std::string refineCfd(const mf::Program &P, const std::string &Entry) {
  // Entries look like "ia:CFD"; report "ia:CFV" when the recurrence has a
  // constant base (closed-form *value*, not just distance).
  size_t Colon = Entry.find(':');
  if (Colon == std::string::npos || Entry.substr(Colon + 1) != "CFD")
    return Entry;
  const mf::Symbol *Array = P.findSymbol(Entry.substr(0, Colon));
  if (Array && analysis::ClosedFormDistanceChecker::hasConstantBase(P, Array))
    return Entry.substr(0, Colon) + ":CFV";
  return Entry;
}

void printTable3() {
  std::printf("\n=== Table 3: irregular loops, properties, tests, and time "
              "shares ===\n");
  std::printf("%-8s %-8s %-10s %-24s %-6s %8s %10s\n", "Program", "Loop",
              "Parallel", "Array:property", "Test", "%seq",
              "%par-if-serial(8)");
  double Scale = benchScale();
  JsonReport Report("table3");
  for (const benchprogs::BenchmarkProgram &B :
       benchprogs::allBenchmarks(Scale)) {
    Compiled C = compile(B, xform::PipelineMode::Full);

    interp::ExecStats Seq;
    double Total = executeSerial(C, &Seq);

    std::vector<std::string> Labels = B.IrregularLoops;
    Labels.insert(Labels.end(), B.HelperLoops.begin(), B.HelperLoops.end());
    for (const std::string &Label : Labels) {
      const xform::LoopReport *Rep = C.Pipeline.reportFor(Label);
      if (!Rep)
        continue;

      // Property/test summary: dependence-test properties first, then
      // privatization properties.
      std::string Props;
      std::string Test;
      std::set<std::string> Seen;
      for (const auto &D : Rep->DepOutcomes)
        for (const std::string &Prop : D.PropertiesUsed) {
          std::string Entry = refineCfd(*C.Program, Prop);
          if (Seen.insert(Entry).second)
            Props += (Props.empty() ? "" : ",") + Entry;
          Test = "DD";
        }
      for (const auto &Pv : Rep->PrivOutcomes) {
        if (!Pv.Privatizable)
          continue;
        for (const std::string &Prop : Pv.PropertiesUsed) {
          if (Prop.find(":affine") != std::string::npos)
            continue;
          if (Seen.insert(Prop).second)
            Props += (Props.empty() ? "" : ",") + Prop;
          if (Test.empty())
            Test = "PRIV";
        }
      }
      if (Test.empty())
        Test = "-";

      double LoopSecs = 0;
      auto It = Seq.LoopSeconds.find(Label);
      if (It != Seq.LoopSeconds.end())
        LoopSecs = It->second;
      double SeqShare = Total > 0 ? 100.0 * LoopSecs / Total : 0;
      // Amdahl estimate of the loop's share of an 8-thread run if it were
      // the only serial part (the paper's column 11 analog).
      const double T = 8;
      double ParTime = LoopSecs + (Total - LoopSecs) / T;
      double ParShare = ParTime > 0 ? 100.0 * LoopSecs / ParTime : 0;

      std::printf("%-8s %-8s %-10s %-24s %-6s %7.1f%% %9.1f%%\n",
                  B.Name.c_str(), Label.c_str(),
                  Rep->Parallel ? "yes" : "no", Props.c_str(), Test.c_str(),
                  SeqShare, ParShare);
      Report.row({{"program", json::str(B.Name)},
                  {"loop", json::str(Label)},
                  {"parallel", Rep->Parallel ? "true" : "false"},
                  {"properties", json::str(Props)},
                  {"test", json::str(Test)},
                  {"seq_share_pct", json::num(SeqShare)},
                  {"par_if_serial_pct", json::num(ParShare)}});
    }
  }
  Report.write();
  std::printf("\nPaper reference (Table 3): TRFD do140 x:CFV DD 5%%; DYFESM "
              "SOLXDD loops pptr:CFD,iblen:CFB DD 20%%; BDNA do240 ind:CFB "
              "PRIV 32%%; P3M do100 jpr:CFB PRIV 74%%; TREE do10 "
              "stack:STACK 90%%.\n\n");
}

/// google-benchmark wrapper: a full Table 3 analysis pass per iteration.
void BM_AnalyzeProgram(benchmark::State &State) {
  auto All = benchprogs::allBenchmarks(0.05);
  const benchprogs::BenchmarkProgram &B = All[State.range(0)];
  for (auto _ : State) {
    Compiled C = compile(B, xform::PipelineMode::Full);
    unsigned Queries = 0;
    for (const auto &Rep : C.Pipeline.Loops)
      Queries += Rep.PropertyQueries;
    benchmark::DoNotOptimize(Queries);
  }
  State.SetLabel(B.Name);
}

BENCHMARK(BM_AnalyzeProgram)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printTable3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
