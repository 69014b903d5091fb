//===- perfbench/src/Bench.cpp - Shared pieces of the benchmark -----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "interp/Inspector.h"
#include "mf/Parser.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "verify/PlanAudit.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <tuple>

using namespace iaa;

namespace perfbench {

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  return Lo + static_cast<int64_t>(next() % uint64_t(Hi - Lo + 1));
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  // The order statistic with exactly ten samples above it; with fewer than
  // eleven samples the median is the best that can be said.
  size_t N = V.size();
  size_t Idx = N > 10 ? N - 11 : N / 2;
  T.Value = V[Idx];
  T.Beyond = N - 1 - Idx;
  T.Percentile = 100.0 * double(Idx + 1) / double(N);
  return T;
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  return 0;
}

double Samples::median(const std::string &Key) const {
  auto It = Values.find(Key);
  return It == Values.end() ? 0 : perfbench::median(It->second);
}

const std::vector<double> &Samples::all(const std::string &Key) const {
  static const std::vector<double> None;
  auto It = Values.find(Key);
  return It == Values.end() ? None : It->second;
}

std::string Report::json(bool Correct, uint64_t Attempted,
                         uint64_t Failed) const {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", Metrics[I].Value);
    Out += (I ? ", " : "") + json::str(Metrics[I].Name) + ": {\"value\": " +
           Buf + ", \"unit\": " + json::str(Metrics[I].Unit) + "}";
  }
  return Out + "}}";
}

Compiled compile(const std::string &Source) {
  Compiled C;
  DiagnosticEngine Diags;
  Clock::time_point T0 = Clock::now();
  C.Prog = mf::parseProgram(Source, Diags);
  C.ParseS = since(T0);
  if (!C.Prog || !Diags.diagnostics().empty()) {
    C.Error = Diags.str().empty() ? "parse failed" : Diags.str();
    C.Prog.reset();
    return C;
  }
  T0 = Clock::now();
  C.Plans = xform::parallelize(*C.Prog, xform::PipelineMode::Full);
  C.ParallelizeS = since(T0);
  T0 = Clock::now();
  verify::PlanAuditor Auditor(*C.Prog);
  verify::AuditResult A = Auditor.audit(C.Plans);
  verify::recordAudit(C.Plans, A, verify::AuditMode::Warn);
  C.AuditS = since(T0);
  C.Certified = A.numWithVerdict(verify::AuditVerdict::Certified);
  C.Unknown = A.numWithVerdict(verify::AuditVerdict::Unknown);
  C.Rejected = A.numWithVerdict(verify::AuditVerdict::Rejected);
  return C;
}

interp::ExecOptions fixedOptions(const xform::PipelineResult &Plans,
                                 interp::WorkerPool &Pool) {
  interp::ExecOptions O;
  O.Plans = &Plans;
  O.Threads = Threads;
  O.Simulate = false;
  O.Engine = interp::ExecEngine::Vm;
  O.RuntimeChecks = true;
  O.OnFault = interp::FaultAction::Replay;
  O.SharedPool = &Pool;
  return O;
}

bool setReference(Case &C, std::string &Err) {
  Compiled P = compile(C.Source);
  if (!P.Prog) {
    Err = C.Name + ": " + P.Error;
    return false;
  }
  if (P.Rejected) {
    Err = C.Name + ": the auditor rejected a plan";
    return false;
  }
  interp::Interpreter I(*P.Prog);
  interp::Memory M = I.run({});
  const interp::FaultState &FS = I.faultState();
  if (FS.Faulted) {
    Err = C.Name + ": serial run faulted: " + FS.Fault.str();
    return false;
  }
  C.Reference = M.checksumExcluding(interp::deadPrivateIds(P.Plans));
  return true;
}

namespace {

/// A loop bound's value in \p M, when it is a literal or a scalar.
bool boundValue(const mf::Expr *E, const interp::Memory &M, int64_t &Out) {
  if (const auto *L = dyn_cast<mf::IntLit>(E)) {
    Out = L->value();
    return true;
  }
  if (const auto *V = dyn_cast<mf::VarRef>(E)) {
    if (V->symbol()->isArray() ||
        V->symbol()->elementKind() != mf::ScalarKind::Int)
      return false;
    Out = M.intScalar(V->symbol());
    return true;
  }
  return false;
}

/// Median time of one inspection pass over every runtime check of every
/// conditional (or recurrence-promoted) plan, on the final memory.
double timeInspections(const xform::PipelineResult &Plans,
                       const interp::Memory &M, interp::WorkerPool &Pool) {
  std::vector<std::tuple<const deptest::RuntimeCheck *, int64_t, int64_t>>
      Work;
  for (const auto &[Loop, Plan] : Plans.Plans) {
    int64_t Lo = 0, Up = 0;
    if (!boundValue(Loop->lower(), M, Lo) || !boundValue(Loop->upper(), M, Up))
      continue;
    for (const auto *Checks : {&Plan.RuntimeChecks, &Plan.FallbackChecks})
      for (const deptest::RuntimeCheck &C : *Checks)
        Work.emplace_back(&C, Lo, Up);
  }
  if (Work.empty())
    return 0;
  std::vector<double> Times;
  for (int Rep = 0; Rep < 5; ++Rep) {
    Clock::time_point T0 = Clock::now();
    for (const auto &[C, Lo, Up] : Work)
      interp::inspectRuntimeCheck(*C, M, Lo, Up, &Pool, Threads);
    Times.push_back(since(T0));
  }
  return median(Times);
}

} // namespace

RunRecord runCase(const Case &C, interp::WorkerPool &Pool, LayerTotals &Acc,
                  interp::FaultAction OnFault, bool Inspect) {
  RunRecord R;
  Compiled P = compile(C.Source);
  R.CompileS = P.ParseS + P.ParallelizeS + P.AuditS;
  if (!P.Prog)
    return R;
  Acc["mf.parse_s"] += P.ParseS;
  Acc["xform.parallelize_s"] += P.ParallelizeS;
  Acc["verify.audit_s"] += P.AuditS;
  Acc["analysis.property_s"] += P.Plans.PropertySeconds;
  for (const auto &[Phase, Secs] : P.Plans.PhaseSeconds)
    Acc["xform.phase." + Phase + "_s"] += Secs;
  for (const xform::LoopReport &L : P.Plans.Loops) {
    Acc["xform.loops_parallel"] += L.Parallel;
    Acc["xform.loops_conditional"] += L.RuntimeConditional;
    Acc["xform.loops_promoted"] += L.RecurrencePromoted;
  }
  Acc["verify.certified"] += P.Certified;
  Acc["verify.unknown"] += P.Unknown;
  Acc["verify.rejected"] += P.Rejected;

  interp::Interpreter I(*P.Prog);
  interp::ExecOptions Opts = fixedOptions(P.Plans, Pool);
  Opts.OnFault = OnFault;
  interp::ExecStats S;
  Clock::time_point T0 = Clock::now();
  interp::Memory M = I.run(Opts, &S);
  R.ExecS = since(T0);

  double Irregular = 0;
  for (const std::string &Label : C.IrregularLoops) {
    auto It = S.LoopSeconds.find(Label);
    if (It != S.LoopSeconds.end())
      Irregular += It->second;
  }
  Acc["interp.irregular_s"] += Irregular;
  Acc["interp.remainder_s"] += R.ExecS - Irregular;
  Acc["interp.chunk_sum_s"] += S.ChunkSecondsSum;
  Acc["interp.chunk_max_s"] =
      std::max(Acc["interp.chunk_max_s"], S.ChunkSecondsMax);
  Acc["interp.parallel_runs"] += S.ParallelLoopRuns;
  Acc["interp.chunks"] += S.ChunksRun;
  Acc["interp.dispatch.static"] += S.DispatchStatic;
  Acc["interp.dispatch.conditional"] += S.DispatchConditional;
  Acc["interp.dispatch.serial"] += S.DispatchSerial;
  Acc["interp.dispatch.replay"] += S.DispatchReplay;
  Acc["interp.inspections_run"] += S.InspectionsRun;
  Acc["interp.inspections_cached"] += S.InspectionsCached;
  Acc["txn.rollbacks"] += S.FaultRollbacks;
  Acc["txn.replays"] += S.FaultReplays;
  Acc["vm.loops_compiled"] += S.VmLoopsCompiled;
  Acc["vm.bailouts"] += S.VmBailouts;
  Acc["vm.parallel_runs"] += S.VmParallelLoopRuns;
  Acc["vm.chunks"] += S.VmChunksRun;

  if (!I.faultState().Faulted) {
    T0 = Clock::now();
    double Sum = M.checksumExcluding(interp::deadPrivateIds(P.Plans));
    Acc["interp.checksum_s"] += since(T0);
    R.Ok = Sum == C.Reference;
    if (C.Oracle) {
      const mf::Symbol *X = P.Prog->findSymbol(C.OracleArray);
      const std::vector<double> &Got = M.buffer(X).D;
      size_t Mismatches = 0;
      if (Got.size() != C.Oracle->size())
        Mismatches = std::max(Got.size(), C.Oracle->size());
      else
        for (size_t K = 0; K < Got.size(); ++K)
          Mismatches += Got[K] != (*C.Oracle)[K];
      Acc["native.mismatches"] += double(Mismatches);
      R.Ok = R.Ok && Mismatches == 0;
    }
  }
  if (Inspect)
    Acc["interp.inspect_s"] += timeInspections(P.Plans, M, Pool);
  R.Ok = R.Ok && P.Rejected == 0;
  return R;
}

void flush(const LayerTotals &Acc, Samples &L) {
  for (const auto &[Key, Value] : Acc)
    L.add(Key, Value);
  auto Sum = Acc.find("interp.chunk_sum_s");
  if (Sum != Acc.end() && Sum->second > 0)
    L.add("interp.chunk_imbalance", Acc.at("interp.chunk_max_s") *
                                        Acc.at("interp.chunks") / Sum->second);
}

} // namespace perfbench
