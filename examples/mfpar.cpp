//===- examples/mfpar.cpp - A command-line MF parallelizer ----------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
//
// mfpar: a small driver exposing the whole toolchain on MF source files.
//
//   mfpar FILE.mf [--mode=full|noiaa|apo] [--run[=THREADS]] [--dump]
//         [--engine=vm|both] [--audit=off|warn|strict] [--race-check]
//         [--runtime-check[=on|off]] [--on-fault=abort|report|replay]
//         [--stats] [--trace=out.json] [--remarks=out.jsonl]
//         [--profile[=out.jsonl]]
//
//   --mode     pipeline configuration (default full)
//   --run      execute the program serially, then with its parallel loops
//              dispatched on N OS threads (1 to 256, default 4), each
//              loop's iterations handed out in guided chunks
//   --engine   how dispatched loops run (default vm): vm compiles each
//              certified loop body to register bytecode with fused
//              gather/scatter superinstructions and runs its chunks on the
//              VM at every thread count (a loop the compiler cannot lower
//              runs serially); both also runs the plan-free serial tree walk
//              as a reference and reports a fault if the final memory
//              images or fault verdicts diverge
//   --dump     print the normalized program after the transformation passes
//   --annotate print the program with !$iaa parallel do directives
//   --audit    independently re-certify every parallel-marked loop before
//              running it: warn reports the verdicts, strict additionally
//              demotes every non-certified loop to serial (default off)
//   --race-check run the program serially under the shadow-memory race
//              checker and report every cross-iteration conflict the plans
//              fail to discharge (exit code 3 when one is found)
//   --runtime-check inspector/executor mode for --run: loops the pipeline
//              emitted as parallel *conditional on runtime checks* have
//              their index arrays inspected before first execution and run
//              parallel when every check passes (default off; plain
//              --runtime-check means on)
//   --on-fault what a parallel-worker fault does to the loop (default
//              replay): replay rolls the loop's shared write set back to
//              the pre-dispatch snapshot and re-executes it serially;
//              report rolls back and stops with the fault; abort skips the
//              snapshot and aborts the process (legacy behavior)
//   --stats    print the statistic counters and per-phase timings
//   --trace    write a Chrome trace-event JSON file (chrome://tracing)
//   --remarks  write optimization remarks as JSONL, one record per loop
//   --profile  profile each labeled loop during the run (implies --run):
//              prints a per-loop health report (dispatch verdict and tiers,
//              imbalance, analysis-cost share) and writes the full profile
//              — one record per invocation with its dispatch decision,
//              bounds and per-worker timeline — as JSONL (default
//              profile.jsonl); the individual chunks are the --trace
//              file's "chunk" spans
//
// With no file argument it analyzes the paper's Fig. 1(a) example.
//
// Exit codes: 0 success; 1 cannot open or parse the input; 2 bad flag or
// flag value; 3 the race checker found conflicts; 4 the program faulted at
// runtime (out-of-bounds subscript, division by zero, bad extent, ...).
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "mf/Parser.h"
#include "server/Watchdog.h"
#include "prof/Profiler.h"
#include "support/Remarks.h"
#include "support/Timer.h"
#include "support/Statistic.h"
#include "support/Trace.h"
#include "verify/PlanAudit.h"
#include "xform/Parallelizer.h"
#include "xform/Postpass.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace iaa;

static int usage() {
  std::fprintf(stderr,
               "usage: mfpar [FILE.mf] [--mode=full|noiaa|apo] "
               "[--run[=THREADS]] [--engine=vm|both] "
               "[--audit=off|warn|strict] [--race-check] "
               "[--runtime-check[=on|off]] [--on-fault=abort|report|replay] "
               "[--deadline-ms=N] [--mem-limit-mb=N] "
               "[--dump] [--annotate] [--stats] "
               "[--trace=FILE] [--remarks=FILE] [--profile[=FILE]]\n");
  return 2;
}

/// Rejecting an unrecognized flag value silently (exit 2 with nothing but
/// the usage line) cost real debugging time: --engine=bth would run the
/// default engine's numbers. Every value error now names the flag, the
/// offending value, and what would have been accepted.
static int badValue(const char *Flag, const std::string &Value,
                    const char *Expected) {
  std::fprintf(stderr, "mfpar: invalid value '%s' for %s (expected %s)\n",
               Value.c_str(), Flag, Expected);
  return usage();
}

/// Strict base-10 parse of an entire string: "4x" and "" are errors, not 4
/// and 0 the way atoi/atoll would read them.
static bool parseInt(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

int main(int argc, char **argv) {
  std::string Path;
  xform::PipelineMode Mode = xform::PipelineMode::Full;
  bool Run = false;
  unsigned Threads = 4;
  interp::ExecEngine Engine = interp::ExecEngine::Vm;
  verify::AuditMode Audit = verify::AuditMode::Off;
  bool RaceCheck = false;
  bool RuntimeChecks = false;
  interp::FaultAction OnFault = interp::FaultAction::Replay;
  int64_t DeadlineMs = 0;  // 0 = untimed
  int64_t MemLimitMb = 0;  // 0 = unlimited
  bool Dump = false;
  bool Annotate = false;
  bool Stats = false;
  std::string TracePath;
  std::string RemarksPath;
  bool Profile = false;
  std::string ProfilePath = "profile.jsonl";

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--mode=", 0) == 0) {
      std::string M = Arg.substr(7);
      if (M == "full")
        Mode = xform::PipelineMode::Full;
      else if (M == "noiaa")
        Mode = xform::PipelineMode::NoIAA;
      else if (M == "apo")
        Mode = xform::PipelineMode::Apo;
      else
        return badValue("--mode", M, "full, noiaa, or apo");
    } else if (Arg == "--run") {
      Run = true;
    } else if (Arg.rfind("--run=", 0) == 0) {
      Run = true;
      int64_t T = 0;
      // N is a count of OS threads, so it gets the daemon's cap.
      if (!parseInt(Arg.substr(6), T) || T <= 0 || T > 256)
        return badValue("--run", Arg.substr(6),
                        "a thread count between 1 and 256");
      Threads = static_cast<unsigned>(T);
    } else if (Arg.rfind("--engine=", 0) == 0) {
      if (!interp::parseEngine(Arg.substr(9), Engine))
        return badValue("--engine", Arg.substr(9), "vm or both");
    } else if (Arg.rfind("--audit=", 0) == 0) {
      if (!verify::parseAuditMode(Arg.substr(8), Audit))
        return badValue("--audit", Arg.substr(8), "off, warn, or strict");
    } else if (Arg == "--race-check") {
      RaceCheck = true;
    } else if (Arg == "--runtime-check") {
      RuntimeChecks = true;
    } else if (Arg.rfind("--runtime-check=", 0) == 0) {
      std::string V = Arg.substr(16);
      if (V == "on")
        RuntimeChecks = true;
      else if (V == "off")
        RuntimeChecks = false;
      else
        return badValue("--runtime-check", V, "on or off");
    } else if (Arg.rfind("--on-fault=", 0) == 0) {
      if (!interp::parseFaultAction(Arg.substr(11), OnFault))
        return badValue("--on-fault", Arg.substr(11),
                        "abort, report, or replay");
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseInt(Arg.substr(14), DeadlineMs) || DeadlineMs <= 0 ||
          DeadlineMs > 86400000)
        return badValue("--deadline-ms", Arg.substr(14),
                        "a positive number of milliseconds (at most a day)");
    } else if (Arg.rfind("--mem-limit-mb=", 0) == 0) {
      if (!parseInt(Arg.substr(15), MemLimitMb) || MemLimitMb <= 0 ||
          MemLimitMb > (int64_t(1) << 30))
        return badValue("--mem-limit-mb", Arg.substr(15),
                        "a positive number of megabytes");
    } else if (Arg == "--dump") {
      Dump = true;
    } else if (Arg == "--annotate") {
      Annotate = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty())
        return usage();
    } else if (Arg.rfind("--remarks=", 0) == 0) {
      RemarksPath = Arg.substr(10);
      if (RemarksPath.empty())
        return usage();
    } else if (Arg == "--profile") {
      Profile = true;
    } else if (Arg.rfind("--profile=", 0) == 0) {
      Profile = true;
      ProfilePath = Arg.substr(10);
      if (ProfilePath.empty())
        return badValue("--profile", ProfilePath,
                        "a non-empty output path");
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "mfpar: unknown option '%s'\n", Arg.c_str());
      return usage();
    } else {
      Path = Arg;
    }
  }

  if (Profile)
    Run = true; // A profile without a run would be empty.

  std::string Source;
  if (Path.empty()) {
    std::printf("no input file; analyzing the paper's Fig. 1(a) example\n\n");
    Source = benchprogs::fig1aSource();
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "mfpar: cannot open %s\n", Path.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  if (!TracePath.empty())
    trace::enable(true);

  DiagnosticEngine Diags;
  std::unique_ptr<mf::Program> P = mf::parseProgram(Source, Diags);
  if (!P) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  prof::Session ProfSession;
  xform::PipelineResult R = xform::parallelize(*P, Mode);
  if (Profile)
    ProfSession.notePhase("pipeline", R.TotalSeconds);
  std::printf("pipeline: %s\n", xform::pipelineModeName(Mode));
  std::printf("passes: %u constants propagated, %u forward substitutions, "
              "%u dead statements removed, %u inductions substituted\n",
              R.ConstantsPropagated, R.ForwardSubstitutions, R.DeadRemoved,
              R.InductionsSubstituted);
  std::printf("property analysis: %.2f ms of %.2f ms pipeline time\n\n",
              R.PropertySeconds * 1e3, R.TotalSeconds * 1e3);
  std::printf("%s", R.str().c_str());

  if (Audit != verify::AuditMode::Off) {
    Timer AuditTimer;
    verify::PlanAuditor Auditor(*P);
    verify::AuditResult A = Auditor.audit(R);
    unsigned Demoted = verify::recordAudit(R, A, Audit);
    if (Profile)
      ProfSession.notePhase("audit", AuditTimer.seconds());
    std::printf("\n--- plan audit (%s) ---\n%s",
                verify::auditModeName(Audit), A.str().c_str());
    if (Demoted)
      std::printf("%u non-certified loop%s demoted to serial\n", Demoted,
                  Demoted == 1 ? "" : "s");
  }

  // Reports a run that ended on an unrecovered runtime fault. Exit code 4,
  // except resource-limit faults, which get their own codes so scripts can
  // tell "the program is wrong" from "the budget was wrong": 5 for a blown
  // --deadline-ms, 6 for a blown --mem-limit-mb. Under --on-fault=abort the
  // process aborts instead (legacy behavior — the interpreter itself always
  // unwinds cleanly, the abort is ours).
  auto ReportFault = [&OnFault](const char *What,
                                const interp::FaultState &FS) {
    std::fprintf(stderr, "mfpar: %s faulted: %s\n", What,
                 FS.Fault.str().c_str());
    if (OnFault == interp::FaultAction::Abort)
      std::abort();
    switch (FS.Fault.Kind) {
    case interp::FaultKind::DeadlineExceeded:
      return 5;
    case interp::FaultKind::ResourceExhausted:
      return 6;
    default:
      return 4;
    }
  };

  // One wall-clock deadline covers the whole execution phase (race check,
  // serial and parallel runs), the same watchdog the daemon arms per
  // request. The token is shared so a timer that fires during one run also
  // cancels the next.
  auto Cancel = std::make_shared<interp::CancelToken>();
  std::optional<server::Watchdog> Watch;
  std::optional<server::Watchdog::Scope> Deadline;
  if (RaceCheck || Run) {
    Watch.emplace();
    Deadline.emplace(*Watch, static_cast<uint64_t>(DeadlineMs), Cancel);
  }
  size_t MemLimitBytes = static_cast<size_t>(MemLimitMb) << 20;

  if (RaceCheck) {
    interp::Interpreter I(*P);
    interp::ExecOptions Opts;
    Opts.Plans = &R;
    Opts.RaceCheck = true;
    Opts.OnFault = OnFault;
    Opts.Cancel = Cancel.get();
    Opts.MemLimitBytes = MemLimitBytes;
    interp::ExecStats CheckStats;
    I.run(Opts, &CheckStats);
    if (I.faultState().Faulted)
      return ReportFault("race-check run", I.faultState());
    std::printf("\n--- shadow-memory race check ---\n");
    if (CheckStats.RacesFound == 0) {
      std::printf("no cross-iteration conflicts observed\n");
    } else {
      for (const interp::RaceRecord &Rec : CheckStats.Races)
        std::printf("%s\n", Rec.str().c_str());
      if (CheckStats.RacesFound > CheckStats.Races.size())
        std::printf("... and %zu more\n",
                    CheckStats.RacesFound - CheckStats.Races.size());
      std::printf("%u conflict%s found\n", CheckStats.RacesFound,
                  CheckStats.RacesFound == 1 ? "" : "s");
      return 3;
    }
  }

  if (Dump) {
    std::printf("\n--- normalized program ---\n%s", P->str().c_str());
  }
  if (Annotate) {
    std::printf("\n--- annotated program (postpass) ---\n%s",
                xform::emitAnnotatedSource(*P, R).c_str());
  }

  if (Run) {
    interp::Interpreter I(*P);
    interp::ExecOptions Seq;
    Seq.OnFault = OnFault;
    Seq.Cancel = Cancel.get();
    Seq.MemLimitBytes = MemLimitBytes;
    interp::ExecStats SeqStats;
    // The serial image is needed only for its checksum: take it and free
    // it, so the parallel run does not stack on top of it. Both lines print
    // the digest the match compares, which skips privatized arrays that are
    // dead after their loop (their contents are unspecified).
    std::set<unsigned> Dead = interp::deadPrivateIds(R);
    double SerialLive = 0;
    {
      interp::Memory Serial = I.run(Seq, &SeqStats);
      if (I.faultState().Faulted)
        return ReportFault("serial run", I.faultState());
      SerialLive = Serial.checksumExcluding(Dead);
      std::printf("\nserial run: %.3fs, checksum %.6f\n",
                  SeqStats.TotalSeconds, SerialLive);
    }
    interp::ExecOptions Par;
    Par.Plans = &R;
    Par.Threads = Threads;
    Par.Engine = Engine;
    Par.RuntimeChecks = RuntimeChecks;
    Par.OnFault = OnFault;
    Par.Cancel = Cancel.get();
    Par.MemLimitBytes = MemLimitBytes;
    if (Profile)
      Par.Prof = &ProfSession;
    interp::ExecStats ParStats;
    interp::Memory Parallel = I.run(Par, &ParStats);
    const interp::FaultState &ParFS = I.faultState();
    if (!ParStats.FaultRemarks.empty()) {
      std::printf("\n--- fault containment ---\n%s",
                  remarksText(ParStats.FaultRemarks).c_str());
      std::printf("%s\n", ParFS.str().c_str());
      R.Remarks.insert(R.Remarks.end(), ParStats.FaultRemarks.begin(),
                       ParStats.FaultRemarks.end());
    }
    if (ParFS.Faulted)
      return ReportFault("parallel run", ParFS);
    double ParallelLive = Parallel.checksumExcluding(Dead);
    std::printf("parallel run (%u thread%s): %.3fs "
                "(speedup %.2f over the serial tree walk, engine and "
                "parallel gain combined), checksum %.6f (%s)\n",
                Threads, Threads == 1 ? "" : "s", ParStats.TotalSeconds,
                SeqStats.TotalSeconds / ParStats.TotalSeconds, ParallelLive,
                SerialLive == ParallelLive ? "matches serial" : "DIVERGES");
    std::printf("engine (%s): %u loop%s compiled to bytecode, %u bailout%s "
                "run serially, %u vm dispatch%s, %u vm chunk%s\n",
                interp::engineName(Engine), ParStats.VmLoopsCompiled,
                ParStats.VmLoopsCompiled == 1 ? "" : "s",
                ParStats.VmBailouts, ParStats.VmBailouts == 1 ? "" : "s",
                ParStats.VmParallelLoopRuns,
                ParStats.VmParallelLoopRuns == 1 ? "" : "es",
                ParStats.VmChunksRun, ParStats.VmChunksRun == 1 ? "" : "s");
    if (Engine == interp::ExecEngine::Both)
      std::printf("engine (both): %u differential comparison%s, "
                  "%u mismatch%s\n",
                  ParStats.BothComparisons,
                  ParStats.BothComparisons == 1 ? "" : "s",
                  ParStats.BothMismatches,
                  ParStats.BothMismatches == 1 ? "" : "es");
    if (RuntimeChecks) {
      std::printf("runtime checks: %u inspection%s run, %u cached verdict%s, "
                  "%u serial fallback%s\n",
                  ParStats.InspectionsRun,
                  ParStats.InspectionsRun == 1 ? "" : "s",
                  ParStats.InspectionsCached,
                  ParStats.InspectionsCached == 1 ? "" : "s",
                  ParStats.RuntimeCheckFails,
                  ParStats.RuntimeCheckFails == 1 ? "" : "s");
      for (const interp::ExecStats::RuntimeDecision &D :
           ParStats.RuntimeDecisions)
        std::printf("  %s\n", D.str().c_str());
    }
  }

  if (Profile) {
    std::printf("\n%s", ProfSession.healthText(&R).c_str());
    if (!ProfSession.writeJsonl(ProfilePath, &R)) {
      std::fprintf(stderr, "mfpar: cannot write %s\n", ProfilePath.c_str());
      return 1;
    }
    std::printf("profile written to %s (%zu loop records)\n",
                ProfilePath.c_str(), ProfSession.invocations().size());
  }

  if (!RemarksPath.empty()) {
    std::printf("\n--- optimization remarks ---\n%s",
                remarksText(R.Remarks).c_str());
    std::ofstream Out(RemarksPath);
    if (!Out) {
      std::fprintf(stderr, "mfpar: cannot write %s\n", RemarksPath.c_str());
      return 1;
    }
    Out << remarksJsonl(R.Remarks);
    std::printf("remarks written to %s (%zu records)\n", RemarksPath.c_str(),
                R.Remarks.size());
  }

  if (Stats) {
    std::printf("\n--- phase timings ---\n");
    for (const auto &[Phase, Secs] : R.PhaseSeconds)
      std::printf("%10.3f ms  %s\n", Secs * 1e3, Phase.c_str());
    std::printf("\n--- statistics ---\n%s", stat::table(true).c_str());
  }

  if (!TracePath.empty()) {
    if (!trace::writeJson(TracePath)) {
      std::fprintf(stderr, "mfpar: cannot write %s\n", TracePath.c_str());
      return 1;
    }
    std::printf("\ntrace written to %s (%zu events); load it in "
                "chrome://tracing or https://ui.perfetto.dev\n",
                TracePath.c_str(), trace::eventCount());
  }
  return 0;
}
