//===- perfbench/src/main.cpp - The repository's benchmark ----------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload paper|scatter|compile --seed N --seconds S --trace 0|1
///
/// One fixed configuration: Full pipeline, audit=warn, engine=vm, runtime
/// checks on, on_fault=replay, four real threads. --trace 0 measures the
/// end-to-end metrics; --trace 1 is the separate run that gives the
/// per-layer metrics (an untraced half, a traced half that reads the
/// program's own iaa::trace spans, then per-layer probes). The last line of
/// standard output is one JSON object; the lines before it are for people.
/// See perfbench/README.md for why each workload exists.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Programs.h"
#include "Service.h"

#include "benchprogs/Benchmarks.h"
#include "server/Daemon.h"
#include "server/Session.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sys/stat.h>
#include <unistd.h>

using namespace iaa;
using namespace perfbench;

namespace {

/// What one measured phase produced.
struct Phase {
  std::vector<double> OpS, CompileS, ExecS;
  uint64_t Attempted = 0, Failed = 0;
};

/// Called after every operation of a phase with the seconds the phase has
/// measured so far; the time the hook takes is not measured.
using OpHook = std::function<void(double Measured)>;

//===----------------------------------------------------------------------===//
// Probes shared by the traced runs
//===----------------------------------------------------------------------===//

/// Records every outcome of the daemon pass into \p L; returns how many
/// were not as expected.
unsigned recordOutcomes(const std::vector<Outcome> &Os, Samples &L) {
  unsigned Failed = 0;
  double Hits = 0, Flagged = 0, Faults = 0, Shed = 0, Errors = 0;
  for (const Outcome &O : Os) {
    Failed += !O.Ok;
    L.add("gen.late_s", O.Late);
    Flagged += O.HasCache;
    Hits += O.Hit;
    Faults += O.Fault;
    Shed += O.Shed;
    Errors += O.Error;
    if (!O.Healthy)
      continue;
    L.add("server.exec_s", O.ServerS);
    if (O.HasCache) {
      L.add(O.Hit ? "server.overhead_hit_s" : "server.overhead_miss_s",
            O.RoundTrip - O.ServerS);
      if (O.Hit)
        L.add("server.round_trip_hit_s", O.RoundTrip);
    }
  }
  L.add("server.hits", Hits);
  L.add("server.cache_flagged", Flagged);
  L.add("server.faults", Faults);
  L.add("server.shed", Shed);
  L.add("server.errors", Errors);
  return Failed;
}

std::string socketPath() {
  // Relative, so it stays inside the checkout and short enough for
  // sun_path wherever the checkout lives.
  ::mkdir(".bench_build", 0755);
  return ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
}

/// Times Session::handleLine, in process, on one frame per case after a
/// warming call, so server.transport_s can subtract it from the round trip.
void timeHandleLine(const std::vector<WireRequest> &Frames, Samples &L) {
  server::ArtifactCache Artifacts;
  server::Watchdog Deadlines;
  interp::WorkerPool Pool(Threads);
  server::SessionEnv Env;
  Env.Artifacts = &Artifacts;
  Env.Deadlines = &Deadlines;
  Env.SharedPool = &Pool;
  server::Session S(Env);
  for (const WireRequest &R : Frames) {
    S.handleLine(R.Frame);
    for (int Rep = 0; Rep < 3; ++Rep) {
      Clock::time_point T0 = Clock::now();
      S.handleLine(R.Frame);
      L.add("server.handle_hit_s", since(T0));
    }
  }
}

/// The server layer seen from a workload that does not otherwise use the
/// daemon: each case is sent twice (a miss, then a hit) over one connection
/// in an open loop with \p Interval seconds between requests.
bool daemonProbe(const std::vector<Case> &Cases, double Interval, Samples &L,
                 std::string &Err) {
  server::DaemonConfig Config;
  Config.SocketPath = socketPath();
  Config.PoolThreads = Threads;
  Config.ServiceThreads = 1;
  server::Daemon D(Config);
  server::Client Conn;
  if (!D.start(&Err) || !Conn.connect(Config.SocketPath, &Err))
    return false;
  std::vector<WireRequest> Frames, Requests;
  for (const Case &C : Cases)
    Frames.push_back({runFrame(C.Name, C.Source), &C});
  for (const WireRequest &R : Frames)
    Requests.insert(Requests.end(), {R, R});
  unsigned Failed = recordOutcomes(drive(Conn, Requests, Interval), L);
  Conn.close();
  D.stop();
  timeHandleLine(Frames, L);
  if (Failed)
    Err = "daemon probe: " + std::to_string(Failed) + " bad responses";
  return Failed == 0;
}

/// The native twin's serial and four-thread times, median of three. Every
/// workload runs it, as a gauge of the machine.
void nativeProbe(uint64_t Seed, Samples &L) {
  ScatterShape S = scatterShape(Seed);
  for (int Rep = 0; Rep < 3; ++Rep) {
    double Serial = 0, Parallel = 0;
    nativeScatter(S, 1, Serial);
    nativeScatter(S, Threads, Parallel);
    L.add("native.scatter_s", Serial);
    L.add("native.scatter_t4_s", Parallel);
  }
}

/// Inspection time, and the transaction snapshot's cost as the exec time
/// under replay minus under abort, alternating the two on the same cases.
bool transactionProbe(const std::vector<Case> &Cases, unsigned Pairs,
                      interp::WorkerPool &Pool, Samples &L) {
  bool Ok = true;
  LayerTotals Inspect;
  for (const Case &C : Cases)
    Ok &= runCase(C, Pool, Inspect, interp::FaultAction::Replay, true).Ok;
  L.add("interp.inspect_s", Inspect["interp.inspect_s"]);
  std::vector<double> Replay, Abort;
  for (unsigned K = 0; K < Pairs; ++K) {
    for (interp::FaultAction A :
         {interp::FaultAction::Replay, interp::FaultAction::Abort}) {
      double Exec = 0;
      for (const Case &C : Cases) {
        LayerTotals Acc;
        RunRecord R = runCase(C, Pool, Acc, A);
        Ok &= R.Ok;
        Exec += R.ExecS;
      }
      (A == interp::FaultAction::Replay ? Replay : Abort).push_back(Exec);
    }
  }
  L.add("txn.snapshot_delta_s", median(Replay) - median(Abort));
  return Ok;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// In-process operations over a list of cases.
class Workload {
public:
  /// With \p AllPerOp every case makes one operation, in a seeded order
  /// (paper); otherwise one case per operation, in turn.
  Workload(uint64_t Seed, std::function<std::vector<Case>()> Make,
           bool AllPerOp)
      : Seed(Seed), Make(std::move(Make)), AllPerOp(AllPerOp),
        Order(Seed ^ 0x0dde7ULL) {}

  /// Builds inputs and references.
  bool setup(std::string &Err) {
    std::vector<Case> Fresh = Make();
    for (Case &C : Fresh)
      if (!setReference(C, Err))
        return false;
    Cases = std::move(Fresh);
    return true;
  }

  /// Runs operations for \p Seconds, adding layer samples to \p L.
  Phase run(double Seconds, Samples &L, const OpHook &After) {
    Phase P;
    Clock::time_point Start = Clock::now();
    double Unmeasured = 0;
    for (uint64_t K = 0; K == 0 || since(Start) - Unmeasured < Seconds; ++K) {
      std::vector<const Case *> Op;
      if (AllPerOp) {
        for (const Case &C : Cases)
          Op.push_back(&C);
        for (size_t I = Op.size() - 1; I > 0; --I)
          std::swap(Op[I], Op[Order.range(0, int64_t(I))]);
      } else {
        Op.push_back(&Cases[K % Cases.size()]);
      }
      LayerTotals Acc;
      bool Ok = true;
      double Compile = 0, Exec = 0;
      Clock::time_point T0 = Clock::now();
      for (const Case *C : Op) {
        RunRecord R = runCase(*C, Pool, Acc);
        Ok &= R.Ok;
        Compile += R.CompileS;
        Exec += R.ExecS;
      }
      P.OpS.push_back(since(T0));
      P.CompileS.push_back(Compile);
      P.ExecS.push_back(Exec);
      ++P.Attempted;
      P.Failed += !Ok;
      flush(Acc, L);
      if (After) {
        Clock::time_point H0 = Clock::now();
        After(since(Start) - Unmeasured);
        Unmeasured += since(H0);
      }
    }
    return P;
  }

  /// Layer measurements the traced run adds after its two phases.
  bool probe(const Phase &Untraced, Samples &L, std::string &Err) {
    nativeProbe(Seed, L);
    // The ratio means something only where the twin is the workload's own
    // kernel; elsewhere it stays unset and reads 0.
    if (Cases[0].Oracle)
      L.add("vm.vs_native",
            L.median("interp.irregular_s") / L.median("native.scatter_s"));
    double OpExec = median(Untraced.ExecS);
    unsigned Pairs = unsigned(std::clamp(1.0 / std::max(OpExec, 1e-6), 3.0, 10.0));
    std::vector<Case> OneOp = AllPerOp ? Cases : std::vector<Case>{Cases[0]};
    if (!transactionProbe(OneOp, Pairs, Pool, L)) {
      Err = "transaction probe: a checksum differed";
      return false;
    }
    double PerCase = median(Untraced.OpS) / double(OneOp.size());
    return daemonProbe(OneOp, std::max(0.005, 1.5 * PerCase), L, Err);
  }

private:
  uint64_t Seed;
  std::function<std::vector<Case>()> Make;
  bool AllPerOp;
  Rng Order;
  interp::WorkerPool Pool{Threads};
  std::vector<Case> Cases;
};

std::vector<Case> paperCases() {
  std::vector<Case> Out;
  for (const benchprogs::BenchmarkProgram &B : benchprogs::allBenchmarks(1.0))
    Out.push_back({B.Name, B.Source, B.IrregularLoops, 0, "", nullptr});
  return Out;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "paper")
    return std::make_unique<Workload>(Seed, paperCases, true);
  if (Name == "scatter")
    return std::make_unique<Workload>(
        Seed,
        [Seed] {
          ScatterShape S = scatterShape(Seed);
          double Ignored = 0;
          Case C{"pscatter", scatterSource(S), {"scat"}, 0, "x", nullptr};
          C.Oracle = std::make_shared<const std::vector<double>>(
              nativeScatter(S, 1, Ignored));
          return std::vector<Case>{std::move(C)};
        },
        false);
  if (Name == "compile")
    return std::make_unique<Workload>(
        Seed,
        [Seed] {
          std::vector<Case> Out;
          for (unsigned I = 0; I < 4; ++I)
            Out.push_back(generatedProgram(Seed, I));
          return Out;
        },
        false);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Traced-run span accounting
//===----------------------------------------------------------------------===//

/// Adds each span's self time (its duration minus the part its child spans
/// on the same thread cover) and count, per name, into \p Acc; then clears
/// the trace. Returns the events the buffer dropped.
size_t drainSpans(LayerTotals &Acc) {
  std::vector<trace::Event> Events = trace::events();
  size_t Dropped = trace::droppedCount();
  trace::clear();
  std::map<uint32_t, std::vector<const trace::Event *>> ByThread;
  for (const trace::Event &E : Events)
    if (E.Ph == 'X')
      ByThread[E.Tid].push_back(&E);
  for (auto &[Tid, Spans] : ByThread) {
    std::sort(Spans.begin(), Spans.end(),
              [](const trace::Event *A, const trace::Event *B) {
                return A->TsMicros != B->TsMicros
                           ? A->TsMicros < B->TsMicros
                           : A->DurMicros > B->DurMicros;
              });
    struct Open {
      const trace::Event *E;
      double ChildMicros;
    };
    std::vector<Open> Stack;
    auto Close = [&] {
      const Open &O = Stack.back();
      double Self = std::max(0.0, O.E->DurMicros - O.ChildMicros);
      Acc["span." + O.E->Name + ".self_s"] += Self * 1e-6;
      Acc["span." + O.E->Name + ".count"] += 1;
      Stack.pop_back();
    };
    for (const trace::Event *E : Spans) {
      while (!Stack.empty() &&
             Stack.back().E->TsMicros + Stack.back().E->DurMicros <=
                 E->TsMicros)
        Close();
      if (!Stack.empty()) {
        const trace::Event *P = Stack.back().E;
        double End = std::min(E->TsMicros + E->DurMicros,
                              P->TsMicros + P->DurMicros);
        Stack.back().ChildMicros += End - E->TsMicros;
      }
      Stack.push_back({E, 0});
    }
    while (!Stack.empty())
      Close();
  }
  return Dropped;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// The per-layer metrics, in the order BENCHMARK.json lists them.
const LayerMetric LayerMetrics[] = {
    {"mf.parse_s", "s"},
    {"xform.parallelize_s", "s"},
    {"xform.phase.normalize_s", "s"},
    {"xform.phase.induction-subst_s", "s"},
    {"xform.phase.const-prop_s", "s"},
    {"xform.phase.forward-subst_s", "s"},
    {"xform.phase.dce_s", "s"},
    {"xform.phase.hcg-build_s", "s"},
    {"xform.phase.loop-analysis_s", "s"},
    {"xform.phase.property-analysis_s", "s"},
    {"xform.loops_parallel", "count"},
    {"xform.loops_conditional", "count"},
    {"xform.loops_promoted", "count"},
    {"analysis.property_s", "s"},
    {"span.property-query.self_s", "s"},
    {"span.property-query.count", "count"},
    {"span.bdfs.self_s", "s"},
    {"span.dep-test.self_s", "s"},
    {"span.privatization.self_s", "s"},
    {"span.analyze-loop.self_s", "s"},
    {"verify.audit_s", "s"},
    {"verify.certified", "count"},
    {"verify.unknown", "count"},
    {"verify.rejected", "count"},
    {"interp.irregular_s", "s"},
    {"interp.remainder_s", "s"},
    {"interp.checksum_s", "s"},
    {"interp.chunk_imbalance", "ratio"},
    {"interp.inspect_s", "s"},
    {"interp.parallel_runs", "count"},
    {"interp.chunks", "count"},
    {"interp.dispatch.static", "count"},
    {"interp.dispatch.conditional", "count"},
    {"interp.dispatch.serial", "count"},
    {"interp.dispatch.replay", "count"},
    {"interp.inspections_run", "count"},
    {"interp.inspections_cached", "count"},
    {"span.interp-run.self_s", "s"},
    {"span.parallel-loop.self_s", "s"},
    {"span.chunk.self_s", "s"},
    {"span.fork-join.self_s", "s"},
    {"span.inspect.self_s", "s"},
    {"txn.snapshot_delta_s", "s"},
    {"txn.rollbacks", "count"},
    {"txn.replays", "count"},
    {"vm.loops_compiled", "count"},
    {"vm.bailouts", "count"},
    {"vm.parallel_runs", "count"},
    {"vm.chunks", "count"},
    {"vm.vs_native", "ratio"},
    {"native.scatter_s", "s"},
    {"native.scatter_t4_s", "s"},
    {"native.mismatches", "count"},
    {"server.exec_s", "s"},
    {"server.overhead_hit_s", "s"},
    {"server.overhead_miss_s", "s"},
    {"server.transport_s", "s"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.faults", "count"},
    {"server.shed", "count"},
    {"server.errors", "count"},
    {"gen.late_p50_s", "s"},
    {"gen.late_max_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.dropped", "count"},
    {"fail_ratio", "ratio"},
};

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload paper|scatter|compile "
                       "--seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Name;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      Name = Val;
    else if (Flag == "--seed")
      Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      Traced = Val == "1";
    else
      return usage();
    if (End && *End)
      return usage();
  }
  if (argc % 2 == 0 || !(Seconds > 0))
    return usage();
  std::unique_ptr<Workload> W = makeWorkload(Name, Seed);
  if (!W)
    return usage();

  std::string Err;
  std::vector<double> SetupS;
  bool SetUpOk = true;
  auto SetUp = [&] {
    Clock::time_point T0 = Clock::now();
    SetUpOk = SetUpOk && W->setup(Err);
    SetupS.push_back(since(T0));
  };
  SetUp();
  if (!SetUpOk) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("workload %s, seed %llu, %u real threads, engine vm, audit "
              "warn, on_fault replay\n",
              Name.c_str(), (unsigned long long)Seed, Threads);

  Report R;
  Samples L;
  if (!Traced) {
    // Set-up is timed five times: before the run, after each quarter of it
    // and after it. The host's speed drifts over seconds, so set-up samples
    // spread over the run steady its median as they do the operations'.
    Phase P = W->run(Seconds, L, [&](double Measured) {
      if (SetupS.size() < 4 && Measured >= double(SetupS.size()) * Seconds / 4)
        SetUp();
    });
    SetUp();
    if (!SetUpOk) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      return 1;
    }
    Tail T = tailOf(P.OpS);
    R.add("setup_s", median(SetupS), "s");
    R.add("op_p50_s", median(P.OpS), "s");
    R.add("op_tail_s", T.Value, "s");
    R.add("compile_s", median(P.CompileS), "s");
    R.add("exec_s", median(P.ExecS), "s");
    R.add("peak_rss_mb", peakRssMb(), "MB");
    std::printf("ops %zu, op_tail_s is p%.1f with %zu of %zu samples beyond "
                "it, fail_ratio %.4f\n",
                P.OpS.size(), T.Percentile, T.Beyond, T.Samples,
                double(P.Failed) / double(P.Attempted));
    std::printf("%s\n", R.json(P.Failed == 0, P.Attempted, P.Failed).c_str());
    return 0;
  }

  // Traced run: an untraced half for the reference p50 and the layer
  // samples, a traced half for the spans, then the probes.
  Phase U = W->run(0.4 * Seconds, L, {});
  trace::clear();
  trace::setMaxEvents(size_t(1) << 22);
  size_t Dropped = 0;
  Samples SpanSamples;
  trace::enable(true);
  Phase T = W->run(0.4 * Seconds, SpanSamples, [&](double) {
    LayerTotals Op;
    Dropped += drainSpans(Op);
    flush(Op, L);
  });
  trace::enable(false);
  bool Ok = W->probe(U, L, Err);
  if (!Ok)
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());

  uint64_t Attempted = U.Attempted + T.Attempted, Failed = U.Failed + T.Failed;
  double Flagged = sum(L.all("server.cache_flagged"));
  std::map<std::string, double> Derived = {
      {"server.transport_s", L.median("server.round_trip_hit_s") -
                                 L.median("server.handle_hit_s")},
      {"server.cache_hit_ratio",
       Flagged > 0 ? sum(L.all("server.hits")) / Flagged : 0},
      {"server.faults", sum(L.all("server.faults"))},
      {"server.shed", sum(L.all("server.shed"))},
      {"server.errors", sum(L.all("server.errors"))},
      {"gen.late_p50_s", L.median("gen.late_s")},
      {"gen.late_max_s",
       L.all("gen.late_s").empty()
           ? 0
           : *std::max_element(L.all("gen.late_s").begin(),
                               L.all("gen.late_s").end())},
      {"trace.overhead_ratio", median(T.OpS) / median(U.OpS)},
      {"trace.dropped", double(Dropped)},
      {"fail_ratio", double(Failed) / double(std::max<uint64_t>(1, Attempted))},
  };
  for (const LayerMetric &M : LayerMetrics) {
    auto It = Derived.find(M.Name);
    R.add(M.Name, It != Derived.end() ? It->second : L.median(M.Name), M.Unit);
  }
  std::printf("untraced ops %zu, traced ops %zu, op_p50_s %.6f untraced vs "
              "%.6f traced\n",
              U.OpS.size(), T.OpS.size(), median(U.OpS), median(T.OpS));
  std::printf("%s\n",
              R.json(Ok && Failed == 0, Attempted, Failed + !Ok).c_str());
  return 0;
}
