//===- prof/Profiler.cpp - Per-loop dispatch profiler ---------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "prof/Profiler.h"

#include "support/Json.h"
#include "support/Statistic.h"
#include "support/Trace.h"
#include "xform/Parallelizer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace iaa;
using namespace iaa::prof;

#define IAA_STAT_GROUP "prof"
IAA_STAT(prof_loops_recorded, "Loop invocations fully recorded");
IAA_STAT(prof_loops_light, "Loop invocations past the recording cap");

//===----------------------------------------------------------------------===//
// Names and JSON helpers
//===----------------------------------------------------------------------===//

const char *iaa::prof::dispatchKindName(DispatchKind K) {
  switch (K) {
  case DispatchKind::Serial:
    return "serial";
  case DispatchKind::SerialSmall:
    return "serial-small";
  case DispatchKind::Parallel:
    return "parallel";
  case DispatchKind::CondParallel:
    return "conditional-parallel";
  case DispatchKind::CondSerial:
    return "conditional-serial";
  case DispatchKind::Replay:
    return "replay";
  }
  return "serial";
}

namespace {

/// The engine that ran the loop body: a dispatched invocation (a replay
/// included) ran its chunks as register bytecode, every other one ran on
/// the serial tree walk.
const char *engineName(DispatchKind K) {
  switch (K) {
  case DispatchKind::Parallel:
  case DispatchKind::CondParallel:
  case DispatchKind::Replay:
    return "vm";
  case DispatchKind::Serial:
  case DispatchKind::SerialSmall:
  case DispatchKind::CondSerial:
    return "interp";
  }
  return "interp";
}

std::string jsonWorker(const WorkerTimeline &W) {
  return "{\"worker\": " + std::to_string(W.Worker) +
         ", \"chunks\": " + std::to_string(W.Chunks) +
         ", \"dispatch_us\": " + json::num(W.DispatchUs) +
         ", \"busy_us\": " + json::num(W.BusyUs) +
         ", \"stall_us\": " + json::num(W.StallUs) +
         ", \"first_iter\": " + std::to_string(W.FirstIter) +
         ", \"last_iter\": " + std::to_string(W.LastIter) +
         ", \"events_dropped\": " + std::to_string(W.EventsDropped) + "}";
}

std::string jsonChunk(unsigned Worker, const ChunkEvent &E) {
  return "{\"worker\": " + std::to_string(Worker) +
         ", \"chunk\": " + std::to_string(E.Chunk) +
         ", \"first\": " + std::to_string(E.First) +
         ", \"last\": " + std::to_string(E.Last) +
         ", \"start_us\": " + json::num(E.StartUs) +
         ", \"dur_us\": " + json::num(E.DurUs) + "}";
}

} // namespace

std::string LoopProfile::jsonLine() const {
  std::string Out = "{\"type\": \"loop\", \"label\": " + json::str(Label) +
                    ", \"invocation\": " + std::to_string(Invocation) +
                    ", \"dispatch\": " +
                    json::str(dispatchKindName(Kind)) +
                    ", \"detail\": " + json::str(Detail) +
                    ", \"engine\": " + json::str(engineName(Kind)) +
                    ", \"lo\": " + std::to_string(Lo) +
                    ", \"up\": " + std::to_string(Up) +
                    ", \"niter\": " + std::to_string(NIter) +
                    ", \"threads\": " + std::to_string(Threads) +
                    ", \"schedule\": " + json::str(Schedule) +
                    ", \"wall_us\": " + json::num(WallUs) +
                    ", \"inspect_us\": " + json::num(InspectUs) +
                    ", \"rollback_us\": " + json::num(RollbackUs) +
                    ", \"replay_us\": " + json::num(ReplayUs);
  if (Perf.Valid)
    Out += ", \"perf\": {\"cycles\": " + std::to_string(Perf.Cycles) +
           ", \"instructions\": " + std::to_string(Perf.Instructions) +
           ", \"llc_misses\": " + std::to_string(Perf.LlcMisses) + "}";
  else
    Out += ", \"perf\": null";
  Out += ", \"workers\": [";
  for (size_t I = 0; I < Workers.size(); ++I)
    Out += (I ? ", " : "") + jsonWorker(Workers[I]);
  Out += "], \"chunks\": [";
  bool First = true;
  for (const WorkerTimeline &W : Workers)
    for (const ChunkEvent &E : W.Events) {
      Out += (First ? "" : ", ") + jsonChunk(W.Worker, E);
      First = false;
    }
  Out += "]}";
  return Out;
}

std::string LoopHealth::jsonLine() const {
  return "{\"type\": \"health\", \"label\": " + json::str(Label) +
         ", \"verdict\": " + json::str(Verdict) +
         ", \"why\": " + json::str(Why) +
         ", \"invocations\": " + std::to_string(Invocations) +
         ", \"recorded\": " + std::to_string(Recorded) +
         ", \"threads_max\": " + std::to_string(ThreadsMax) +
         ", \"imbalance_pct\": " + json::num(ImbalancePct) +
         ", \"analysis_pct\": " + json::num(AnalysisPct) +
         ", \"wall_us\": " + json::num(WallUs) +
         ", \"dispatch\": {\"static\": " + std::to_string(DispatchStatic) +
         ", \"conditional\": " + std::to_string(DispatchConditional) +
         ", \"serial\": " + std::to_string(DispatchSerial) +
         ", \"replay\": " + std::to_string(DispatchReplay) + "}}";
}

std::string LoopHealth::str() const {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "  %-10s %-20s imbalance %5.1f%%  analysis %4.1f%%  "
                "wall %.0fus  x%u\n",
                Label.c_str(), Verdict.c_str(), ImbalancePct, AnalysisPct,
                WallUs, Invocations);
  std::string Out = Buf;
  std::snprintf(Buf, sizeof(Buf),
                "             dispatch: static %u / conditional %u / "
                "serial %u / replay %u\n",
                DispatchStatic, DispatchConditional, DispatchSerial,
                DispatchReplay);
  Out += Buf;
  if (!Why.empty())
    Out += "             why: " + Why + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(SessionOptions O) : Opts(O) {}

Session::~Session() = default;

bool Session::countersAvailable() const { return Perf && Perf->available(); }

LoopRecorder *Session::beginLoop(const std::string &Label, unsigned MaxWorkers,
                                 int64_t Lo, int64_t Up, int64_t NIter) {
  if (Opts.HardwareCounters && !PerfTried) {
    PerfTried = true;
    Perf = std::make_unique<PerfCounters>();
  }
  LabelAgg &Agg = Aggregates[Label];
  auto *R = new LoopRecorder();
  R->Label = Label;
  R->Invocation = Agg.Invocations++;
  R->Light = R->Invocation >= Opts.MaxInvocationsPerLoop;
  R->MaxChunkEvents = Opts.MaxChunkEventsPerWorker;
  R->Lo = Lo;
  R->Up = Up;
  R->NIter = NIter;
  if (!R->Light) {
    R->Wrk.resize(MaxWorkers == 0 ? 1 : MaxWorkers);
    if (Perf && Perf->available())
      R->PerfBegin = Perf->read();
  }
  R->Clock.reset();
  return R;
}

void Session::endLoop(LoopRecorder *R) {
  std::unique_ptr<LoopRecorder> Owner(R);
  double WallUs = R->nowUs();
  LabelAgg &Agg = Aggregates[R->Label];
  Agg.WallUs += WallUs;
  Agg.AnalysisUs += R->InspectUs + R->RollbackUs + R->ReplayUs;
  if (R->Threads > Agg.ThreadsMax)
    Agg.ThreadsMax = R->Threads;
  switch (R->Kind) {
  case DispatchKind::Parallel:
    Agg.SawParallel = true;
    ++Agg.TierStatic;
    break;
  case DispatchKind::CondParallel:
    Agg.SawCondPass = true;
    ++Agg.TierConditional;
    break;
  case DispatchKind::CondSerial:
    Agg.SawCondFail = true;
    ++Agg.TierConditional;
    break;
  case DispatchKind::SerialSmall:
    Agg.SawSerialSmall = true;
    ++Agg.TierSerial;
    break;
  case DispatchKind::Serial:
    ++Agg.TierSerial;
    break;
  case DispatchKind::Replay:
    // The invocation did dispatch in parallel before the fault; it counts
    // in the replay tier only (one tier per invocation), but the label
    // still reads as parallelized in the verdict.
    Agg.SawParallel = true;
    ++Agg.TierReplay;
    break;
  }
  if (!R->Detail.empty())
    Agg.Detail = R->Detail;
  if (R->Light) {
    ++prof_loops_light;
    return;
  }
  ++prof_loops_recorded;
  ++Agg.Recorded;

  LoopProfile P;
  P.Label = R->Label;
  P.Invocation = R->Invocation;
  P.Kind = R->Kind;
  P.Detail = R->Detail;
  P.Lo = R->Lo;
  P.Up = R->Up;
  P.NIter = R->NIter;
  P.Threads = R->Threads;
  P.Schedule = R->Schedule;
  P.WallUs = WallUs;
  P.InspectUs = R->InspectUs;
  P.RollbackUs = R->RollbackUs;
  P.ReplayUs = R->ReplayUs;
  if (Perf && Perf->available() && R->PerfBegin.Valid)
    P.Perf = Perf->read() - R->PerfBegin;

  // Worker timelines. Serial-dispatch invocations never saw a chunk grant;
  // synthesize a single worker-0 lane (busy = wall) so every loop record
  // has a timeline.
  bool AnyChunks = false;
  for (const auto &W : R->Wrk)
    if (W.Chunks > 0)
      AnyChunks = true;
  if (!AnyChunks) {
    WorkerTimeline T;
    T.Worker = 0;
    T.Chunks = 1;
    T.BusyUs = WallUs;
    T.FirstIter = R->Lo;
    T.LastIter = R->NIter > 0 ? R->Up : R->Lo - 1;
    P.Workers.push_back(std::move(T));
  } else {
    for (unsigned WId = 0; WId < R->Wrk.size(); ++WId) {
      const auto &W = R->Wrk[WId];
      if (W.Chunks == 0)
        continue;
      WorkerTimeline T;
      T.Worker = WId;
      T.Chunks = W.Chunks;
      T.BusyUs = W.BusyUs;
      // Clamp into [0, wall]: a worker whose first poll raced the
      // dispenser's cancellation (fault drain) can report a first-chunk
      // start at — or, with clock skew, fractionally past — the loop's
      // recorded wall time, which would otherwise push the derived stall
      // interval negative.
      T.DispatchUs =
          W.FirstStartUs < 0 ? 0 : std::min(W.FirstStartUs, WallUs);
      T.StallUs = std::max(0.0, WallUs - T.DispatchUs - T.BusyUs);
      T.FirstIter = W.FirstIter == INT64_MAX ? 0 : W.FirstIter;
      T.LastIter = W.LastIter == INT64_MIN ? 0 : W.LastIter;
      T.Events = W.Events;
      T.EventsDropped = W.EventsDropped;
      P.Workers.push_back(std::move(T));
    }
  }

  // Per-invocation imbalance feeds the label aggregate: sum of max worker
  // busy vs. sum of mean worker busy across invocations.
  double MaxBusy = 0, SumBusy = 0;
  for (const WorkerTimeline &T : P.Workers) {
    MaxBusy = std::max(MaxBusy, T.BusyUs);
    SumBusy += T.BusyUs;
  }
  if (!P.Workers.empty()) {
    Agg.MaxBusySumUs += MaxBusy;
    Agg.AvgBusySumUs += SumBusy / static_cast<double>(P.Workers.size());
  }

  // Counter samples for the Chrome tracer: one track per loop label.
  if (trace::enabled()) {
    trace::counter("loop-wall-us " + P.Label, P.WallUs);
    if (P.Perf.Valid)
      trace::counter("loop-llc-misses " + P.Label,
                     static_cast<double>(P.Perf.LlcMisses));
  }

  Profiles.push_back(std::move(P));
}

void Session::notePhase(const std::string &Name, double Seconds) {
  Phases.emplace_back(Name, Seconds);
}

std::vector<LoopHealth>
Session::health(const xform::PipelineResult *Plans) const {
  std::vector<LoopHealth> Out;
  for (const auto &[Label, Agg] : Aggregates) {
    LoopHealth H;
    H.Label = Label;
    if (Agg.SawParallel)
      H.Verdict = "parallelized";
    else if (Agg.SawCondPass || Agg.SawCondFail)
      H.Verdict = "conditional";
    else
      H.Verdict = "serial";
    if (Agg.SawCondPass && Agg.SawCondFail)
      H.Why = "inspection passed on some invocations, failed on others";
    else if (Agg.SawCondPass)
      H.Why = "runtime inspection passed";
    else if (Agg.SawCondFail)
      H.Why = "conditional loop ran serially" +
              (Agg.Detail.empty() ? "" : ": " + Agg.Detail);
    else if (Agg.SawSerialSmall)
      H.Why = "below the parallel profitability threshold";
    else if (!Agg.Detail.empty())
      H.Why = Agg.Detail;
    if (H.Why.empty() && !Agg.SawParallel && Plans) {
      if (const xform::LoopReport *R = Plans->reportFor(Label))
        if (!R->Parallel && !R->WhyNot.empty())
          H.Why = R->WhyNot;
    }
    H.Invocations = Agg.Invocations;
    H.Recorded = Agg.Recorded;
    H.ThreadsMax = Agg.ThreadsMax;
    // Clamped at zero: when a fault cancels the dispenser before some
    // workers' first poll, the surviving busy intervals can be degenerate
    // (zero-length) and floating-point noise would otherwise let the ratio
    // dip fractionally below 1 — a negative imbalance is meaningless.
    H.ImbalancePct =
        Agg.AvgBusySumUs > 0
            ? std::max(0.0,
                       (Agg.MaxBusySumUs / Agg.AvgBusySumUs - 1.0) * 100.0)
            : 0.0;
    H.AnalysisPct = Agg.WallUs > 0 ? Agg.AnalysisUs / Agg.WallUs * 100.0 : 0.0;
    H.WallUs = Agg.WallUs;
    H.DispatchStatic = Agg.TierStatic;
    H.DispatchConditional = Agg.TierConditional;
    H.DispatchSerial = Agg.TierSerial;
    H.DispatchReplay = Agg.TierReplay;
    Out.push_back(std::move(H));
  }
  return Out;
}

std::string Session::healthText(const xform::PipelineResult *Plans) const {
  std::string Out = "--- per-loop health report ---\n";
  std::vector<LoopHealth> Hs = health(Plans);
  if (Hs.empty())
    Out += "  (no labeled loops executed)\n";
  for (const LoopHealth &H : Hs)
    Out += H.str();
  double AnalysisUs = 0;
  for (const auto &[Name, Secs] : Phases)
    AnalysisUs += Secs * 1e6;
  if (!Phases.empty()) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  analysis phases: %.0fus (", AnalysisUs);
    Out += Buf;
    for (size_t I = 0; I < Phases.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s%s %.0fus", I ? ", " : "",
                    Phases[I].first.c_str(), Phases[I].second * 1e6);
      Out += Buf;
    }
    Out += ")\n";
  }
  return Out;
}

std::string Session::jsonl(const xform::PipelineResult *Plans) const {
  std::string Out =
      "{\"type\": \"session\", \"max_invocations_per_loop\": " +
      std::to_string(Opts.MaxInvocationsPerLoop) +
      ", \"perf_counters\": " + (countersAvailable() ? "true" : "false") +
      "}\n";
  for (const auto &[Name, Secs] : Phases)
    Out += "{\"type\": \"phase\", \"name\": " + json::str(Name) +
           ", \"seconds\": " + json::num(Secs) + "}\n";
  for (const LoopProfile &P : Profiles)
    Out += P.jsonLine() + "\n";
  for (const LoopHealth &H : health(Plans))
    Out += H.jsonLine() + "\n";
  return Out;
}

bool Session::writeJsonl(const std::string &Path,
                         const xform::PipelineResult *Plans) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << jsonl(Plans);
  return static_cast<bool>(Out);
}
