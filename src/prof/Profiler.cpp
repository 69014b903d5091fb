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

DispatchTier iaa::prof::dispatchTier(DispatchKind K) {
  switch (K) {
  case DispatchKind::Parallel:
    return DispatchTier::Static;
  case DispatchKind::CondParallel:
  case DispatchKind::CondSerial:
    return DispatchTier::Conditional;
  case DispatchKind::Serial:
  case DispatchKind::SerialSmall:
    return DispatchTier::Serial;
  case DispatchKind::Replay:
    // The faulted dispatch is subsumed by its replay: one tier per
    // invocation, so it does not also count in its original tier.
    return DispatchTier::Replay;
  }
  return DispatchTier::Serial;
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
         ", \"last_iter\": " + std::to_string(W.LastIter) + "}";
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
                    ", \"wall_us\": " + json::num(WallUs) +
                    ", \"inspect_us\": " + json::num(InspectUs) +
                    ", \"rollback_us\": " + json::num(RollbackUs) +
                    ", \"replay_us\": " + json::num(ReplayUs) +
                    ", \"workers\": [";
  for (size_t I = 0; I < Workers.size(); ++I)
    Out += (I ? ", " : "") + jsonWorker(Workers[I]);
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

void Session::record(const std::string &Label, const InvocationRecord &Inv) {
  double WallUs = Inv.WallSeconds * 1e6;
  LabelAgg &Agg = Aggregates[Label];
  unsigned Invocation = Agg.Invocations++;
  Agg.WallUs += WallUs;
  Agg.AnalysisUs +=
      (Inv.InspectSeconds + Inv.RollbackSeconds + Inv.ReplaySeconds) * 1e6;
  if (Inv.Threads > Agg.ThreadsMax)
    Agg.ThreadsMax = Inv.Threads;
  ++Agg.Kinds[Inv.Kind];
  if (!Inv.Detail.empty())
    Agg.Detail = Inv.Detail;
  if (Invocation >= MaxInvocationsPerLoop) {
    ++prof_loops_light;
    return;
  }
  ++prof_loops_recorded;
  ++Agg.Recorded;

  LoopProfile P;
  P.Label = Label;
  P.Invocation = Invocation;
  P.Kind = Inv.Kind;
  P.Detail = Inv.Detail;
  P.Lo = Inv.Lo;
  P.Up = Inv.Up;
  P.NIter = Inv.NIter;
  P.Threads = Inv.Threads;
  P.WallUs = WallUs;
  P.InspectUs = Inv.InspectSeconds * 1e6;
  P.RollbackUs = Inv.RollbackSeconds * 1e6;
  P.ReplayUs = Inv.ReplaySeconds * 1e6;

  // Worker timelines: one lane per worker that completed a chunk.
  for (unsigned WId = 0; WId < Inv.Workers.size(); ++WId) {
    const WorkerChunks &W = Inv.Workers[WId];
    if (W.Chunks == 0)
      continue;
    WorkerTimeline T;
    T.Worker = WId;
    T.Chunks = W.Chunks;
    T.BusyUs = W.BusySeconds * 1e6;
    // Clamp into [0, wall]: a worker whose first poll raced the
    // dispenser's cancellation (fault drain) can report a first-chunk
    // start at — or, with clock skew, fractionally past — the loop's
    // recorded wall time, which would otherwise push the derived stall
    // interval negative.
    T.DispatchUs = std::clamp(W.FirstStartSeconds * 1e6, 0.0, WallUs);
    T.StallUs = std::max(0.0, WallUs - T.DispatchUs - T.BusyUs);
    T.FirstIter = W.FirstIter;
    T.LastIter = W.LastIter;
    P.Workers.push_back(std::move(T));
  }
  // A serial invocation (or a dispatch whose every chunk faulted) has no
  // completed chunk; synthesize a single worker-0 lane (busy = wall) so
  // every loop record has a timeline.
  if (P.Workers.empty()) {
    WorkerTimeline T;
    T.Worker = 0;
    T.Chunks = 1;
    T.BusyUs = WallUs;
    T.FirstIter = Inv.Lo;
    T.LastIter = Inv.NIter > 0 ? Inv.Up : Inv.Lo - 1;
    P.Workers.push_back(std::move(T));
  }

  // Per-invocation imbalance feeds the label aggregate: sum of max worker
  // busy vs. sum of mean worker busy across invocations.
  double MaxBusy = 0, SumBusy = 0;
  for (const WorkerTimeline &T : P.Workers) {
    MaxBusy = std::max(MaxBusy, T.BusyUs);
    SumBusy += T.BusyUs;
  }
  Agg.MaxBusySumUs += MaxBusy;
  Agg.AvgBusySumUs += SumBusy / static_cast<double>(P.Workers.size());

  // Counter samples for the Chrome tracer: one track per loop label.
  if (trace::enabled())
    trace::counter("loop-wall-us " + P.Label, P.WallUs);

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
    auto Saw = [&Kinds = Agg.Kinds](DispatchKind K) {
      return Kinds.count(K) > 0;
    };
    // A replayed invocation did dispatch in parallel before its fault, so
    // the label reads as parallelized.
    bool SawParallel =
        Saw(DispatchKind::Parallel) || Saw(DispatchKind::Replay);
    bool SawCondPass = Saw(DispatchKind::CondParallel);
    bool SawCondFail = Saw(DispatchKind::CondSerial);
    if (SawParallel)
      H.Verdict = "parallelized";
    else if (SawCondPass || SawCondFail)
      H.Verdict = "conditional";
    else
      H.Verdict = "serial";
    if (SawCondPass && SawCondFail)
      H.Why = "inspection passed on some invocations, failed on others";
    else if (SawCondPass)
      H.Why = "runtime inspection passed";
    else if (SawCondFail)
      H.Why = "conditional loop ran serially" +
              (Agg.Detail.empty() ? "" : ": " + Agg.Detail);
    else if (Saw(DispatchKind::SerialSmall))
      H.Why = "below the parallel profitability threshold";
    else if (!Agg.Detail.empty())
      H.Why = Agg.Detail;
    if (H.Why.empty() && !SawParallel && Plans) {
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
    unsigned *Tier[] = {&H.DispatchStatic, &H.DispatchConditional,
                        &H.DispatchSerial, &H.DispatchReplay};
    for (const auto &[Kind, N] : Agg.Kinds)
      *Tier[static_cast<int>(dispatchTier(Kind))] += N;
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
      std::to_string(MaxInvocationsPerLoop) + "}\n";
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
