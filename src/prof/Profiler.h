//===- prof/Profiler.h - Per-loop dispatch profiler -------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop profiler the interpreter feeds from its dispatch decisions.
/// Per labeled-loop invocation it records
///
///  - how the invocation was dispatched (serial, below the profitability
///    threshold, parallel, conditional pass/fail, replayed) and why;
///  - a per-worker chunk timeline (dispatch delay, busy/stall seconds,
///    iteration ranges) derived from the ChunkDispenser's chunk grants;
///  - optional hardware counters (cycles, instructions, LLC misses) via
///    perf_event_open, with silent graceful fallback where the syscall is
///    unavailable (fields become JSON null);
///  - the analysis tax: seconds spent in inspector scans, fault rollback,
///    and serial replay attributed to the loop that paid them.
///
/// A Session aggregates invocations per loop label into a *health report*
/// (parallelized / conditional / serial, why, dispatch tiers, imbalance %,
/// analysis-cost share) and emits everything as JSONL (`mfpar --profile`).
/// When tracing is on, per-loop counter samples also flow into the Chrome
/// trace as "ph":"C" events. Nothing here runs per element access.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_PROF_PROFILER_H
#define IAA_PROF_PROFILER_H

#include "prof/PerfCounters.h"
#include "support/Timer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace iaa {

namespace xform {
struct PipelineResult;
} // namespace xform

namespace prof {

//===----------------------------------------------------------------------===//
// Finalized per-invocation profiles
//===----------------------------------------------------------------------===//

/// How the interpreter dispatched one profiled loop invocation.
enum class DispatchKind {
  Serial,       ///< No plan (the loop is statically serial), or a
                ///< plan-marked loop run serially by the race checker.
  SerialSmall,  ///< A plan exists but the profitability guard kept it serial.
  Parallel,     ///< Statically-certified parallel dispatch.
  CondParallel, ///< Runtime-conditional plan; inspection passed.
  CondSerial,   ///< Runtime-conditional plan run serially: its inspection
                ///< failed, or it passed and the VM compiler bailed
                ///< (Detail says which).
  Replay,       ///< Dispatched parallel, trapped a worker fault, rolled
                ///< back, and re-executed serially. One invocation, one
                ///< tier: the original parallel tier is not also counted.
};

const char *dispatchKindName(DispatchKind K);

/// One chunk grant as seen by the profiler (times relative to loop entry).
struct ChunkEvent {
  unsigned Chunk = 0;
  int64_t First = 0, Last = 0;
  double StartUs = 0, DurUs = 0;
};

/// Per-worker dispatch/execute/stall accounting for one loop invocation.
struct WorkerTimeline {
  unsigned Worker = 0;
  unsigned Chunks = 0;
  double DispatchUs = 0; ///< Loop entry to this worker's first chunk start.
  double BusyUs = 0;     ///< Sum of chunk execution times.
  double StallUs = 0;    ///< Loop wall minus dispatch minus busy (>= 0).
  int64_t FirstIter = 0, LastIter = 0;
  std::vector<ChunkEvent> Events; ///< Capped; EventsDropped counts the rest.
  unsigned EventsDropped = 0;
};

/// Everything measured for one invocation of one labeled loop.
struct LoopProfile {
  std::string Label;
  unsigned Invocation = 0; ///< 0-based per-label invocation number.
  DispatchKind Kind = DispatchKind::Serial;
  std::string Detail; ///< Failing check, VM bailout, fault note, ...
                      ///< (may be empty).
  int64_t Lo = 0, Up = 0, NIter = 0;
  unsigned Threads = 1;
  std::string Schedule;
  double WallUs = 0;
  double InspectUs = 0;  ///< Inspector scans charged to this invocation.
  double RollbackUs = 0; ///< Fault-containment snapshot restore.
  double ReplayUs = 0;   ///< Serial replay after a rollback.
  PerfSample Perf;       ///< Valid only when hardware counters opened.
  std::vector<WorkerTimeline> Workers;

  /// One JSON object (single line, no trailing newline) for JSONL output.
  std::string jsonLine() const;
};

/// Aggregated per-label verdict for the health report.
struct LoopHealth {
  std::string Label;
  std::string Verdict; ///< "parallelized", "conditional", or "serial".
  std::string Why;     ///< Pipeline remark reason or dispatch detail.
  unsigned Invocations = 0; ///< All invocations, including past the cap.
  unsigned Recorded = 0;    ///< Fully recorded invocations.
  unsigned ThreadsMax = 1;
  double ImbalancePct = 0;    ///< (sum max busy / sum avg busy - 1) * 100.
  double AnalysisPct = 0;     ///< Analysis tax share of loop wall time.
  double WallUs = 0;          ///< Total wall microseconds across invocations.
  /// Invocation counts by dispatch tier: static (parallel on a static
  /// proof, no inspection), conditional (inspector decided, pass or fail),
  /// serial (no plan, or the profitability guard kept a planned loop
  /// serial), replay (faulted in parallel, rolled back, serially
  /// replayed). One tier per invocation: the four counts sum to
  /// Invocations.
  unsigned DispatchStatic = 0;
  unsigned DispatchConditional = 0;
  unsigned DispatchSerial = 0;
  unsigned DispatchReplay = 0;

  std::string str() const;
  std::string jsonLine() const;
};

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

struct SessionOptions {
  /// Fully recorded invocations per loop label; later invocations are
  /// counted (wall time, dispatch kind) without a timeline.
  size_t MaxInvocationsPerLoop = 32;
  /// Cap on stored chunk events per worker per invocation.
  size_t MaxChunkEventsPerWorker = 64;
  /// Attempt to open hardware counters (silently absent when unavailable).
  bool HardwareCounters = true;
};

/// The per-invocation recording object the interpreter writes into. Chunk
/// notes go to per-worker slots, so parallel workers record without
/// synchronization; the fork/join barrier publishes them to endLoop.
class LoopRecorder {
public:
  /// Microseconds since loop entry (timeline timebase).
  double nowUs() const { return Clock.seconds() * 1e6; }

  /// Records one chunk grant executed by \p Worker. A no-op for a
  /// past-the-cap (light) invocation, which keeps only wall time and
  /// dispatch kind.
  void noteChunk(unsigned Worker, unsigned ChunkId, int64_t First,
                 int64_t Last, double StartUs, double DurUs) {
    if (Light)
      return;
    WorkerRec &WR = Wrk[Worker < Wrk.size() ? Worker : 0];
    ++WR.Chunks;
    WR.BusyUs += DurUs;
    if (WR.FirstStartUs < 0)
      WR.FirstStartUs = StartUs;
    if (StartUs + DurUs > WR.LastEndUs)
      WR.LastEndUs = StartUs + DurUs;
    if (First < WR.FirstIter)
      WR.FirstIter = First;
    if (Last > WR.LastIter)
      WR.LastIter = Last;
    if (WR.Events.size() < MaxChunkEvents)
      WR.Events.push_back({ChunkId, First, Last, StartUs, DurUs});
    else
      ++WR.EventsDropped;
  }

  /// Dispatch context, filled in by the interpreter as decisions fall.
  DispatchKind Kind = DispatchKind::Serial;
  std::string Detail;
  unsigned Threads = 1;
  std::string Schedule;
  double InspectUs = 0;
  double RollbackUs = 0;
  double ReplayUs = 0;

private:
  friend class Session;

  struct WorkerRec {
    unsigned Chunks = 0;
    double BusyUs = 0;
    double FirstStartUs = -1;
    double LastEndUs = 0;
    int64_t FirstIter = INT64_MAX, LastIter = INT64_MIN;
    std::vector<ChunkEvent> Events;
    unsigned EventsDropped = 0;
  };

  std::string Label;
  unsigned Invocation = 0;
  bool Light = false;
  size_t MaxChunkEvents = 0;
  int64_t Lo = 0, Up = 0, NIter = 0;
  Timer Clock;
  PerfSample PerfBegin;
  std::vector<WorkerRec> Wrk;
};

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

/// One profiling session: owns the recorded invocations, the per-label
/// aggregates behind the health report, and the optional hardware-counter
/// group. beginLoop/endLoop are called from the interpreter's serial
/// context only (never from inside a parallel region); a session may span
/// several Interpreter::run calls and accumulates across them.
class Session {
public:
  explicit Session(SessionOptions O = {});
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const SessionOptions &options() const { return Opts; }

  /// True when the hardware-counter group opened successfully.
  bool countersAvailable() const;

  /// Starts recording one invocation of the loop labeled \p Label. Returns
  /// a light recorder past the per-label invocation cap.
  LoopRecorder *beginLoop(const std::string &Label, unsigned MaxWorkers,
                          int64_t Lo, int64_t Up, int64_t NIter);

  /// Finalizes \p R (timelines, counter deltas), stores the profile, folds
  /// it into the label aggregate, emits trace counter samples when tracing
  /// is on, and deletes the recorder.
  void endLoop(LoopRecorder *R);

  /// Attributes a program-level analysis cost (pipeline, audit, ...) to
  /// the session; shows up as a "phase" JSONL record.
  void notePhase(const std::string &Name, double Seconds);

  /// Finalized invocations, in execution order.
  const std::vector<LoopProfile> &invocations() const { return Profiles; }

  /// Per-label health verdicts, sorted by label. \p Plans (optional)
  /// supplies the pipeline's "why" for each loop.
  std::vector<LoopHealth> health(const xform::PipelineResult *Plans) const;

  /// Human-readable health report for terminals.
  std::string healthText(const xform::PipelineResult *Plans) const;

  /// The whole session as JSONL: a session header, phase records, one
  /// record per recorded invocation, then one health record per label.
  std::string jsonl(const xform::PipelineResult *Plans) const;

  /// Writes jsonl() to \p Path; false on I/O failure.
  bool writeJsonl(const std::string &Path,
                  const xform::PipelineResult *Plans) const;

private:
  struct LabelAgg {
    unsigned Invocations = 0;
    unsigned Recorded = 0;
    unsigned ThreadsMax = 1;
    double WallUs = 0;
    double AnalysisUs = 0;
    double MaxBusySumUs = 0; ///< Sum over invocations of max worker busy.
    double AvgBusySumUs = 0; ///< Sum over invocations of mean worker busy.
    bool SawParallel = false, SawCondPass = false, SawCondFail = false,
         SawSerialSmall = false;
    /// Invocation counts by dispatch tier (static / conditional / serial /
    /// replay; see LoopHealth — one tier per invocation).
    unsigned TierStatic = 0, TierConditional = 0, TierSerial = 0,
             TierReplay = 0;
    std::string Detail;
  };

  SessionOptions Opts;
  std::unique_ptr<PerfCounters> Perf; ///< Lazily opened on first beginLoop.
  bool PerfTried = false;
  std::vector<LoopProfile> Profiles;
  std::map<std::string, LabelAgg> Aggregates;
  std::vector<std::pair<std::string, double>> Phases;
};

} // namespace prof
} // namespace iaa

#endif // IAA_PROF_PROFILER_H
