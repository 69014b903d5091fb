//===- prof/Profiler.h - Per-loop dispatch profiler -------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop profiler the interpreter feeds from its dispatch decisions.
/// The interpreter fills one InvocationRecord per loop invocation and counts
/// it into ExecStats; per labeled-loop invocation the profiler records
///
///  - how the invocation was dispatched (serial, below the profitability
///    threshold, parallel, conditional pass/fail, replayed) and why;
///  - a per-worker timeline (dispatch delay, busy/stall seconds, iteration
///    span) built from the chunk summaries the interpreter's chunk loop
///    keeps; the individual chunks are the trace's "chunk" spans;
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

#include <cstdint>
#include <map>
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

/// Per-worker dispatch/execute/stall accounting for one loop invocation.
struct WorkerTimeline {
  unsigned Worker = 0;
  unsigned Chunks = 0;
  double DispatchUs = 0; ///< Loop entry to this worker's first chunk start.
  double BusyUs = 0;     ///< Sum of chunk execution times.
  double StallUs = 0;    ///< Loop wall minus dispatch minus busy (>= 0).
  int64_t FirstIter = 0, LastIter = 0;
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
  double WallUs = 0;
  double InspectUs = 0;  ///< Inspector scans charged to this invocation.
  double RollbackUs = 0; ///< Fault-containment snapshot restore.
  double ReplayUs = 0;   ///< Serial replay after a rollback.
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

/// The four tiers ExecStats and the health report count invocations in;
/// each invocation falls in exactly one.
enum class DispatchTier {
  Static,      ///< Parallel on a static proof, no inspection.
  Conditional, ///< The runtime-check inspector decided, pass or fail.
  Serial,      ///< No inspector consulted and nothing forked.
  Replay,      ///< Faulted in parallel, rolled back, serially replayed.
};

/// The tier an invocation dispatched as \p K counts in: the one
/// kind-to-tier mapping, shared by the interpreter's ExecStats and the
/// health report.
DispatchTier dispatchTier(DispatchKind K);

/// One worker's share of a dispatched invocation, kept by the interpreter's
/// chunk loop. Only that worker writes it; the join publishes it.
struct WorkerChunks {
  bool Ran = false;            ///< Started at least one chunk.
  unsigned Chunks = 0;         ///< Chunks completed.
  double BusySeconds = 0;      ///< Sum of completed chunk times.
  double MaxChunkSeconds = 0;
  double FirstStartSeconds = 0; ///< Since loop entry (valid when Ran).
  int64_t FirstIter = 0, LastIter = 0; ///< Span of the completed chunks.
};

/// What the interpreter decided and measured for one loop invocation. Its
/// stages fill one record per invocation; the interpreter counts it into
/// ExecStats and hands it to Session::record, so both views read the same
/// values.
struct InvocationRecord {
  int64_t Lo = 0, Up = 0, NIter = 0; ///< Evaluated bounds and trip count.
  DispatchKind Kind = DispatchKind::Serial;
  std::string Detail; ///< Failing check, VM bailout, fault note, ...
  unsigned Threads = 1;
  double WallSeconds = 0;
  double InspectSeconds = 0;
  double RollbackSeconds = 0;
  double ReplaySeconds = 0;
  /// One entry per worker of a dispatch; empty for a serial invocation.
  std::vector<WorkerChunks> Workers;
};

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

/// One profiling session: owns the recorded invocations and the per-label
/// aggregates behind the health report. record() is called from the
/// interpreter's serial context only (never from inside a parallel
/// region); a session may span several Interpreter::run calls and
/// accumulates across them.
class Session {
public:
  /// Fully recorded invocations per loop label; later invocations are
  /// counted in the label's aggregate (wall time, dispatch kind) without a
  /// loop record.
  static constexpr unsigned MaxInvocationsPerLoop = 32;

  Session() = default;

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Folds one finished invocation of the loop labeled \p Label into the
  /// label's aggregate and, under the per-label cap, stores its profile
  /// (timelines included) and emits a trace counter sample when tracing
  /// is on.
  void record(const std::string &Label, const InvocationRecord &Inv);

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
    /// Invocations per dispatch kind; the verdict and the dispatch tiers
    /// are both read off these.
    std::map<DispatchKind, unsigned> Kinds;
    std::string Detail;
  };

  std::vector<LoopProfile> Profiles;
  std::map<std::string, LabelAgg> Aggregates;
  std::vector<std::pair<std::string, double>> Phases;
};

} // namespace prof
} // namespace iaa

#endif // IAA_PROF_PROFILER_H
