//===- interp/Interpreter.h - MF execution engine ---------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking executor for MF programs, with a parallel do-loop mode
/// driven by the parallelizer's plans. This is the runtime substrate for the
/// speedup experiments (Fig. 16): a loop the pipeline marked parallel is
/// executed fork/join on a persistent WorkerPool, with guided iteration
/// chunks handed out by a ChunkDispenser and run as register bytecode
/// (vm/Vm.h) at every thread count;
/// the tree walk itself only ever runs serially. Arrays and scalars the
/// plan privatized get per-worker copies built on the worker's first chunk;
/// recognized sum reductions use per-worker partials merged after the join;
/// the worker that executed the loop's *final iteration* writes its private
/// copies back (Fortran's last-value semantics — never an idle worker's
/// untouched copy-in).
///
/// Correctness is checked in the tests by comparing checksums of parallel
/// and serial runs of every benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_INTERP_INTERPRETER_H
#define IAA_INTERP_INTERPRETER_H

#include "interp/Fault.h"
#include "interp/ThreadPool.h"
#include "mf/Program.h"
#include "support/Remarks.h"
#include "xform/Parallelizer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace iaa {

namespace prof {
class Session;
} // namespace prof

namespace vm {
class BytecodeCache;
} // namespace vm

namespace interp {

/// Storage for one variable: a scalar is a size-1 buffer.
struct Buffer {
  mf::ScalarKind Kind = mf::ScalarKind::Int;
  std::vector<int64_t> I;
  std::vector<double> D;
  /// Bumped on every tree-walk write and once per dispatched loop that
  /// writes the symbol (VM chunks do not bump it). Keys the inspector's
  /// verdict cache: a runtime-check verdict stays valid while the versions
  /// of every inspected index array are unchanged.
  uint64_t Version = 0;

  size_t size() const {
    return Kind == mf::ScalarKind::Int ? I.size() : D.size();
  }
};

/// Whole-program memory: one buffer per symbol, indexed by symbol id.
class Memory {
public:
  /// Empty memory (no symbols); what Interpreter::run returns when the
  /// allocating constructor itself faults.
  Memory() = default;

  /// Allocates a buffer per symbol. Throws FaultException (kind BadExtent
  /// or DivByZero) on a non-constant, non-positive, or overflowing extent —
  /// the element-count multiply is overflow-checked and the total
  /// allocation is capped, so a hostile extent can neither wrap to a
  /// too-small buffer nor drive the process out of memory.
  ///
  /// \p LimitBytes > 0 additionally enforces a per-request memory budget:
  /// when the running total of buffer bytes would exceed it, allocation
  /// stops with a structured ResourceExhausted fault (never a bad_alloc),
  /// carrying the requested total and the budget as value/bound.
  explicit Memory(const mf::Program &P, size_t LimitBytes = 0);

  Buffer &buffer(const mf::Symbol *S) { return Buffers[S->id()]; }
  const Buffer &buffer(const mf::Symbol *S) const { return Buffers[S->id()]; }

  /// Every symbol's declared extents, one per dimension as the constructor
  /// evaluated them (empty for a scalar), indexed by symbol id: subscript
  /// linearization and the bytecode compiler read them from here.
  const std::vector<std::vector<int64_t>> &extents() const { return Extents; }

  int64_t intScalar(const mf::Symbol *S) const { return Buffers[S->id()].I[0]; }
  double realScalar(const mf::Symbol *S) const { return Buffers[S->id()].D[0]; }

  /// A deterministic digest of all variables, for serial/parallel
  /// equivalence checks.
  double checksum() const;

  /// Digest that skips the buffers of the given symbol ids. Arrays that a
  /// parallel plan privatized and that are dead after the loop have
  /// unspecified contents (OpenMP PRIVATE semantics) and must be excluded
  /// when comparing against a serial run.
  double checksumExcluding(const std::set<unsigned> &ExcludeIds) const;

private:
  std::vector<Buffer> Buffers;
  std::vector<std::vector<int64_t>> Extents;
};

/// The symbol ids whose post-run contents are unspecified under \p Plans
/// (privatized arrays of parallel loops).
std::set<unsigned> deadPrivateIds(const xform::PipelineResult &Plans);

/// How a run executes. Every dispatched plan-marked loop runs its chunks as
/// compiled register bytecode (vm/Vm.h) at every thread count, T=1
/// included. The tree-walking interpreter is the serial reference: it runs
/// serial code, serial fallbacks (a loop the bytecode compiler bails on
/// runs serially), race-checked loops, and fault replays, and it never runs
/// inside a worker.
enum class ExecEngine {
  Vm,   ///< Dispatched loops run on the VM (the default).
  Both, ///< Differential oracle: run the program on the VM and once more
        ///< as the plan-free serial tree walk, then compare final-memory
        ///< checksums (or fault kinds when a run faults terminally). A
        ///< divergence is reported as an Internal fault. Returns the VM
        ///< run's memory.
};

const char *engineName(ExecEngine E);
/// Parses "vm" / "both"; returns false on anything else.
bool parseEngine(const std::string &Name, ExecEngine &Out);

/// Execution options.
struct ExecOptions {
  /// Parallel plans; null runs everything serially.
  const xform::PipelineResult *Plans = nullptr;
  /// Worker count for parallel loops.
  unsigned Threads = 1;
  /// Simulated multiprocessor mode: chunks run sequentially, each timed,
  /// and a parallel loop costs its busiest virtual worker's time plus a
  /// fork/join overhead of 50 us + 3 us * Threads (none when one worker
  /// runs, which forks nothing). Semantically identical to the threaded
  /// mode; used to reproduce the Fig. 16 speedup curves on hosts without
  /// enough cores (speedup *shape* — Amdahl fractions, load imbalance,
  /// per-invocation overhead — is preserved).
  bool Simulate = false;
  /// Profitability heuristic: a marked-parallel loop only forks when its
  /// estimated work (trip count times a static body weight, nested loops
  /// assumed 16 iterations) reaches this threshold. Vendor parallelizers
  /// guard tiny loops the same way; set to 0 for Polaris-faithful
  /// unguarded execution (the paper's Fig. 16(e) tiny-input slowdown needs
  /// the guard off).
  int64_t MinParallelWork = 1024;
  /// Shadow-memory race checking: every plan-marked loop runs serially
  /// (bypassing the profitability guard) under per-element last-writer /
  /// last-reader iteration tags, and every cross-iteration conflict not
  /// covered by the plan's proof obligations is recorded in
  /// ExecStats::Races. The ground truth the plan auditor is checked
  /// against (see verify/PlanAudit.h).
  bool RaceCheck = false;
  /// Inspector/executor mode: loops the pipeline emitted as
  /// runtime-conditional (LoopPlan::RuntimeChecks) are inspected with an
  /// O(n) scan of their index arrays before the first execution; the loop
  /// runs parallel when every check passes and serial otherwise. Verdicts
  /// are cached keyed on the inspected arrays' version counters, so
  /// repeated invocations skip re-inspection until an index array is
  /// rewritten. Only meaningful together with Plans.
  bool RuntimeChecks = false;
  /// Fault-containment policy for parallel loops. Under Report and Replay,
  /// every parallel (or runtime-conditional) dispatch snapshots the loop's
  /// MAY-written shared buffers first; a worker fault is trapped locally,
  /// published first-fault-wins, cancels the chunk dispenser, and after the
  /// join the snapshot is rolled back — contents *and* version counters,
  /// since the restored bytes are exactly the pre-loop bytes, so inspector
  /// verdicts cached against them stay valid. Replay additionally
  /// re-executes the loop serially: it either reproduces the fault with
  /// exact serial attribution or completes correctly when the fault was an
  /// artifact of parallel execution. Abort skips the snapshot and
  /// propagates the first fault with shared state possibly torn (legacy
  /// semantics, minus the process abort). Serial faults always unwind to
  /// Interpreter::faultState() regardless of this setting.
  FaultAction OnFault = FaultAction::Replay;
  /// Test-only fault-injection hook (see FaultInjectionHook); null in
  /// production runs.
  const FaultInjectionHook *Injector = nullptr;
  /// Loop profiling session (prof/Profiler.h); null disables profiling.
  /// The interpreter records, per labeled-loop invocation, the dispatch
  /// decision, per-worker timelines, and analysis-cost attribution
  /// into the session; no hook runs per element access. Observation only:
  /// program results are bit-identical with profiling on or off.
  prof::Session *Prof = nullptr;
  /// Engine selection (see ExecEngine). Vm lowers each dispatched loop to
  /// register bytecode (a loop the compiler bails on runs serially); Both
  /// also runs the plan-free serial tree walk and checks bit-identical
  /// results.
  ExecEngine Engine = ExecEngine::Vm;
  /// Cooperative cancellation (request deadlines). When set, both engines
  /// poll the token at every loop iteration and while back-edge; a fired
  /// token raises a DeadlineExceeded fault through the normal containment
  /// path — parallel loops drain the dispenser, roll back their write-set
  /// snapshot, and the run unwinds with faultState() reporting the
  /// deadline. Resource-limit faults skip serial replay (the budget stays
  /// blown), so OnFault=Replay degrades to rollback-and-report for them.
  const CancelToken *Cancel = nullptr;
  /// Per-request memory budget in bytes forwarded to the Memory
  /// constructor by Interpreter::run; 0 = unlimited. Over-budget
  /// allocation faults ResourceExhausted before touching the heap.
  size_t MemLimitBytes = 0;
  /// Shared fork/join pool (the mfpard daemon shares one across requests).
  /// Used when it has at least Threads workers; otherwise the interpreter
  /// lazily builds its own pool as before. Concurrent requests serialize
  /// at fork/join granularity inside WorkerPool::run.
  WorkerPool *SharedPool = nullptr;
};

/// Classification of one dynamically observed cross-iteration conflict.
enum class RaceKind {
  WriteWrite,         ///< Two iterations write the same shared element.
  ReadAfterWrite,     ///< Flow: a later iteration reads an earlier write.
  WriteAfterRead,     ///< Anti: a later iteration overwrites an earlier read.
  ExposedPrivateRead, ///< A privatized array element is read before any
                      ///< write of the same iteration (the copy-in value
                      ///< would differ between workers).
  LastValueLoss,      ///< A live-out privatized element's final write is not
                      ///< in the final iteration (the writeback would lose
                      ///< it).
};

const char *raceKindName(RaceKind K);

/// One conflict found by the shadow-memory race checker.
struct RaceRecord {
  std::string Loop;   ///< Label of the monitored loop.
  std::string Var;    ///< Conflicting variable.
  size_t Element = 0; ///< Linearized element index (0 for scalars).
  std::int64_t IterA = 0; ///< Earlier iteration of the pair.
  std::int64_t IterB = 0; ///< Later iteration (or the final one).
  RaceKind Kind = RaceKind::WriteWrite;

  std::string str() const;
};

/// Per-run execution statistics: the interpreter's one counter store. Each
/// runtime event is counted here once; when the run ends, the interp,
/// dispatch and vm statistics and the FaultState counters are published
/// from these fields. In simulated mode every time below is virtual time
/// (wall time minus the serialized surplus of simulated parallel loops); in
/// threaded/serial mode it equals wall time.
struct ExecStats {
  /// Seconds per labeled loop (accumulated over invocations, measured at
  /// the outermost entry of that label, a faulted invocation included).
  std::map<std::string, double> LoopSeconds;
  double TotalSeconds = 0;
  /// Actual wall-clock seconds of the run.
  double WallSeconds = 0;
  /// Number of loop invocations dispatched through the chunk dispenser, at
  /// any thread count (a T=1 dispatch is one VM chunk).
  unsigned ParallelLoopRuns = 0;
  /// Number of iteration chunks executed by parallel loops. Fed by the
  /// chunk dispenser, which never hands out empty chunks, so this counts
  /// only chunks that ran at least one iteration.
  unsigned ChunksRun = 0;
  /// Workers that executed at least one chunk, accumulated over parallel
  /// loop invocations. Less than ParallelLoopRuns * Threads when some
  /// worker never got a chunk (a short loop can drain before every worker
  /// wakes).
  unsigned WorkersEngaged = 0;
  /// Sum and max of per-chunk body seconds, over every parallel loop
  /// invocation. Guided chunks shrink as a loop drains, so
  /// max * ChunksRun / sum measures the spread of chunk sizes, not how
  /// evenly the workers were loaded; per-worker balance is the profiler's
  /// ImbalancePct (prof/Profiler.h).
  double ChunkSecondsSum = 0;
  double ChunkSecondsMax = 0;
  /// Conflicts observed by the shadow-memory race checker
  /// (ExecOptions::RaceCheck). Capped at a small number of stored records;
  /// RacesFound counts every observation.
  std::vector<RaceRecord> Races;
  unsigned RacesFound = 0;

  /// Per-loop dispatch tier over serial-context loop invocations (the
  /// --stats "dispatch" group is published from these). The four tiers
  /// partition every dispatch decision — one tier per invocation, mapped
  /// from its prof::DispatchKind by prof::dispatchTier:
  /// static (parallel on a static proof, no inspection), conditional
  /// (decided by the runtime-check inspector, whichever way it fell),
  /// serial (no inspector consulted; a race-checked plan-marked loop runs
  /// here too, since it forks nothing), replay (dispatched parallel but
  /// faulted, rolled back, and serially replayed — the replay's nested
  /// loops and the original parallel tier are *not* double-counted).
  unsigned DispatchStatic = 0;
  unsigned DispatchConditional = 0;
  unsigned DispatchSerial = 0;
  unsigned DispatchReplay = 0;

  /// Inspector/executor runtime checks (ExecOptions::RuntimeChecks).
  unsigned InspectionsRun = 0;    ///< Fresh O(n) inspections executed.
  unsigned InspectionsCached = 0; ///< Verdicts served from the version cache.
  unsigned RuntimeCheckFails = 0; ///< Decisions that fell back to serial.
  /// One record per runtime-check dispatch decision (capped at 64).
  struct RuntimeDecision {
    std::string Loop;   ///< Label of the conditional loop.
    bool Cached = false; ///< Verdict came from the version cache.
    bool Pass = false;   ///< Parallel dispatch (all checks passed).
    std::string Detail; ///< The failing check, empty on pass.

    std::string str() const;
  };
  std::vector<RuntimeDecision> RuntimeDecisions;

  /// Fault containment (ExecOptions::OnFault).
  unsigned WorkerFaults = 0;   ///< Faults trapped inside parallel workers.
  unsigned FaultRollbacks = 0; ///< Loop transactions rolled back.
  unsigned FaultReplays = 0;   ///< Serial replays executed after rollback.
  unsigned FaultReplaysRecovered = 0; ///< Replays that completed cleanly.
  /// One FaultReplay remark per rolled-back parallel loop (capped at 64),
  /// stating the trapped fault and whether the serial replay recovered or
  /// reproduced it.
  std::vector<Remark> FaultRemarks;

  /// Bytecode VM engine.
  unsigned VmLoopsCompiled = 0; ///< Distinct loops lowered to bytecode.
  unsigned VmBailouts = 0; ///< Distinct loops the VM compiler rejected
                           ///< (their invocations run serially).
  unsigned VmParallelLoopRuns = 0; ///< Dispatched invocations executed on
                                   ///< the VM (equals ParallelLoopRuns).
  unsigned VmChunksRun = 0; ///< Chunks executed as bytecode.
  /// Differential oracle (Engine == Both): whole-program comparisons of
  /// the VM run against the plan-free serial tree walk, and how many
  /// diverged (a divergence also surfaces as an Internal fault in
  /// Interpreter::faultState).
  unsigned BothComparisons = 0;
  unsigned BothMismatches = 0;
};

/// Session-lifetime runtime caches. One Interpreter owns one instance, so
/// inspector verdicts (keyed on Buffer::Version counters), body-weight
/// estimates, loop write-sets, and compiled VM bytecode persist across
/// run() calls — a daemon session re-running the same cached program skips
/// re-inspection and re-lowering on later requests. Defined in
/// Interpreter.cpp; opaque here.
class RuntimeCaches;

/// Runs \p P (starting at "main") against fresh memory; returns the final
/// memory and fills \p Stats (reset first) if given. An Interpreter may be
/// reused across runs (a daemon session keeps one per cached program): its
/// RuntimeCaches carry version-keyed verdicts between runs, which is sound
/// because every run starts from fresh Memory whose version counters evolve
/// deterministically.
class Interpreter {
public:
  explicit Interpreter(const mf::Program &P);
  ~Interpreter();

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Executes the program; the returned Memory holds the final state. A
  /// program-level fault never aborts the process: serial faults unwind
  /// here (the returned memory holds the state at the fault, rolled-back
  /// loops excepted) and faultState() reports what happened; parallel-
  /// worker faults are contained per ExecOptions::OnFault.
  Memory run(const ExecOptions &Opts, ExecStats *Stats = nullptr);

  /// Fault summary of the most recent run (reset on each run call).
  const FaultState &faultState() const { return LastFault; }

  /// Installs a shared compiled-bytecode store (the daemon artifact cache
  /// shares one per cached program, so one session's lowering work is
  /// visible to every session running that program). Call between runs,
  /// not during one. Null restores the private per-interpreter store.
  void setBytecodeCache(std::shared_ptr<vm::BytecodeCache> Cache);

private:
  /// One engine pass: fills \p S (reset first) and LastFault, publishes
  /// nothing. run() publishes the statistics of the run under test only, so
  /// Engine == Both's plan-free reference pass is not counted.
  Memory execute(const ExecOptions &Opts, ExecStats &S);

  const mf::Program &Prog;
  FaultState LastFault;
  std::unique_ptr<RuntimeCaches> Caches;
};

} // namespace interp
} // namespace iaa

#endif // IAA_INTERP_INTERPRETER_H
