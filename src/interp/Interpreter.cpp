//===- interp/Interpreter.cpp - MF execution engine -----------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "analysis/GlobalConstants.h"
#include "analysis/SymbolUses.h"
#include "interp/Fault.h"
#include "interp/Inspector.h"
#include "interp/ThreadPool.h"
#include "prof/Profiler.h"
#include "support/Saturating.h"
#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;

// The interp, dispatch and vm groups are views of each run's ExecStats,
// published once when the run ends (see publish below).
#define IAA_STAT_GROUP "interp"
IAA_STAT(interp_runs, "Interpreter runs");
IAA_STAT(interp_parallel_loop_runs,
         "Loop invocations dispatched (each runs on the bytecode VM)");
IAA_STAT(interp_chunks_run, "Iteration chunks executed as bytecode");
IAA_STAT(interp_inspections_run, "Fresh runtime-check inspections executed");
IAA_STAT(interp_inspections_cached,
         "Runtime-check verdicts served from the version cache");
IAA_STAT(interp_runtime_check_fails,
         "Runtime-check decisions that fell back to serial");
IAA_STAT(interp_faults_trapped, "Runtime faults trapped (all contexts)");
IAA_STAT(interp_fault_rollbacks,
         "Parallel-loop transactions rolled back after a worker fault");
IAA_STAT(interp_fault_replays, "Serial replays executed after a rollback");
IAA_STAT(interp_fault_replays_recovered,
         "Serial replays that completed cleanly (fault not reproduced)");

// Per-loop dispatch tier (--stats group "dispatch"): one increment per
// serial-context loop invocation, classified by how the dispatch decision
// fell. Deterministic for a fixed program, input, and option set.
static ::iaa::stat::Statistic dispatch_static(
    "dispatch", "dispatch_static",
    "Invocations dispatched parallel on a static proof (no inspection)");
static ::iaa::stat::Statistic dispatch_conditional(
    "dispatch", "dispatch_conditional",
    "Invocations whose dispatch was decided by the runtime-check inspector");
static ::iaa::stat::Statistic dispatch_serial(
    "dispatch", "dispatch_serial",
    "Invocations executed serially without consulting an inspector");
static ::iaa::stat::Statistic dispatch_replay(
    "dispatch", "dispatch_replay",
    "Invocations that dispatched parallel, faulted, and were serially "
    "replayed after rollback (counted here, not in their original tier)");

// Bytecode-VM compiler counters (--stats group "vm"). Dispatches and chunks
// are the interp group's: every one runs on the VM.
static ::iaa::stat::Statistic vm_loops_compiled(
    "vm", "vm_loops_compiled",
    "Distinct loops lowered to register bytecode");
static ::iaa::stat::Statistic vm_bailouts(
    "vm", "vm_bailouts",
    "Distinct loops the bytecode compiler bailed on (run serially)");

const char *iaa::interp::engineName(ExecEngine E) {
  switch (E) {
  case ExecEngine::Vm:
    return "vm";
  case ExecEngine::Both:
    return "both";
  }
  return "?";
}

bool iaa::interp::parseEngine(const std::string &Name, ExecEngine &Out) {
  if (Name == "vm")
    Out = ExecEngine::Vm;
  else if (Name == "both")
    Out = ExecEngine::Both;
  else
    return false;
  return true;
}

namespace {

/// Publishes one run's counts. The interp, dispatch and vm statistics, the
/// fault summary's counters and ExecStats' VM mirrors are views of the
/// run's ExecStats, set here and nowhere else.
void publish(ExecStats &S, FaultState &FS) {
  S.VmParallelLoopRuns = S.ParallelLoopRuns;
  S.VmChunksRun = S.ChunksRun;
  // Every worker fault, plus the fault that ended the run, if one did.
  FS.FaultsObserved = S.WorkerFaults + (FS.Faulted ? 1 : 0);
  FS.Rollbacks = S.FaultRollbacks;
  FS.Replays = S.FaultReplays;
  FS.ReplaysRecovered = S.FaultReplaysRecovered;

  ++interp_runs;
  interp_parallel_loop_runs += S.ParallelLoopRuns;
  interp_chunks_run += S.ChunksRun;
  interp_inspections_run += S.InspectionsRun;
  interp_inspections_cached += S.InspectionsCached;
  interp_runtime_check_fails += S.RuntimeCheckFails;
  interp_faults_trapped += FS.FaultsObserved;
  interp_fault_rollbacks += S.FaultRollbacks;
  interp_fault_replays += S.FaultReplays;
  interp_fault_replays_recovered += S.FaultReplaysRecovered;
  dispatch_static += S.DispatchStatic;
  dispatch_conditional += S.DispatchConditional;
  dispatch_serial += S.DispatchSerial;
  dispatch_replay += S.DispatchReplay;
  vm_loops_compiled += S.VmLoopsCompiled;
  vm_bailouts += S.VmBailouts;
}

/// Raises a structured fault from a context with no frame (memory
/// allocation and its extent evaluation). Loop/worker attribution is added
/// by the framed overload inside Exec.
[[noreturn]] void faultAt(FaultKind Kind, SourceLoc Loc, std::string Detail,
                          const Symbol *Sym = nullptr, bool HasValue = false,
                          int64_t Value = 0, int64_t Bound = 0) {
  RuntimeFault F;
  F.Kind = Kind;
  F.Loc = Loc;
  F.Range = SourceRange(Loc);
  if (Sym)
    F.Var = Sym->name();
  F.HasValue = HasValue;
  F.Value = Value;
  F.Bound = Bound;
  F.Detail = std::move(Detail);
  throw FaultException(std::move(F));
}

/// A loop's name in records and remarks: its label, or "<unlabeled>".
std::string loopName(const DoStmt *DS) {
  return DS->label().empty() ? "<unlabeled>" : DS->label();
}

/// A dynamically typed value.
struct Value {
  bool IsInt = true;
  int64_t I = 0;
  double D = 0;

  static Value ofInt(int64_t V) { return {true, V, 0}; }
  static Value ofReal(double V) { return {false, 0, V}; }

  int64_t asInt() const { return IsInt ? I : static_cast<int64_t>(D); }
  double asReal() const { return IsInt ? static_cast<double>(I) : D; }
  bool truthy() const { return IsInt ? I != 0 : D != 0; }
};

} // namespace

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

Memory::Memory(const Program &P, size_t LimitBytes) {
  analysis::GlobalConstants Consts(P);
  Buffers.resize(P.numSymbols());
  Extents.resize(P.numSymbols());

  // Resolve a (possibly symbolic) extent using whole-program constants.
  // Saturating arithmetic keeps a hostile extent expression from tripping
  // signed-overflow UB before the positivity and size checks below run.
  std::function<int64_t(const Expr *)> EvalExtent = [&](const Expr *E)
      -> int64_t {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return cast<IntLit>(E)->value();
    case ExprKind::VarRef: {
      const Symbol *S = cast<VarRef>(E)->symbol();
      auto V = Consts.valueOf(S);
      if (!V)
        faultAt(FaultKind::BadExtent, E->loc(),
                "array extent is not a program constant", S);
      return *V;
    }
    case ExprKind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      int64_t L = EvalExtent(BE->lhs());
      int64_t R = EvalExtent(BE->rhs());
      switch (BE->op()) {
      case BinaryOp::Add: return satAdd(L, R);
      case BinaryOp::Sub: return satAdd(L, satMul(-1, R));
      case BinaryOp::Mul: return satMul(L, R);
      case BinaryOp::Div:
        if (!R)
          faultAt(FaultKind::DivByZero, BE->loc(),
                  "division by zero in array extent");
        // The one quotient past int64_t, which traps on x86: saturate it.
        if (L == INT64_MIN && R == -1)
          return INT64_MAX;
        return L / R;
      default:
        faultAt(FaultKind::Unsupported, BE->loc(),
                "unsupported operator in array extent");
      }
    }
    default:
      faultAt(FaultKind::Unsupported, E->loc(),
              "unsupported array extent expression");
    }
  };

  // Largest element count one buffer may hold. Far above any real program
  // in this repo, low enough that a wild extent faults instead of driving
  // the allocator into the ground.
  constexpr size_t MaxElems = size_t(1) << 31;

  // Running total against the optional per-run budget. Enforced *before*
  // each buffer's allocation, so an over-budget program raises a structured
  // ResourceExhausted fault instead of driving the process into bad_alloc
  // (or the OOM killer) — essential for the daemon, where one tenant's
  // allocation must never take down its neighbors.
  size_t TotalBytes = 0;

  // Every check that can fault runs first, symbol by symbol, and the
  // buffers are allocated once all passed, so a faulting program allocates
  // nothing.
  std::vector<size_t> Counts(P.numSymbols(), 1);
  for (const Symbol *S : P.symbols()) {
    size_t &Elems = Counts[S->id()];
    for (unsigned D = 0; D < S->rank(); ++D) {
      int64_t Extent = EvalExtent(S->extent(D));
      Extents[S->id()].push_back(Extent);
      if (Extent <= 0)
        faultAt(FaultKind::BadExtent, S->extent(D)->loc(),
                "array extent must be positive", S, /*HasValue=*/true,
                Extent);
      // Checked multiply: a product past SIZE_MAX must fault, not wrap to
      // an under-allocated buffer that later subscripts silently corrupt.
      size_t Next = 0;
      if (__builtin_mul_overflow(Elems, static_cast<size_t>(Extent), &Next) ||
          Next > MaxElems)
        faultAt(FaultKind::BadExtent, S->extent(D)->loc(),
                "array element count overflows the allocation limit", S,
                /*HasValue=*/true, Extent,
                static_cast<int64_t>(MaxElems));
      Elems = Next;
    }
    TotalBytes += Elems * 8; // Both element kinds are 8 bytes wide.
    if (LimitBytes && TotalBytes > LimitBytes)
      faultAt(FaultKind::ResourceExhausted,
              S->rank() ? S->extent(0)->loc() : SourceLoc{},
              "memory budget exceeded allocating program arrays", S,
              /*HasValue=*/true, static_cast<int64_t>(TotalBytes),
              static_cast<int64_t>(LimitBytes));
  }
  for (const Symbol *S : P.symbols()) {
    Buffer &B = Buffers[S->id()];
    B.Kind = S->elementKind();
    if (B.Kind == ScalarKind::Int)
      B.I.assign(Counts[S->id()], 0);
    else
      B.D.assign(Counts[S->id()], 0.0);
  }
}

double Memory::checksum() const { return checksumExcluding({}); }

double Memory::checksumExcluding(const std::set<unsigned> &ExcludeIds) const {
  double Sum = 0;
  for (unsigned Id = 0; Id < Buffers.size(); ++Id) {
    if (ExcludeIds.count(Id))
      continue;
    const Buffer &B = Buffers[Id];
    if (B.Kind == ScalarKind::Int) {
      for (size_t I = 0; I < B.I.size(); ++I)
        Sum += static_cast<double>(B.I[I]) * static_cast<double>(I % 7 + 1);
    } else {
      for (size_t I = 0; I < B.D.size(); ++I)
        Sum += B.D[I] * static_cast<double>(I % 7 + 1);
    }
  }
  return Sum;
}

std::set<unsigned> interp::deadPrivateIds(const xform::PipelineResult &Plans) {
  std::set<unsigned> Ids;
  for (const auto &[Loop, Plan] : Plans.Plans) {
    // Runtime-conditional plans privatize the same arrays when their
    // inspection passes; after a serial fallback the contents are the
    // (well-defined) serial values, but excluding them keeps the digest
    // comparable whichever way the dispatch went.
    if (!Plan.Parallel &&
        !(Plan.RuntimeConditional && !Plan.RuntimeChecks.empty()))
      continue;
    for (const mf::Symbol *S : Plan.PrivateArrays)
      if (!Plan.LiveOutArrays.count(S))
        Ids.insert(S->id());
  }
  return Ids;
}

//===----------------------------------------------------------------------===//
// Race records
//===----------------------------------------------------------------------===//

const char *interp::raceKindName(RaceKind K) {
  switch (K) {
  case RaceKind::WriteWrite:         return "write-write";
  case RaceKind::ReadAfterWrite:     return "read-after-write";
  case RaceKind::WriteAfterRead:     return "write-after-read";
  case RaceKind::ExposedPrivateRead: return "exposed-private-read";
  case RaceKind::LastValueLoss:      return "last-value-loss";
  }
  return "?";
}

std::string RaceRecord::str() const {
  return Loop + ": " + raceKindName(Kind) + " on " + Var + "[" +
         std::to_string(Element) + "] between iterations " +
         std::to_string(IterA) + " and " + std::to_string(IterB);
}

std::string ExecStats::RuntimeDecision::str() const {
  std::string S = Loop + ": ";
  S += Pass ? "inspection passed, parallel dispatch"
            : "runtime check failed, serial fallback";
  if (Cached)
    S += " (cached verdict)";
  if (!Pass && !Detail.empty())
    S += " [" + Detail + "]";
  return S;
}

//===----------------------------------------------------------------------===//
// RuntimeCaches
//===----------------------------------------------------------------------===//

namespace iaa {
namespace interp {

/// Session-lifetime execution state: every per-loop memo that is sound
/// beyond a single run() — plus the lazily built worker pool — owned by the
/// Interpreter and borrowed by each run's Exec. Reusing these across runs is
/// what makes a daemon session cheap: the second request for a cached
/// program pays no re-inspection, no re-lowering, no thread spawns.
///
/// Soundness across runs: every run starts from a fresh Memory whose
/// version counters evolve deterministically for a fixed program and option
/// set, so version-keyed entries (inspection verdicts) hit exactly when the
/// inspected data is bit-identical to the run that populated them. The
/// purely structural memos (body weights, write sets, bytecode) depend only
/// on the AST.
class RuntimeCaches {
public:
  /// Static body-weight estimates for the profitability guard.
  std::map<const mf::DoStmt *, int64_t> BodyWeights;

  /// Cached inspection verdict for one runtime-conditional loop, valid
  /// while the bounds and every inspected array's version are unchanged.
  struct InspectionEntry {
    bool Pass = false;
    int64_t Lo = 0, Up = 0;
    std::vector<std::pair<unsigned, uint64_t>> Versions;
    std::string Detail;
  };
  std::map<const mf::DoStmt *, InspectionEntry> InspectionCache;

  /// Memoized per-loop write sets for post-join version bumps.
  std::map<const mf::DoStmt *, std::vector<const mf::Symbol *>> LoopWriteSets;
  std::optional<analysis::SymbolUses> UsesForVersions;

  /// The race checker's liveness index, built on its first query.
  std::optional<analysis::ArraySites> ArraySites;

  /// Compiled-bytecode store. Private by default; the daemon's artifact
  /// cache swaps in a per-program shared store (setBytecodeCache) so
  /// concurrent sessions of one cached program lower each loop once.
  std::shared_ptr<vm::BytecodeCache> Bytecode =
      std::make_shared<vm::BytecodeCache>();
  /// Loops whose compile outcome this session already counted in its stats
  /// (a shared store may hand us results some other session compiled).
  std::set<const mf::DoStmt *> VmSeen;

  /// Session-owned fork/join pool, created on the first threaded parallel
  /// loop without a usable ExecOptions::SharedPool; its workers park
  /// between loops and between runs.
  std::unique_ptr<WorkerPool> OwnPool;
};

} // namespace interp
} // namespace iaa

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

class Exec {
public:
  Exec(const Program &P, Memory &Mem, const ExecOptions &Opts,
       ExecStats &Stats, RuntimeCaches &Caches)
      : Prog(P), Mem(Mem), Opts(Opts), Stats(Stats), C(Caches),
        Cancel(Opts.Cancel) {}

  /// Serial tree-walk state. Workers never tree-walk, so a frame only ever
  /// lives on the thread that called run().
  struct Frame {
    /// Fault-attribution context: the innermost do loop being executed,
    /// its current iteration, and whether this is a serial replay of a
    /// rolled-back dispatch.
    const DoStmt *CurLoop = nullptr;
    int64_t CurIter = 0;
    bool InReplay = false;
  };

  void runMain() {
    const Procedure *Main = Prog.mainProcedure();
    if (!Main)
      faultAt(FaultKind::NoMain, SourceLoc{}, "program has no main body");
    Frame F;
    execBody(Main->body(), F);
  }

private:
  /// Raises a structured fault with full attribution from \p F: enclosing
  /// loop label, iteration, replay context.
  [[noreturn]] void fault(FaultKind Kind, SourceLoc Loc, const Frame &F,
                          std::string Detail, const Symbol *Sym = nullptr,
                          bool HasValue = false, int64_t Value = 0,
                          int64_t Bound = 0) {
    RuntimeFault RF;
    RF.Kind = Kind;
    RF.Loc = Loc;
    RF.Range = SourceRange(Loc);
    if (F.CurLoop) {
      RF.Loop = loopName(F.CurLoop);
      RF.HasIteration = true;
      RF.Iteration = F.CurIter;
    }
    RF.DuringReplay = F.InReplay;
    if (Sym)
      RF.Var = Sym->name();
    RF.HasValue = HasValue;
    RF.Value = Value;
    RF.Bound = Bound;
    RF.Detail = std::move(Detail);
    throw FaultException(std::move(RF));
  }

  /// Saves and restores a frame's loop-attribution context so each loop
  /// exit (normal or unwinding) re-exposes the enclosing loop's identity.
  struct LoopCtxGuard {
    Frame &F;
    const DoStmt *PrevLoop;
    int64_t PrevIter;
    explicit LoopCtxGuard(Frame &F)
        : F(F), PrevLoop(F.CurLoop), PrevIter(F.CurIter) {}
    ~LoopCtxGuard() {
      F.CurLoop = PrevLoop;
      F.CurIter = PrevIter;
    }
  };

  /// Cooperative deadline poll: raises a DeadlineExceeded fault once the
  /// run's cancel token fired. Polled at iteration granularity in every
  /// execution loop (the VM polls at the same points), so a blown
  /// deadline unwinds through the same containment machinery as any other
  /// runtime fault — workers drain, the transaction rolls back, and the
  /// caller gets a structured fault instead of a wedged thread. A no-op
  /// without a token, so untimed runs pay one null check per iteration.
  void checkCancel(SourceLoc Loc, const Frame &F) {
    if (Cancel && Cancel->cancelled())
      fault(FaultKind::DeadlineExceeded, Loc, F,
            "wall-clock deadline exceeded; run cancelled");
  }

  /// Test-only: raises the configured injected fault when the hook matches
  /// this serial (loop, iteration). A no-op without an injector, so
  /// production runs pay one null check per iteration.
  void checkInjection(const DoStmt *DS, int64_t I, const Frame &F) {
    if (!Opts.Injector)
      return;
    if (auto Inj = Opts.Injector->atIteration(DS, I, /*Worker=*/0,
                                              /*InParallel=*/false))
      fault(Inj->Kind, DS->loc(), F, Inj->Detail);
  }

  /// First-fault-wins publication slot shared by the workers of one
  /// parallel loop: every trapped fault is counted, the earliest one
  /// recorded wins attribution.
  struct FaultSlot {
    std::mutex M;
    std::optional<RuntimeFault> First;
    std::atomic<unsigned> Count{0};

    void record(RuntimeFault F) {
      Count.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(M);
      if (!First)
        First = std::move(F);
    }
  };

  /// Appends one FaultReplay remark (capped at 64) recording a rolled-back
  /// parallel loop: the trapped fault and how the rollback resolved.
  void addFaultRemark(const DoStmt *DS, const RuntimeFault &Trapped,
                      const char *Outcome, const RuntimeFault *ReplayFault) {
    if (Stats.FaultRemarks.size() >= 64)
      return;
    Remark R;
    R.Loop = loopName(DS);
    R.K = Remark::Kind::FaultReplay;
    R.Reason = Outcome;
    R.Evidence.emplace_back("fault", Trapped.str());
    if (ReplayFault)
      R.Evidence.emplace_back("replay-fault", ReplayFault->str());
    Stats.FaultRemarks.push_back(std::move(R));
  }

  /// Returns the bytecode compile result for \p DS, consulted only when the
  /// loop would otherwise fork; a bailout (R.Ok false) runs the loop
  /// serially. Compilation is memoized in the session's bytecode store —
  /// including bailouts, so a rejected loop pays the compile attempt only
  /// once no matter how many runs or (under a shared store) sessions
  /// execute it.
  const vm::CompileResult &vmProgramFor(const DoStmt *DS) {
    const vm::CompileResult &R = C.Bytecode->getOrCompile(
        DS, [&] { return vm::compileLoop(DS, Mem.extents()); });
    // Count the outcome once per *session*, not once per store insert: with
    // a shared store the compile may have happened in another session, but
    // each session still reports every distinct loop it ran on the VM.
    if (C.VmSeen.insert(DS).second)
      ++(R.Ok ? Stats.VmLoopsCompiled : Stats.VmBailouts);
    return R;
  }

  /// The fork/join pool for a \p T-worker dispatch: the shared pool when
  /// the caller provided one large enough (the daemon passes its
  /// process-wide pool so N sessions share one set of threads), else the
  /// session-owned pool, created on first use and persisted across runs.
  WorkerPool *poolFor(unsigned T) {
    if (Opts.SharedPool && Opts.SharedPool->maxWorkers() >= T)
      return Opts.SharedPool;
    if (!C.OwnPool || C.OwnPool->maxWorkers() < T)
      C.OwnPool = std::make_unique<WorkerPool>(std::max(Opts.Threads, T));
    return C.OwnPool.get();
  }

  size_t linearIndex(const mf::ArrayRef *AR, Frame &F) {
    const Symbol *S = AR->array();
    const std::vector<int64_t> &Ext = Mem.extents()[S->id()];
    size_t Idx = 0;
    for (unsigned D = 0; D < AR->rank(); ++D) {
      int64_t Sub = eval(AR->subscript(D), F).asInt();
      if (Sub < 1 || Sub > Ext[D])
        fault(FaultKind::OutOfBounds, AR->loc(), F,
              AR->rank() > 1 ? "array subscript out of bounds (dimension " +
                                   std::to_string(D + 1) + ")"
                             : "array subscript out of bounds",
              S, /*HasValue=*/true, Sub, Ext[D]);
      Idx = Idx * static_cast<size_t>(Ext[D]) + static_cast<size_t>(Sub - 1);
    }
    return Idx;
  }

  Value eval(const Expr *E, Frame &F) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return Value::ofInt(cast<IntLit>(E)->value());
    case ExprKind::RealLit:
      return Value::ofReal(cast<RealLit>(E)->value());
    case ExprKind::VarRef: {
      const Symbol *S = cast<VarRef>(E)->symbol();
      if (!Monitors.empty())
        noteRead(S, 0);
      Buffer &B = Mem.buffer(S);
      return B.Kind == ScalarKind::Int ? Value::ofInt(B.I[0])
                                       : Value::ofReal(B.D[0]);
    }
    case ExprKind::ArrayRef: {
      const auto *AR = cast<mf::ArrayRef>(E);
      Buffer &B = Mem.buffer(AR->array());
      size_t Idx = linearIndex(AR, F);
      if (!Monitors.empty())
        noteRead(AR->array(), Idx);
      return B.Kind == ScalarKind::Int ? Value::ofInt(B.I[Idx])
                                       : Value::ofReal(B.D[Idx]);
    }
    case ExprKind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      Value V = eval(UE->operand(), F);
      if (UE->op() == UnaryOp::Neg)
        return V.IsInt ? Value::ofInt(-V.I) : Value::ofReal(-V.D);
      return Value::ofInt(V.truthy() ? 0 : 1);
    }
    case ExprKind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      Value L = eval(BE->lhs(), F);
      // Short-circuit logicals.
      if (BE->op() == BinaryOp::And) {
        if (!L.truthy())
          return Value::ofInt(0);
        return Value::ofInt(eval(BE->rhs(), F).truthy() ? 1 : 0);
      }
      if (BE->op() == BinaryOp::Or) {
        if (L.truthy())
          return Value::ofInt(1);
        return Value::ofInt(eval(BE->rhs(), F).truthy() ? 1 : 0);
      }
      Value R = eval(BE->rhs(), F);
      bool BothInt = L.IsInt && R.IsInt;
      switch (BE->op()) {
      case BinaryOp::Add:
        return BothInt ? Value::ofInt(L.I + R.I)
                       : Value::ofReal(L.asReal() + R.asReal());
      case BinaryOp::Sub:
        return BothInt ? Value::ofInt(L.I - R.I)
                       : Value::ofReal(L.asReal() - R.asReal());
      case BinaryOp::Mul:
        return BothInt ? Value::ofInt(L.I * R.I)
                       : Value::ofReal(L.asReal() * R.asReal());
      case BinaryOp::Div:
        if (BothInt) {
          if (R.I == 0)
            fault(FaultKind::DivByZero, BE->loc(), F,
                  "integer division by zero");
          return Value::ofInt(L.I / R.I);
        }
        return Value::ofReal(L.asReal() / R.asReal());
      case BinaryOp::Mod:
        if (BothInt) {
          if (R.I == 0)
            fault(FaultKind::DivByZero, BE->loc(), F, "mod by zero");
          return Value::ofInt(L.I % R.I);
        }
        fault(FaultKind::Unsupported, BE->loc(), F, "mod on real operands");
      case BinaryOp::Min:
        return BothInt ? Value::ofInt(std::min(L.I, R.I))
                       : Value::ofReal(std::min(L.asReal(), R.asReal()));
      case BinaryOp::Max:
        return BothInt ? Value::ofInt(std::max(L.I, R.I))
                       : Value::ofReal(std::max(L.asReal(), R.asReal()));
      case BinaryOp::Eq:
        return Value::ofInt(BothInt ? L.I == R.I : L.asReal() == R.asReal());
      case BinaryOp::Ne:
        return Value::ofInt(BothInt ? L.I != R.I : L.asReal() != R.asReal());
      case BinaryOp::Lt:
        return Value::ofInt(BothInt ? L.I < R.I : L.asReal() < R.asReal());
      case BinaryOp::Le:
        return Value::ofInt(BothInt ? L.I <= R.I : L.asReal() <= R.asReal());
      case BinaryOp::Gt:
        return Value::ofInt(BothInt ? L.I > R.I : L.asReal() > R.asReal());
      case BinaryOp::Ge:
        return Value::ofInt(BothInt ? L.I >= R.I : L.asReal() >= R.asReal());
      case BinaryOp::And:
      case BinaryOp::Or:
        break; // Handled above.
      }
      fault(FaultKind::Unsupported, BE->loc(), F,
            "unhandled binary operator");
    }
    }
    fault(FaultKind::Unsupported, E->loc(), F, "unhandled expression kind");
  }

  void store(const Expr *Target, Value V, Frame &F) {
    if (const auto *VR = dyn_cast<VarRef>(Target)) {
      if (!Monitors.empty())
        noteWrite(VR->symbol(), 0);
      Buffer &B = Mem.buffer(VR->symbol());
      ++B.Version;
      if (B.Kind == ScalarKind::Int)
        B.I[0] = V.asInt();
      else
        B.D[0] = V.asReal();
      return;
    }
    const auto *AR = cast<mf::ArrayRef>(Target);
    Buffer &B = Mem.buffer(AR->array());
    size_t Idx = linearIndex(AR, F);
    if (!Monitors.empty())
      noteWrite(AR->array(), Idx);
    // Every tree-walk write bumps the buffer's version (inspector-cache
    // key). VM chunks do not; execDo bumps a dispatched loop's whole write
    // set once after the join instead.
    ++B.Version;
    if (B.Kind == ScalarKind::Int)
      B.I[Idx] = V.asInt();
    else
      B.D[Idx] = V.asReal();
  }

  void setScalar(const Symbol *S, int64_t V) {
    if (!Monitors.empty())
      noteWrite(S, 0);
    Buffer &B = Mem.buffer(S);
    ++B.Version;
    if (B.Kind == ScalarKind::Int)
      B.I[0] = V;
    else
      B.D[0] = static_cast<double>(V);
  }

  //===--------------------------------------------------------------------===//
  // Shadow-memory race checking (ExecOptions::RaceCheck)
  //===--------------------------------------------------------------------===//

  /// Per-element iteration tags for one plan-marked loop executing under
  /// the race checker. Accesses discharged by the plan's proof obligations
  /// (the loop index, private scalars, reduction scalars) are ignored;
  /// privatized arrays are only checked for the premises privatization
  /// rests on (no exposed reads; live-out last value written by the final
  /// iteration); everything else gets full last-writer/last-reader
  /// conflict detection.
  struct ShadowMonitor {
    static constexpr int64_t NoIter = INT64_MIN;

    std::string Label;
    int64_t CurIter = 0;
    int64_t FinalIter = 0;
    std::set<unsigned> IgnoredScalars;
    std::set<unsigned> PrivateIds;
    struct Tags {
      std::vector<int64_t> Writer;
      /// Two most recent distinct reader iterations per element — enough to
      /// catch a foreign read even when the current iteration also reads.
      std::vector<std::array<int64_t, 2>> Readers;
    };
    std::unordered_map<unsigned, Tags> Shadow;
  };

  ShadowMonitor::Tags &shadowTags(ShadowMonitor &M, const Symbol *S) {
    auto [It, Inserted] = M.Shadow.try_emplace(S->id());
    if (Inserted) {
      size_t N = Mem.buffer(S).size();
      It->second.Writer.assign(N, ShadowMonitor::NoIter);
      It->second.Readers.assign(
          N, {ShadowMonitor::NoIter, ShadowMonitor::NoIter});
    }
    return It->second;
  }

  void recordRace(const ShadowMonitor &M, const Symbol *S, size_t Idx,
                  int64_t IterA, int64_t IterB, RaceKind K) {
    ++Stats.RacesFound;
    if (Stats.Races.size() < 64)
      Stats.Races.push_back({M.Label, S->name(), Idx, IterA, IterB, K});
  }

  void noteRead(const Symbol *S, size_t Idx) {
    for (ShadowMonitor *M : Monitors) {
      if (!S->isArray() && M->IgnoredScalars.count(S->id()))
        continue;
      ShadowMonitor::Tags &T = shadowTags(*M, S);
      int64_t W = T.Writer[Idx];
      if (S->isArray() && M->PrivateIds.count(S->id())) {
        // An element written by an *earlier* iteration and read now without
        // a same-iteration write: under privatization the value depends on
        // which worker ran the earlier iteration. A never-written element
        // is benign — every worker's copy-in holds the pre-loop value.
        if (W != ShadowMonitor::NoIter && W != M->CurIter)
          recordRace(*M, S, Idx, W, M->CurIter,
                     RaceKind::ExposedPrivateRead);
        continue;
      }
      if (W != ShadowMonitor::NoIter && W != M->CurIter)
        recordRace(*M, S, Idx, W, M->CurIter, RaceKind::ReadAfterWrite);
      auto &R = T.Readers[Idx];
      if (R[0] != M->CurIter && R[1] != M->CurIter) {
        R[1] = R[0];
        R[0] = M->CurIter;
      }
    }
  }

  void noteWrite(const Symbol *S, size_t Idx) {
    for (ShadowMonitor *M : Monitors) {
      if (!S->isArray() && M->IgnoredScalars.count(S->id()))
        continue;
      ShadowMonitor::Tags &T = shadowTags(*M, S);
      if (S->isArray() && M->PrivateIds.count(S->id())) {
        T.Writer[Idx] = M->CurIter; // Tracked for the last-value check only.
        continue;
      }
      int64_t W = T.Writer[Idx];
      if (W != ShadowMonitor::NoIter && W != M->CurIter)
        recordRace(*M, S, Idx, W, M->CurIter, RaceKind::WriteWrite);
      auto &R = T.Readers[Idx];
      for (int64_t Rd : R)
        if (Rd != ShadowMonitor::NoIter && Rd != M->CurIter)
          recordRace(*M, S, Idx, Rd, M->CurIter, RaceKind::WriteAfterRead);
      R = {ShadowMonitor::NoIter, ShadowMonitor::NoIter};
      T.Writer[Idx] = M->CurIter;
    }
  }

  /// Runs a plan-marked loop serially under a fresh shadow monitor. Nested
  /// plan-marked loops push their own monitors, so every certification is
  /// checked independently. Serial order makes the run bit-identical to an
  /// unplanned execution — the checker only *observes*.
  void execDoShadow(const DoStmt *DS, const xform::LoopPlan *Plan, int64_t Lo,
                    int64_t Up, Frame &F) {
    ShadowMonitor M;
    M.Label = loopName(DS);
    M.FinalIter = Up;
    M.IgnoredScalars.insert(DS->indexVar()->id());
    for (const Symbol *S : Plan->PrivateScalars)
      M.IgnoredScalars.insert(S->id());
    for (const Symbol *S : Plan->Reductions)
      M.IgnoredScalars.insert(S->id());
    for (const Symbol *S : Plan->PrivateArrays)
      M.PrivateIds.insert(S->id());

    Monitors.push_back(&M);
    execSerial(DS, Lo, Up, /*Step=*/1, F, &M);
    Monitors.pop_back();

    // Last values. The writeback copies a live-out array's final-worker
    // buffer, so an element whose last write is not in the final iteration
    // comes back stale. A private array that a statement outside the loop
    // references (liveness derived here, not read off the plan) but that is
    // missing from LiveOutArrays gets no writeback at all: every element
    // the loop wrote is lost.
    auto CheckLastValues = [&](const Symbol *S, bool WrittenBack) {
      auto It = M.Shadow.find(S->id());
      if (It == M.Shadow.end())
        return;
      const std::vector<int64_t> &W = It->second.Writer;
      for (size_t E = 0; E < W.size(); ++E)
        if (W[E] != ShadowMonitor::NoIter && (!WrittenBack || W[E] != Up))
          recordRace(M, S, E, W[E], Up, RaceKind::LastValueLoss);
    };
    for (const Symbol *S : Plan->LiveOutArrays)
      CheckLastValues(S, /*WrittenBack=*/true);
    for (const Symbol *S : Plan->PrivateArrays)
      if (!Plan->LiveOutArrays.count(S) && liveness().referencedOutside(S, DS))
        CheckLastValues(S, /*WrittenBack=*/false);
  }

  /// The race checker's own liveness, by the rule the privatizer and the
  /// auditor apply: an array referenced by a statement outside a loop is
  /// live after it.
  const analysis::ArraySites &liveness() {
    if (!C.ArraySites) {
      if (!C.UsesForVersions)
        C.UsesForVersions.emplace(Prog);
      C.ArraySites.emplace(Prog, *C.UsesForVersions);
    }
    return *C.ArraySites;
  }

  void execBody(const StmtList &Body, Frame &F) {
    for (const Stmt *S : Body)
      execStmt(S, F);
  }

  void execStmt(const Stmt *S, Frame &F) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      store(AS->lhs(), eval(AS->rhs(), F), F);
      return;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      if (eval(IS->condition(), F).truthy())
        execBody(IS->thenBody(), F);
      else
        execBody(IS->elseBody(), F);
      return;
    }
    case StmtKind::While: {
      const auto *WS = cast<WhileStmt>(S);
      int64_t Guard = 0;
      while (eval(WS->condition(), F).truthy()) {
        checkCancel(WS->loc(), F);
        execBody(WS->body(), F);
        if (++Guard > WhileIterationGuard)
          fault(FaultKind::IterationGuard, WS->loc(), F,
                "while loop exceeded the iteration guard",
                /*Sym=*/nullptr, /*HasValue=*/true, Guard,
                WhileIterationGuard);
      }
      return;
    }
    case StmtKind::Call: {
      const auto *CS = cast<CallStmt>(S);
      if (!CS->callee())
        fault(FaultKind::UnresolvedCall, CS->loc(), F,
              "call to unresolved procedure '" + CS->calleeName() + "'");
      execBody(CS->callee()->body(), F);
      return;
    }
    case StmtKind::Do:
      execDo(cast<DoStmt>(S), F);
      return;
    }
  }

  /// Runs \p DS's iterations Lo, Lo+Step, ... through Up on the tree walk
  /// and leaves the index variable one step past the last of them. Under
  /// the race checker \p M is the loop's shadow monitor, told each
  /// iteration as it starts.
  void execSerial(const DoStmt *DS, int64_t Lo, int64_t Up, int64_t Step,
                  Frame &F, ShadowMonitor *M = nullptr) {
    LoopCtxGuard Ctx(F);
    F.CurLoop = DS;
    int64_t I = Lo;
    for (; Step > 0 ? I <= Up : I >= Up; I += Step) {
      F.CurIter = I;
      if (M)
        M->CurIter = I;
      checkCancel(DS->loc(), F);
      checkInjection(DS, I, F);
      setScalar(DS->indexVar(), I);
      execBody(DS->body(), F);
    }
    setScalar(DS->indexVar(), I);
  }

  //===--------------------------------------------------------------------===//
  // Loop invocations: execDo's four stages and the record they fill
  //===--------------------------------------------------------------------===//

  /// One loop invocation outside a serial replay. execDo's stages fill its
  /// record and hand each other the rest; the destructor folds the record
  /// into ExecStats and the profiler exactly once, so an invocation that a
  /// fault unwinds through counts like any other.
  struct Invocation {
    Exec &E;
    const DoStmt *DS;
    /// The plan the loop runs under: its static plan, or its conditional
    /// plan once the inspection passed.
    const xform::LoopPlan *Plan = nullptr;
    /// The plan-marked loop runs serially under the race checker.
    bool Shadowed = false;
    /// What the stages decided and measured, bounds and trip count first.
    prof::InvocationRecord Rec;
    unsigned ChunksRun = 0; ///< Chunks the dispenser handed out.
    /// A dispatch's transaction: the pre-dispatch snapshot of the loop's
    /// MAY-write set, each worker's private copies, and the
    /// first-fault-wins slot. Members are freed after the destructor's
    /// fold, so the loop's seconds do not time their release.
    std::vector<std::pair<const Symbol *, Buffer>> Snapshot;
    std::vector<std::unordered_map<unsigned, Buffer>> Privates;
    FaultSlot Faults;
    double AdjustAtEntry;
    Timer Clock;

    Invocation(Exec &E, const DoStmt *DS, int64_t Lo, int64_t Up,
               int64_t NIter)
        : E(E), DS(DS), AdjustAtEntry(E.VirtualAdjust) {
      Rec.Lo = Lo;
      Rec.Up = Up;
      Rec.NIter = NIter;
    }
    ~Invocation() { E.fold(*this); }

    Invocation(const Invocation &) = delete;
    Invocation &operator=(const Invocation &) = delete;
  };

  /// Counts one finished invocation: the only place a loop invocation's
  /// tier, dispatch, chunks and seconds enter ExecStats or the profiler.
  void fold(Invocation &Inv) {
    prof::InvocationRecord &R = Inv.Rec;
    R.WallSeconds = Inv.Clock.seconds();
    static constexpr unsigned ExecStats::*TierCount[] = {
        &ExecStats::DispatchStatic, &ExecStats::DispatchConditional,
        &ExecStats::DispatchSerial, &ExecStats::DispatchReplay};
    ++(Stats.*TierCount[static_cast<int>(prof::dispatchTier(R.Kind))]);
    if (!R.Workers.empty()) {
      ++Stats.ParallelLoopRuns;
      Stats.ChunksRun += Inv.ChunksRun;
    }
    for (const prof::WorkerChunks &W : R.Workers) {
      if (!W.Ran)
        continue;
      ++Stats.WorkersEngaged;
      Stats.ChunkSecondsSum += W.BusySeconds;
      Stats.ChunkSecondsMax = std::max(Stats.ChunkSecondsMax,
                                       W.MaxChunkSeconds);
    }
    if (Inv.DS->label().empty())
      return;
    Stats.LoopSeconds[Inv.DS->label()] +=
        R.WallSeconds - (VirtualAdjust - Inv.AdjustAtEntry);
    if (Opts.Prof)
      Opts.Prof->record(Inv.DS->label(), R);
  }

  void execDo(const DoStmt *DS, Frame &F) {
    int64_t Lo = eval(DS->lower(), F).asInt();
    int64_t Up = eval(DS->upper(), F).asInt();
    int64_t Step = DS->step() ? eval(DS->step(), F).asInt() : 1;
    if (Step == 0)
      fault(FaultKind::BadStep, DS->loc(), F, "do loop with zero step",
            DS->indexVar(), /*HasValue=*/true, /*Value=*/0);

    // A serial replay is accounting-invisible for nested loops: the outer
    // invocation already owns the wall time, the dispatch tier, and the
    // profiling record (attributed as a replay), so nested loops executed
    // during the replay must not re-time, re-count, re-profile, re-inspect
    // — or re-fork; the replay's contract is faithful serial re-execution.
    if (F.InReplay) {
      execSerial(DS, Lo, Up, Step, F);
      return;
    }

    int64_t NIter = Step > 0 ? (Up - Lo) / Step + 1 : (Lo - Up) / (-Step) + 1;
    Invocation Inv(*this, DS, Lo, Up, std::max<int64_t>(NIter, 0));
    const vm::LoopProgram *VmProg = decide(Inv, Step);
    if (!VmProg) {
      if (Inv.Shadowed)
        execDoShadow(DS, Inv.Plan, Lo, Up, F);
      else
        execSerial(DS, Lo, Up, Step, F);
      return;
    }

    trace::TraceScope Span("parallel-loop", "interp");
    Span.arg("loop", loopName(DS));
    Span.arg("threads", std::to_string(Inv.Rec.Threads));
    dispatch(Inv, *VmProg);
    if (Inv.Faults.Count.load(std::memory_order_relaxed)) {
      rollBack(Inv, F);
      return;
    }
    commit(Inv, F);
  }

  /// Stage 1, the dispatch decision: plan, runtime-check inspection,
  /// profitability and VM compile. Returns the bytecode to dispatch, or
  /// null when the invocation runs serially; either way Inv.Rec holds the
  /// dispatch kind and why.
  const vm::LoopProgram *decide(Invocation &Inv, int64_t Step) {
    if (!Opts.Plans || Step != 1)
      return nullptr;
    const DoStmt *DS = Inv.DS;
    prof::InvocationRecord &R = Inv.Rec;
    auto WorthForking = [&] {
      return Inv.Rec.NIter >= 2 &&
             satMul(Inv.Rec.NIter, bodyWeight(DS)) >= Opts.MinParallelWork;
    };
    Inv.Plan = Opts.Plans->planFor(DS);

    // Race checking replaces parallel execution: the plan-marked loop runs
    // serially under shadow tags, bypassing the profitability guard so
    // every certified plan is checked regardless of size. It forks
    // nothing, so it stays in the serial tier.
    if (Inv.Plan && Opts.RaceCheck && Inv.Rec.NIter >= 2) {
      Inv.Shadowed = true;
      R.Detail = "race-check: plan-marked loop forced serial";
      return nullptr;
    }

    // Inspector/executor: a statically-serial loop carrying a
    // runtime-conditional plan is inspected before its first execution and
    // dispatched only when every check passes against the actual
    // index-array contents; a failed inspection runs serially, which is
    // always sound. Race checking skips conditional plans — they are not
    // parallel-marked, so there is no certification to validate.
    bool Inspected = false;
    if (!Inv.Plan && Opts.RuntimeChecks && !Opts.RaceCheck)
      if (const xform::LoopPlan *Cond = Opts.Plans->conditionalPlanFor(DS))
        if (WorthForking()) {
          Inspected = true;
          Timer InspectTimer;
          if (inspectionPasses(DS, *Cond, Inv.Rec.Lo, Inv.Rec.Up, &R.Detail))
            Inv.Plan = Cond;
          R.InspectSeconds = InspectTimer.seconds();
          R.Kind = prof::DispatchKind::CondSerial;
        }
    if (!Inv.Plan)
      return nullptr;
    if (!Inspected && !WorthForking()) {
      R.Kind = prof::DispatchKind::SerialSmall;
      R.Detail = "below the parallel profitability threshold";
      return nullptr;
    }

    // A plan-marked loop worth forking dispatches on the VM at any thread
    // count. The compiler is consulted only here, so a bailout runs the
    // loop serially, in the tier it would have had, with the compiler's
    // reason as its dispatch detail.
    const vm::CompileResult &Compiled = vmProgramFor(DS);
    if (!Compiled.Ok) {
      R.Kind = Inspected ? prof::DispatchKind::CondSerial
                         : prof::DispatchKind::Serial;
      R.Detail = "vm bailout: " + Compiled.Bailout;
      return nullptr;
    }
    R.Kind = Inspected ? prof::DispatchKind::CondParallel
                       : prof::DispatchKind::Parallel;
    R.Threads = static_cast<unsigned>(
        std::min<int64_t>(std::max(1u, Opts.Threads), Inv.Rec.NIter));
    return &Compiled.Prog;
  }

  /// Stage 2, the dispatch: open the transaction by snapshotting the
  /// loop's MAY-write set, then run the chunk loop, threaded or simulated,
  /// with every chunk as bytecode. A worker fault is trapped into
  /// Inv.Faults and cancels the dispenser, so siblings drain at chunk
  /// granularity instead of racing a dying loop.
  void dispatch(Invocation &Inv, const vm::LoopProgram &VmProg) {
    unsigned T = Inv.Rec.Threads;
    Inv.Rec.Workers.resize(T);
    Inv.Privates.resize(T);

    // Fault containment: under Report/Replay the dispatch is a transaction.
    // Snapshot every buffer the loop MAY write (the conservative
    // SymbolUses-derived write set — sound even when the plan under test
    // was mutated) so a trapped worker fault can roll the loop back to its
    // pre-dispatch state. Abort keeps the legacy no-snapshot semantics.
    if (Opts.OnFault != FaultAction::Abort)
      for (const Symbol *S : loopWriteSet(Inv.DS))
        Inv.Snapshot.emplace_back(S, Mem.buffer(S));

    ChunkDispenser Disp(Inv.Rec.Lo, Inv.Rec.Up, T);
    if (Opts.Simulate) {
      runSimulated(Inv, VmProg, Disp);
    } else {
      poolFor(T)->run(T, [&](unsigned W) {
        // Nothing may escape this lambda: an exception crossing into
        // WorkerPool::workerLoop would std::terminate the process. A
        // structured fault is trapped and published first-fault-wins;
        // anything else becomes an Internal fault.
        int64_t First, Last;
        unsigned ChunkId;
        try {
          while (Disp.next(First, Last, ChunkId))
            runChunk(Inv, VmProg, W, First, Last, ChunkId);
        } catch (FaultException &FE) {
          Inv.Faults.record(std::move(FE.Fault));
          Disp.cancel();
        } catch (const std::exception &Ex) {
          RuntimeFault RF;
          RF.Kind = FaultKind::Internal;
          RF.Loop = loopName(Inv.DS);
          RF.Worker = W;
          RF.InParallel = true;
          RF.Detail = Ex.what();
          Inv.Faults.record(std::move(RF));
          Disp.cancel();
        }
      });
    }
    Inv.ChunksRun = Disp.chunksDispensed();
  }

  /// Stage 2's simulated chunk loop. It models the dispenser the threaded
  /// path runs by greedy list scheduling on per-worker virtual clocks: the
  /// next chunk goes to the worker whose clock is lowest, exactly how a
  /// free thread is the one that grabs from the dispenser. The loop's
  /// virtual cost is the busiest worker's clock plus a fork/join overhead
  /// of 50 us + 3 us per worker.
  void runSimulated(Invocation &Inv, const vm::LoopProgram &VmProg,
                    ChunkDispenser &Disp) {
    unsigned T = Inv.Rec.Threads;
    std::vector<double> Clock(T, 0.0);
    int64_t First, Last;
    unsigned ChunkId;
    while (Disp.next(First, Last, ChunkId)) {
      unsigned W = static_cast<unsigned>(
          std::min_element(Clock.begin(), Clock.end()) - Clock.begin());
      // Simulated workers fault exactly like threaded ones: trap, publish
      // first-fault-wins, cancel the dispenser.
      try {
        Clock[W] += runChunk(Inv, VmProg, W, First, Last, ChunkId);
      } catch (FaultException &FE) {
        Inv.Faults.record(std::move(FE.Fault));
        Disp.cancel();
      }
    }
    double SumChunks = 0, MaxClock = 0;
    for (unsigned W = 0; W < T; ++W) {
      SumChunks += Clock[W];
      MaxClock = std::max(MaxClock, Clock[W]);
    }
    // One worker runs inline and forks nothing, as WorkerPool::run(1) does
    // on the threaded path, so it pays no fork/join overhead.
    double Overhead = T > 1 ? 50e-6 + 3e-6 * T : 0.0;
    VirtualAdjust += SumChunks - (MaxClock + Overhead);
  }

  /// Runs one dispensed chunk on worker \p W as bytecode and notes it in
  /// the worker's summary; returns its seconds, including the first
  /// chunk's private-copy construction (it parallelizes too). Each worker
  /// touches only its own slots, so the threaded path needs no
  /// synchronization beyond the dispenser and the join.
  double runChunk(Invocation &Inv, const vm::LoopProgram &VmProg, unsigned W,
                  int64_t First, int64_t Last, unsigned ChunkId) {
    trace::TraceScope ChunkSpan("chunk", "interp");
    prof::WorkerChunks &WC = Inv.Rec.Workers[W];
    Timer CT;
    if (!WC.Ran) {
      WC.FirstStartSeconds = Inv.Clock.seconds();
      buildPrivates(*Inv.Plan, Inv.DS, Inv.Privates[W]);
      WC.Ran = true;
    }
    vm::ChunkContext VC;
    VC.Mem = &Mem;
    VC.Overrides = &Inv.Privates[W];
    VC.First = First;
    VC.Last = Last;
    VC.Worker = W;
    VC.Injector = Opts.Injector;
    VC.Cancel = Cancel;
    vm::runChunk(VmProg, VC);
    double Secs = CT.seconds();
    if (WC.Chunks++ == 0)
      WC.FirstIter = First;
    WC.LastIter = Last;
    WC.BusySeconds += Secs;
    WC.MaxChunkSeconds = std::max(WC.MaxChunkSeconds, Secs);
    if (ChunkSpan.active()) {
      ChunkSpan.arg("worker", std::to_string(W));
      ChunkSpan.arg("chunk", std::to_string(ChunkId));
      ChunkSpan.arg("first", std::to_string(First));
      ChunkSpan.arg("last", std::to_string(Last));
    }
    return Secs;
  }

  /// A worker's private copies, built on its first dispensed chunk: the
  /// index variable, private scalars and arrays copied in, reductions
  /// zeroed. A worker that never runs a chunk builds none, so an idle
  /// worker can never corrupt post-loop state.
  void buildPrivates(const xform::LoopPlan &Plan, const DoStmt *DS,
                     std::unordered_map<unsigned, Buffer> &Map) {
    auto AddPrivate = [&](const Symbol *S) {
      Map.emplace(S->id(), Mem.buffer(S)); // Copy-in.
    };
    AddPrivate(DS->indexVar());
    for (const Symbol *S : Plan.PrivateScalars)
      AddPrivate(S);
    for (const Symbol *S : Plan.PrivateArrays)
      AddPrivate(S);
    for (const Symbol *S : Plan.Reductions) {
      Buffer Zero = Mem.buffer(S);
      if (Zero.Kind == ScalarKind::Int)
        Zero.I.assign(Zero.I.size(), 0);
      else
        Zero.D.assign(Zero.D.size(), 0.0);
      Map.emplace(S->id(), std::move(Zero));
    }
  }

  /// Stage 3, after a worker fault: the torn parallel state must not be
  /// merged. Restore the snapshot, then report the fault or replay the
  /// loop serially; returns only when the replay recovered.
  void rollBack(Invocation &Inv, Frame &F) {
    const DoStmt *DS = Inv.DS;
    Stats.WorkerFaults += Inv.Faults.Count.load(std::memory_order_relaxed);
    RuntimeFault First = std::move(*Inv.Faults.First);
    // Abort: no snapshot exists, shared state is possibly torn. Propagate
    // and let the driver decide whether to kill the process.
    if (Opts.OnFault == FaultAction::Abort)
      throw FaultException(std::move(First));

    // Restore every MAY-written buffer, version counter included. The
    // restored bytes are exactly the pre-loop bytes, so inspector verdicts
    // cached against the snapshot version are still valid — bumping the
    // version here would spuriously re-run inspections after every
    // recovered fault.
    Timer RollbackTimer;
    for (auto &[S, Buf] : Inv.Snapshot) {
      uint64_t V = Buf.Version;
      Mem.buffer(S) = std::move(Buf);
      Mem.buffer(S).Version = V;
    }
    Inv.Rec.RollbackSeconds = RollbackTimer.seconds();
    ++Stats.FaultRollbacks;

    // Resource-limit faults (deadline, memory budget) are never replayed,
    // whatever the policy: serially re-running the loop cannot un-blow a
    // budget — it would just burn the daemon's wall clock a second time.
    // Rollback-and-report preserves the transactional guarantee.
    if (Opts.OnFault == FaultAction::Report ||
        faultIsResourceLimit(First.Kind)) {
      Inv.Rec.Detail = "worker fault: rolled back, reported";
      addFaultRemark(DS, First, "rolled back, reported", nullptr);
      throw FaultException(std::move(First));
    }

    // Replay: serial tree-walk re-execution of the rolled-back loop. It
    // either reproduces the fault with exact serial attribution, or
    // completes correctly — proving the fault an artifact of the dispatch
    // (e.g. damage done by a mis-certified plan, or an injected
    // parallel-only fault). The invocation counts in the replay tier only.
    ++Stats.FaultReplays;
    Inv.Rec.Kind = prof::DispatchKind::Replay;
    Frame FR = F;
    FR.InReplay = true;
    Timer ReplayTimer;
    try {
      execSerial(DS, Inv.Rec.Lo, Inv.Rec.Up, /*Step=*/1, FR);
    } catch (FaultException &FE) {
      Inv.Rec.ReplaySeconds = ReplayTimer.seconds();
      Inv.Rec.Detail = "worker fault: replay reproduced the fault";
      addFaultRemark(DS, First, "replay reproduced the fault", &FE.Fault);
      throw;
    }
    Inv.Rec.ReplaySeconds = ReplayTimer.seconds();
    Inv.Rec.Detail = "worker fault: replay recovered";
    ++Stats.FaultReplaysRecovered;
    addFaultRemark(DS, First, "replay recovered", nullptr);
  }

  /// Stage 4, after a clean join: merge the reduction partials, write back
  /// the private copies of the worker that ran the final iteration
  /// (Fortran's last-value semantics), and bump the write set's versions.
  void commit(Invocation &Inv, const Frame &F) {
    const xform::LoopPlan &Plan = *Inv.Plan;
    const std::vector<prof::WorkerChunks> &Workers = Inv.Rec.Workers;
    // Merge reductions: global += sum of partials of the workers that ran.
    for (const Symbol *S : Plan.Reductions) {
      Buffer &G = Mem.buffer(S);
      for (unsigned W = 0; W < Workers.size(); ++W) {
        if (!Workers[W].Ran)
          continue;
        const Buffer &Part = Inv.Privates[W].at(S->id());
        if (G.Kind == ScalarKind::Int)
          G.I[0] += Part.I[0];
        else
          G.D[0] += Part.D[0];
      }
    }

    // Chunks are dispensed in increasing iteration order from one cursor,
    // so exactly one worker's highest iteration is Up.
    const std::unordered_map<unsigned, Buffer> *Final = nullptr;
    for (unsigned W = 0; W < Workers.size(); ++W)
      if (Workers[W].Ran && Workers[W].LastIter == Inv.Rec.Up)
        Final = &Inv.Privates[W];
    if (!Final)
      fault(FaultKind::Internal, Inv.DS->loc(), F,
            "no worker executed the final iteration");
    for (const Symbol *S : Plan.PrivateScalars)
      Mem.buffer(S) = Final->at(S->id());
    for (const Symbol *S : Plan.PrivateArrays)
      Mem.buffer(S) = Final->at(S->id());
    setScalar(Inv.DS->indexVar(), Inv.Rec.Up + 1);

    // VM chunks skip the per-write version bumps (they would race); bump
    // everything the loop writes once, after the join and the writebacks,
    // so inspector-cache entries keyed on these arrays are invalidated.
    if (Opts.RuntimeChecks)
      bumpWriteSetVersions(Inv.DS);
  }

  /// Static work estimate of one statement: assignments count 1, nested
  /// loops are assumed to run 16 iterations. Used by the profitability
  /// guard for parallel loops.
  int64_t stmtWeight(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Assign:
      return 1;
    case StmtKind::Call: {
      const auto *CS = cast<CallStmt>(S);
      int64_t W = 1;
      for (const Stmt *Sub : CS->callee()->body())
        W += stmtWeight(Sub);
      return W;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      int64_t WT = 0, WE = 0;
      for (const Stmt *Sub : IS->thenBody())
        WT += stmtWeight(Sub);
      for (const Stmt *Sub : IS->elseBody())
        WE += stmtWeight(Sub);
      return 1 + std::max(WT, WE);
    }
    case StmtKind::Do: {
      int64_t W = 0;
      for (const Stmt *Sub : cast<DoStmt>(S)->body())
        W = satAdd(W, stmtWeight(Sub));
      return satAdd(2, satMul(16, W));
    }
    case StmtKind::While: {
      int64_t W = 0;
      for (const Stmt *Sub : cast<WhileStmt>(S)->body())
        W = satAdd(W, stmtWeight(Sub));
      return satAdd(2, satMul(16, W));
    }
    }
    return 1;
  }

  int64_t bodyWeight(const DoStmt *DS) {
    auto [It, Inserted] = C.BodyWeights.try_emplace(DS, 0);
    if (Inserted)
      for (const Stmt *Sub : DS->body())
        It->second = satAdd(It->second, stmtWeight(Sub));
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Runtime-check inspection (ExecOptions::RuntimeChecks)
  //===--------------------------------------------------------------------===//

  /// The symbols the loop body MAY write (transitively through calls) plus
  /// the index variable, memoized per loop. This conservative set backs
  /// both the post-join version bumps and the transactional snapshot of
  /// the fault-containment path.
  const std::vector<const Symbol *> &loopWriteSet(const DoStmt *DS) {
    if (!C.UsesForVersions)
      C.UsesForVersions.emplace(Prog);
    auto [It, Inserted] = C.LoopWriteSets.try_emplace(DS);
    if (Inserted) {
      analysis::UseSet U = C.UsesForVersions->bodyUses(DS->body());
      It->second.assign(U.Writes.begin(), U.Writes.end());
      It->second.push_back(DS->indexVar());
    }
    return It->second;
  }

  /// Bumps the version counter of every symbol in the loop's write set.
  void bumpWriteSetVersions(const DoStmt *DS) {
    for (const Symbol *S : loopWriteSet(DS))
      ++Mem.buffer(S).Version;
  }

  void recordDecision(const DoStmt *DS, bool Cached, bool DidPass,
                      const std::string &Detail) {
    ++(Cached ? Stats.InspectionsCached : Stats.InspectionsRun);
    if (!DidPass)
      ++Stats.RuntimeCheckFails;
    if (Stats.RuntimeDecisions.size() < 64)
      Stats.RuntimeDecisions.push_back({loopName(DS), Cached, DidPass, Detail});
  }

  /// Decides whether the runtime-conditional \p Plan may dispatch \p DS in
  /// parallel for iterations [Lo, Up]. Verdicts are cached per loop, keyed
  /// on the bounds and the version counters of every inspected index
  /// array; any write to one of them (serial stores bump inline, parallel
  /// loops bump their write set after the join) forces a re-inspection.
  bool inspectionPasses(const DoStmt *DS, const xform::LoopPlan &Plan,
                        int64_t Lo, int64_t Up,
                        std::string *DetailOut = nullptr) {
    // Test-only: a lying inspector vouches for the loop without scanning,
    // so containment of the resulting faults (a parallel dispatch the data
    // does not support) can be exercised end to end.
    if (Opts.Injector && Opts.Injector->skipInspection(DS)) {
      recordDecision(DS, /*Cached=*/false, /*DidPass=*/true,
                     "inspection skipped by fault injector");
      return true;
    }
    // The bounds-within check reads only the bounded array's *extent*
    // (fixed for the run), so data writes to it must not invalidate the
    // cache — only Index/Length contents participate in the key.
    std::vector<std::pair<unsigned, uint64_t>> Versions;
    for (const auto &C : Plan.RuntimeChecks)
      for (const Symbol *S : {C.Index, C.Length})
        if (S)
          Versions.emplace_back(S->id(), Mem.buffer(S).Version);
    std::sort(Versions.begin(), Versions.end());
    Versions.erase(std::unique(Versions.begin(), Versions.end()),
                   Versions.end());

    auto [It, Inserted] = C.InspectionCache.try_emplace(DS);
    RuntimeCaches::InspectionEntry &E = It->second;
    if (!Inserted && E.Lo == Lo && E.Up == Up && E.Versions == Versions) {
      recordDecision(DS, /*Cached=*/true, E.Pass, E.Detail);
      if (DetailOut)
        *DetailOut = E.Detail;
      return E.Pass;
    }

    trace::TraceScope Span("inspect", "interp");
    if (Span.active())
      Span.arg("loop", loopName(DS));
    // The inspection scans parallelize on the same pool the loop itself
    // would use; in simulate mode they run on the calling thread.
    WorkerPool *InsPool = nullptr;
    if (!Opts.Simulate && Opts.Threads > 1)
      InsPool = poolFor(Opts.Threads);
    E.Pass = true;
    E.Detail.clear();
    for (const auto &C : Plan.RuntimeChecks) {
      InspectionOutcome O =
          inspectRuntimeCheck(C, Mem, Lo, Up, InsPool, Opts.Threads);
      if (!O.Pass) {
        E.Pass = false;
        E.Detail = C.str() + ": " + O.Detail;
        break;
      }
    }
    E.Lo = Lo;
    E.Up = Up;
    E.Versions = std::move(Versions);
    if (Span.active())
      Span.arg("verdict", E.Pass ? "pass" : "fail");
    recordDecision(DS, /*Cached=*/false, E.Pass, E.Detail);
    if (DetailOut)
      *DetailOut = E.Detail;
    return E.Pass;
  }

public:
  /// Seconds of serialized surplus from simulated parallel loops; the
  /// virtual run time is wall time minus this.
  double VirtualAdjust = 0;

private:
  const Program &Prog;
  Memory &Mem;
  const ExecOptions &Opts;
  /// The run's counters: the caller's ExecStats, or a run-local one.
  /// Interpreter::run publishes the statistics and the fault summary from
  /// it.
  ExecStats &Stats;
  /// Session-lifetime per-loop caches and pool (owned by Interpreter).
  RuntimeCaches &C;
  /// The run's cooperative deadline token (null when untimed).
  const CancelToken *Cancel;

  /// Active shadow monitors, innermost last (non-empty only under
  /// ExecOptions::RaceCheck, inside plan-marked loops).
  std::vector<ShadowMonitor *> Monitors;
};

} // namespace

Interpreter::Interpreter(const mf::Program &P)
    : Prog(P), Caches(std::make_unique<RuntimeCaches>()) {}

Interpreter::~Interpreter() = default;

void Interpreter::setBytecodeCache(std::shared_ptr<vm::BytecodeCache> Cache) {
  Caches->Bytecode =
      Cache ? std::move(Cache) : std::make_shared<vm::BytecodeCache>();
  // Stats are counted once per session per loop; a new store means results
  // this session has not yet accounted for.
  Caches->VmSeen.clear();
}

Memory Interpreter::run(const ExecOptions &Opts, ExecStats *Stats) {
  ExecStats Local;
  ExecStats &S = Stats ? *Stats : Local;
  if (Opts.Engine == ExecEngine::Both) {
    // Differential oracle: run the whole program as the plan-free serial
    // tree walk first (unprofiled and unpublished — observation belongs to
    // the run under test), then on the VM with the caller's plans and
    // stats, and demand agreement.
    ExecOptions RefOpts = Opts;
    RefOpts.Plans = nullptr;
    RefOpts.Engine = ExecEngine::Vm;
    RefOpts.Prof = nullptr;
    ExecStats RefStats;
    Memory RefMem = execute(RefOpts, RefStats);
    FaultState RefFault = LastFault;

    ExecOptions VmOpts = Opts;
    VmOpts.Engine = ExecEngine::Vm;
    Memory VmMem = run(VmOpts, &S);

    ++S.BothComparisons;
    std::string Why;
    if (RefFault.Faulted || LastFault.Faulted) {
      // A terminal fault leaves memory at the fault point, which legally
      // differs across engines (chunk interleavings); the contract there
      // is agreement on the fault *kind* only.
      if (RefFault.Faulted != LastFault.Faulted)
        Why = std::string("terminal fault on the ") +
              (RefFault.Faulted ? "serial tree walk" : "vm run") + " only";
      else if (RefFault.Fault.Kind != LastFault.Fault.Kind)
        Why = std::string("fault kind serial=") +
              faultKindName(RefFault.Fault.Kind) +
              " vm=" + faultKindName(LastFault.Fault.Kind);
    } else {
      std::set<unsigned> Dead =
          Opts.Plans ? deadPrivateIds(*Opts.Plans) : std::set<unsigned>{};
      double A = RefMem.checksumExcluding(Dead);
      double B = VmMem.checksumExcluding(Dead);
      if (std::memcmp(&A, &B, sizeof(double)) != 0)
        Why = "final-memory checksum serial=" + std::to_string(A) +
              " vm=" + std::to_string(B);
    }
    if (!Why.empty()) {
      ++S.BothMismatches;
      LastFault.Faulted = true;
      ++LastFault.FaultsObserved;
      LastFault.Fault = RuntimeFault{};
      LastFault.Fault.Kind = FaultKind::Internal;
      LastFault.Fault.Detail = "engine divergence: " + Why;
    }
    return VmMem;
  }
  Memory Mem = execute(Opts, S);
  publish(S, LastFault);
  return Mem;
}

Memory Interpreter::execute(const ExecOptions &Opts, ExecStats &S) {
  trace::TraceScope Span("interp-run", "interp");
  Span.arg("threads", std::to_string(Opts.Threads));
  Span.arg("mode", Opts.Simulate ? "simulate" : "threaded");
  S = ExecStats{};
  LastFault = FaultState{};
  Timer Total;
  Memory Mem;
  std::optional<Exec> E;
  // A program-level fault (bad extent during allocation, a serial fault,
  // a parallel fault the policy chose to propagate) unwinds to here —
  // never out of run(), never to std::abort. The returned memory holds the
  // state at the fault; rolled-back loops were already restored.
  try {
    Mem = Memory(Prog, Opts.MemLimitBytes);
    E.emplace(Prog, Mem, Opts, S, *Caches);
    E->runMain();
  } catch (FaultException &FE) {
    LastFault.Faulted = true;
    LastFault.Fault = std::move(FE.Fault);
    if (Span.active())
      Span.arg("fault", faultKindName(LastFault.Fault.Kind));
  }
  S.WallSeconds = Total.seconds();
  S.TotalSeconds = S.WallSeconds - (E ? E->VirtualAdjust : 0.0);
  return Mem;
}
