//===- interp/Fault.h - Structured runtime faults ---------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-containment vocabulary of the runtime. A program-level error
/// observed while interpreting MF code — an out-of-bounds subscript, a
/// division by zero, a bad array extent — is never a process abort: it is a
/// RuntimeFault value carrying the fault kind, the faulting source location,
/// the enclosing loop and iteration, the worker that hit it, and the
/// offending value. Serial faults unwind to the per-invocation FaultState of
/// the interpreter; faults inside parallel workers are trapped locally,
/// published first-fault-wins, and — under FaultAction::Replay — the loop's
/// shared write set is rolled back from a pre-dispatch snapshot and the loop
/// is re-executed serially, in the restoration-and-serial-re-execution mould
/// of the LRPD test's failed-check path.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_INTERP_FAULT_H
#define IAA_INTERP_FAULT_H

#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>

namespace iaa {
namespace mf {
class DoStmt;
} // namespace mf

namespace interp {

/// What went wrong. Every kind is a *program-level* fault: the interpreted
/// MF program did something undefined, not the runtime itself (Internal is
/// the one exception and flags a violated runtime invariant).
enum class FaultKind {
  OutOfBounds,    ///< Array subscript outside the declared extent.
  DivByZero,      ///< Integer division or mod by zero (incl. in extents).
  BadExtent,      ///< Non-positive, non-constant, or overflowing extent.
  BadStep,        ///< Do loop with a zero step.
  IterationGuard, ///< While loop exceeded the runaway-iteration guard.
  NoMain,         ///< Program has no main body to execute.
  UnresolvedCall, ///< Call to a procedure that was never resolved.
  Unsupported,    ///< Construct the interpreter cannot evaluate.
  Injected,       ///< Synthesized by the fault injector (tests only).
  Internal,       ///< Runtime invariant violation — a bug in the runtime.
  DeadlineExceeded,  ///< Wall-clock deadline fired; the run was cancelled
                     ///< cooperatively (dispenser drain + rollback).
  ResourceExhausted, ///< Memory budget exceeded at allocation time.
};

/// The runaway guard behind FaultKind::IterationGuard: one entry into a
/// `while` statement may run this many body iterations; finishing the next
/// one faults with Value = the count reached and Bound = this limit. The
/// tree walk and the VM's back-edge op both test against it, so the two
/// engines trip on the same iteration.
constexpr int64_t WhileIterationGuard = 100000000;

const char *faultKindName(FaultKind K);

/// True for fault kinds that describe an exhausted *request* (deadline,
/// memory budget) rather than misbehaving program semantics. Replaying such
/// a fault serially cannot recover it — the budget stays blown — so the
/// runtime takes the rollback-and-report path even under
/// FaultAction::Replay.
inline bool faultIsResourceLimit(FaultKind K) {
  return K == FaultKind::DeadlineExceeded || K == FaultKind::ResourceExhausted;
}

/// Cooperative cancellation flag shared between a watchdog (the daemon's
/// deadline scanner, mfpar's --deadline-ms thread) and the interpreter.
/// cancel() is sticky; both engines poll cancelled() at every loop iteration
/// and while back-edge and raise a DeadlineExceeded fault through the normal
/// containment path (first-fault-wins publication, dispenser drain,
/// write-set rollback), so a cancelled request leaves memory in its
/// pre-loop state exactly like any other contained fault.
class CancelToken {
public:
  void cancel() { Flag.store(true, std::memory_order_release); }
  bool cancelled() const { return Flag.load(std::memory_order_acquire); }

private:
  std::atomic<bool> Flag{false};
};

/// One contained runtime fault, with enough context to act on it: where in
/// the source, in which loop and iteration, on which worker, and what value
/// violated what bound.
struct RuntimeFault {
  FaultKind Kind = FaultKind::Internal;
  /// Faulting source position (the subscript, divisor, extent, ...).
  SourceLoc Loc;
  /// Optional wider span; Loc remains the anchor.
  SourceRange Range;
  /// Label of the innermost enclosing do loop ("<unlabeled>" for an
  /// unlabeled one, empty outside any loop).
  std::string Loop;
  /// Iteration of that loop that faulted (valid when HasIteration).
  bool HasIteration = false;
  int64_t Iteration = 0;
  /// Worker that trapped the fault (0 for serial execution).
  unsigned Worker = 0;
  /// True when the fault was trapped inside a parallel chunk.
  bool InParallel = false;
  /// True when the fault was raised by the serial replay of a rolled-back
  /// parallel loop — the attribution is then exact serial semantics.
  bool DuringReplay = false;
  /// Offending symbol (subscripted array, divisor's store, ...), if any.
  std::string Var;
  /// Offending value (subscript, extent, step) when HasValue is set, and
  /// the bound it violated (array extent, guard limit) when nonzero.
  bool HasValue = false;
  int64_t Value = 0;
  int64_t Bound = 0;
  /// Human-readable specifics beyond the structured fields.
  std::string Detail;

  /// "out-of-bounds subscript 11 of x (extent 10) at 6:5 in loop 'lp'
  /// iteration 11 [worker 2]" — the full diagnostic line.
  std::string str() const;

  /// The message part of str() without the source position (which the
  /// Diagnostic carries structurally).
  std::string message() const;

  /// Renders the fault as an error diagnostic anchored at Loc.
  Diagnostic toDiagnostic() const;
};

/// Per-invocation fault summary of one Interpreter::run. A run that faulted
/// terminally has Faulted set and Fault holding the authoritative fault; a
/// run that contained and recovered every fault (serial replay completed)
/// reports the counters but leaves Faulted clear.
struct FaultState {
  /// The run ended on an unrecovered fault; Fault is authoritative.
  bool Faulted = false;
  RuntimeFault Fault;
  /// Faults trapped anywhere during the run, including losers of the
  /// first-fault-wins race and faults later recovered by replay.
  unsigned FaultsObserved = 0;
  /// Parallel-loop transactions rolled back after a worker fault.
  unsigned Rollbacks = 0;
  /// Serial replays attempted after a rollback, and how many completed
  /// cleanly (the fault was an artifact of parallel execution).
  unsigned Replays = 0;
  unsigned ReplaysRecovered = 0;

  /// One-line summary for logs and tests.
  std::string str() const;
};

/// What the runtime does when a parallel worker faults.
enum class FaultAction {
  /// Propagate the first fault immediately with no rollback: shared state
  /// may be torn, exactly like the historical abort-from-a-worker behavior
  /// (the process-level abort itself is the driver's decision; the
  /// interpreter always unwinds cleanly).
  Abort,
  /// Roll the loop's shared write set back to the pre-dispatch snapshot,
  /// then propagate the fault.
  Report,
  /// Roll back, then re-execute the loop serially: the replay either
  /// reproduces the fault with exact serial attribution or completes
  /// correctly when the fault was an artifact of parallel execution (e.g.
  /// a stale runtime-check verdict). The default.
  Replay,
};

const char *faultActionName(FaultAction A);

/// Parses "abort" / "report" / "replay"; false on anything else.
bool parseFaultAction(const std::string &Name, FaultAction &Out);

/// The unwinding vehicle for contained faults. Thrown at the fault site,
/// caught at the worker boundary (parallel context) or in Interpreter::run
/// (serial context); it never escapes the interpreter.
class FaultException final : public std::exception {
public:
  explicit FaultException(RuntimeFault F) : Fault(std::move(F)) {}

  const char *what() const noexcept override { return "iaa runtime fault"; }

  RuntimeFault Fault;
};

/// A fault to synthesize at an injection point (see FaultInjectionHook).
struct InjectedFault {
  FaultKind Kind = FaultKind::Injected;
  std::string Detail;
};

/// Test-only hook the interpreter consults when ExecOptions::Injector is
/// set: it can force a fault at a chosen (loop, iteration, worker) and lie
/// about inspections so the containment machinery can be exercised
/// deterministically. Called concurrently from workers — implementations
/// must be immutable during a run.
class FaultInjectionHook {
public:
  virtual ~FaultInjectionHook() = default;

  /// Consulted at the top of every loop iteration; a returned fault is
  /// raised at that point as if the body had faulted.
  virtual std::optional<InjectedFault>
  atIteration(const mf::DoStmt *Loop, int64_t Iteration, unsigned Worker,
              bool InParallel) const = 0;

  /// True to skip the runtime-check inspection of \p Loop and dispatch
  /// parallel unconditionally (a lying inspector / stale verdict).
  virtual bool skipInspection(const mf::DoStmt *Loop) const = 0;
};

} // namespace interp
} // namespace iaa

#endif // IAA_INTERP_FAULT_H
