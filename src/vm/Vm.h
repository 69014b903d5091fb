//===- vm/Vm.h - Register-bytecode executor for loop chunks -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a LoopProgram over one dispensed iteration chunk. It is the
/// only thing the interpreter's workers run (RunChunk calls it at every
/// thread count); the surrounding machinery — WorkerPool, ChunkDispenser,
/// privatization overrides, fault containment — stays in the interpreter.
/// Against the tree walk it saves the per-node dispatch and Value boxing:
/// slot pointers and extents are resolved once per chunk (override else
/// shared buffer), loop invariants run once per chunk in the program's
/// prologue, and the dispatch is direct-threaded over register-resident
/// state, with Halt as the iteration's back edge. Faults raise the same
/// structured FaultException the serial tree walk would, so the trap /
/// rollback / serial-replay pipeline works on VM chunks unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_VM_VM_H
#define IAA_VM_VM_H

#include "interp/Interpreter.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <unordered_map>

namespace iaa {

namespace vm {

/// Everything one chunk execution needs from the interpreter's dispatch
/// context. Pointers alias interpreter-owned state; the VM only reads the
/// configuration and writes through the resolved buffers.
struct ChunkContext {
  interp::Memory *Mem = nullptr;
  /// The worker's privatization overrides (null when none).
  std::unordered_map<unsigned, interp::Buffer> *Overrides = nullptr;
  int64_t First = 0; ///< Chunk bounds, inclusive.
  int64_t Last = 0;
  unsigned Worker = 0;
  /// Test-only fault injection (null in production).
  const interp::FaultInjectionHook *Injector = nullptr;
  /// The run's deadline token (null without a deadline), polled at every
  /// outer iteration and loop back-edge, where the tree walk polls.
  const interp::CancelToken *Cancel = nullptr;
};

/// Runs \p Prog for every iteration of the chunk described by \p C.
/// Faults — bounds, div-by-zero, bad step, while iteration guard, deadline,
/// injected — throw FaultException with the same attribution the tree walk
/// produces.
void runChunk(const LoopProgram &Prog, const ChunkContext &C);

} // namespace vm
} // namespace iaa

#endif // IAA_VM_VM_H
