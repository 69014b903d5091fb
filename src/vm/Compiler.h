//===- vm/Compiler.h - AST-to-bytecode lowering for loop plans --*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the body of a certified do loop to register bytecode
/// (vm/Bytecode.h): assignments, ifs, nested do and while loops, and calls
/// (inlined). A while keeps the tree walk's runaway guard and deadline
/// polls in one back-edge op. A scalar is loaded once per straight-line
/// stretch, integer e +- c takes c as an immediate, and constants and loads
/// of scalars the loop never stores move into a once-per-chunk prologue
/// (LoopProgram::BodyStart). The compiler is deliberately conservative:
/// anything it cannot lower with bit-identical semantics — unresolved or
/// recursive calls, mod on real operands, non-integer index variables — is
/// a *bailout*, and the loop runs serially on the tree-walking interpreter.
/// Bailing out is always correct; compiling is only a speed change, never a
/// semantic one (the differential oracle in --engine=both enforces exactly
/// that). The interpreter compiles a loop the first time a plan would fork
/// it, and BytecodeCache memoizes the outcome, bailouts included.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_VM_COMPILER_H
#define IAA_VM_COMPILER_H

#include "vm/Bytecode.h"

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace iaa {
namespace vm {

/// Outcome of one lowering attempt: a runnable program, or the reason the
/// loop must stay on the interpreter.
struct CompileResult {
  bool Ok = false;
  LoopProgram Prog;
  std::string Bailout; ///< Why the loop cannot lower (empty when Ok).
};

/// Lowers the body of \p DS against \p DimExtents (per-symbol declared
/// extents indexed by symbol id: interp::Memory::extents(), the table the
/// interpreter's subscript linearization reads too).
CompileResult compileLoop(const mf::DoStmt *DS,
                          const std::vector<std::vector<int64_t>> &DimExtents);

/// Memoized compile results (successes *and* bailouts), keyed per loop.
/// One interpreter session owns a private store by default; the mfpard
/// artifact cache shares one store per cached program across sessions, so
/// a loop is lowered once no matter how many concurrent sessions run it.
/// Thread-safe; entry addresses are stable for the cache's lifetime.
class BytecodeCache {
public:
  /// Returns the memoized result for \p DS, invoking \p Compile under the
  /// cache lock on first use (duplicate concurrent compiles are thereby
  /// impossible; lowering is fast relative to execution).
  const CompileResult &
  getOrCompile(const mf::DoStmt *DS,
               const std::function<CompileResult()> &Compile) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Cache.find(DS);
    if (It == Cache.end())
      It = Cache.emplace(DS, Compile()).first;
    return It->second;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Cache.size();
  }

private:
  mutable std::mutex M;
  std::map<const mf::DoStmt *, CompileResult> Cache;
};

} // namespace vm
} // namespace iaa

#endif // IAA_VM_COMPILER_H
