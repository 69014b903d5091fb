//===- interp/Inspector.h - Runtime-check inspector -------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inspector half of the inspector/executor runtime-check subsystem:
/// O(n) scans that decide, for the actual contents of an index array, the
/// properties the static analysis left Unknown — injectivity (bitset
/// duplicate detection), monotonicity, value bounds, and offset-length
/// segment disjointness. A passing inspection licenses parallel dispatch of
/// a runtime-conditional loop plan; a failing one falls back to serial
/// execution, which is always sound.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_INTERP_INSPECTOR_H
#define IAA_INTERP_INSPECTOR_H

#include "deptest/DependenceTest.h"
#include "interp/Interpreter.h"

#include <string>

namespace iaa {
namespace interp {

/// Verdict of inspecting one runtime check.
struct InspectionOutcome {
  bool Pass = false;
  std::string Detail; ///< Why the check failed; empty on pass.
};

/// Evaluates \p C against the current contents of \p Mem for a loop about
/// to execute iterations [Lo, Up] (step 1). The scans are O(window) and are
/// split across \p Pool's workers when the window is large enough (a null
/// pool, or Threads <= 1, scans on the calling thread). An empty window
/// passes vacuously; a window that falls outside the index array's extent
/// fails (serial execution will surface the fault exactly as written).
InspectionOutcome inspectRuntimeCheck(const deptest::RuntimeCheck &C,
                                      const Memory &Mem, int64_t Lo,
                                      int64_t Up, WorkerPool *Pool,
                                      unsigned Threads);

} // namespace interp
} // namespace iaa

#endif // IAA_INTERP_INSPECTOR_H
