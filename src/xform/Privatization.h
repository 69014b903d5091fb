//===- xform/Privatization.h - Array and scalar privatization ---*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Array privatization in the Tu-Padua style used by Polaris (Sec. 5.1.4):
/// an array can be privatized for a loop when its per-iteration upward
/// exposed read set is empty — every read is covered by a MUST-write earlier
/// in the same iteration. The paper's extensions, all implemented here:
///
///  - *consecutively written* single-indexed regions (Sec. 2.2) contribute
///    the MUST section [c+1 : p] where c is the reset value of the index
///    before the region and p its value after (Fig. 1(a));
///  - *array stacks* (Sec. 2.3) are privatizable outright when the stack
///    pointer is reset at the top of each iteration (Fig. 1(b));
///  - *indirect reads* x(ind(j)) are approximated by [min ind : max ind]
///    using the closed-form bound property of the index array verified by
///    the array property analysis ("this approximation works for read sets
///    only", Sec. 5.1.4).
///
/// Scalar classification (private / reduction / carried) for the parallel
/// plan lives here too, since it shares the same walk infrastructure.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_XFORM_PRIVATIZATION_H
#define IAA_XFORM_PRIVATIZATION_H

#include "analysis/GlobalConstants.h"
#include "analysis/PropertySolver.h"
#include "analysis/SymbolUses.h"
#include "cfg/Hcg.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace iaa {
namespace xform {

/// Per-array outcome of the privatization analysis for one loop.
struct ArrayPrivOutcome {
  const mf::Symbol *Array = nullptr;
  bool Privatizable = false;
  /// "affine", "CW", "STACK", or "CFB-indirect" — the mechanism that
  /// established coverage (the most advanced one used).
  std::string Reason;
  std::vector<std::string> PropertiesUsed;
  std::string Detail;
  /// True when the array is referenced outside the loop, so the runtime
  /// must copy the last iteration's private copy back.
  bool LiveOut = false;
  /// True when copying the final iteration's private copy back provably
  /// reproduces serial last-value semantics: the per-iteration MUST-written
  /// section is invariant in the loop index and covers every MAY write, so
  /// each iteration writes the same elements and everything else keeps its
  /// pre-loop (copy-in) value. Live-out privatized arrays without this
  /// proof keep the loop serial.
  bool LastValueOk = false;
};

/// Scalar classification for a candidate parallel loop.
struct ScalarClassification {
  std::set<const mf::Symbol *> Private;    ///< Written before read.
  std::set<const mf::Symbol *> Reductions; ///< s = s + e sum reductions.
  std::set<const mf::Symbol *> Carried;    ///< Cross-iteration flow: block.
};

/// Result of privatization analysis on one loop.
struct PrivatizationResult {
  std::set<const mf::Symbol *> Arrays; ///< Privatizable arrays.
  std::vector<ArrayPrivOutcome> Outcomes;
  ScalarClassification Scalars;
  unsigned PropertyQueries = 0;
};

/// The privatizer.
class Privatizer {
public:
  Privatizer(cfg::Hcg &G, const analysis::SymbolUses &Uses, bool EnableIAA)
      : G(G), Uses(Uses), Consts(G.program()), Solver(G, Uses),
        EnableIAA(EnableIAA) {}

  /// Routes property-analysis time into \p T (for Table 2).
  void setPropertyTimer(AccumulatingTimer *T) { Solver.setTimer(T); }

  /// Analyzes loop \p L; returns privatizable arrays and the scalar
  /// classification.
  PrivatizationResult analyze(const mf::DoStmt *L);

private:
  struct ArrayState;
  struct Walker;

  /// True when array \p X is referenced by a statement outside \p L (the
  /// live-out query). Answered from Sites, which the first query builds.
  bool referencedOutside(const mf::Symbol *X, const mf::DoStmt *L);

  cfg::Hcg &G;
  const analysis::SymbolUses &Uses;
  analysis::GlobalConstants Consts;
  analysis::PropertySolver Solver;
  bool EnableIAA;
  /// Array -> the statements whose own part references it: an assignment
  /// or call as a whole, the condition of an if or while, the bounds and
  /// step of a do (never a compound statement's children).
  std::optional<std::unordered_map<const mf::Symbol *,
                                   std::vector<const mf::Stmt *>>>
      Sites;
};

} // namespace xform
} // namespace iaa

#endif // IAA_XFORM_PRIVATIZATION_H
