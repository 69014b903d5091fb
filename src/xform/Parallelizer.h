//===- xform/Parallelizer.h - The Polaris-style pipeline --------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-compiler driver, phase-ordered as Fig. 15(b): normalization,
/// induction variable substitution, constant propagation, forward
/// substitution, dead code elimination for every program unit; then
/// privatization, reduction recognition, and the dependence tests. Three
/// configurations reproduce the experimental setups of Fig. 16:
///
///  - Full:  Polaris with irregular array access analysis (the paper);
///  - NoIAA: Polaris without the new analyses (classical symbolic tests);
///  - Apo:   a vendor-style auto-parallelizer (affine tests only, no
///           reductions, no array privatization).
///
/// The output is a per-loop report (feeding Tables 2/3) and a parallel
/// execution plan consumed by the interpreter (feeding Fig. 16).
///
//===----------------------------------------------------------------------===//

#ifndef IAA_XFORM_PARALLELIZER_H
#define IAA_XFORM_PARALLELIZER_H

#include "deptest/DependenceTest.h"
#include "mf/Program.h"
#include "support/Remarks.h"
#include "xform/Privatization.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace iaa {
namespace xform {

/// Pipeline configuration (the three curves of Fig. 16).
enum class PipelineMode { Full, NoIAA, Apo };

const char *pipelineModeName(PipelineMode M);

/// The execution plan for one parallel loop, consumed by the interpreter.
struct LoopPlan {
  const mf::DoStmt *Loop = nullptr;
  bool Parallel = false;
  /// Arrays given per-thread copies.
  std::set<const mf::Symbol *> PrivateArrays;
  /// Privatized arrays that are live after the loop and whose post-loop
  /// contents are reproduced by the last-value writeback (the privatizer
  /// proved every iteration MUST-writes the same index-invariant section
  /// covering all MAY writes). Excluded from deadPrivateIds.
  std::set<const mf::Symbol *> LiveOutArrays;
  /// Scalars given per-thread copies (everything written in the body that
  /// is not a reduction).
  std::set<const mf::Symbol *> PrivateScalars;
  /// Scalar sum reductions merged after the loop.
  std::set<const mf::Symbol *> Reductions;
  /// Runtime-check obligations (inspector/executor): when RuntimeConditional
  /// is set, Parallel stays false and the loop may run in parallel only
  /// after an O(n) inspection of the named index arrays discharges every
  /// check for the actual data; serial execution is always a sound
  /// fallback.
  std::vector<deptest::RuntimeCheck> RuntimeChecks;
  bool RuntimeConditional = false;
  /// True when Parallel rests on recurrence facts about an index array's
  /// building loop (RecurrenceSolver.h): the loop would have dispatched
  /// runtime-conditionally without them. The auditor re-derives every such
  /// fact from scratch; under --audit=strict a promotion it cannot certify
  /// is demoted back to conditional dispatch on FallbackChecks.
  bool RecurrencePromoted = false;
  /// The runtime checks a recurrence-promoted loop would have carried
  /// without the facts (empty for plans that are not recurrence-promoted).
  std::vector<deptest::RuntimeCheck> FallbackChecks;
};

/// Analysis record for one loop (feeds Table 3).
struct LoopReport {
  const mf::DoStmt *Loop = nullptr;
  std::string Label;
  bool Parallel = false;
  /// Statically serial, but parallel conditional on runtime checks.
  bool RuntimeConditional = false;
  /// Parallel thanks to consumed recurrence facts (see LoopPlan).
  bool RecurrencePromoted = false;
  std::string WhyNot;
  std::vector<deptest::ArrayDepOutcome> DepOutcomes;
  std::vector<ArrayPrivOutcome> PrivOutcomes;
  std::set<const mf::Symbol *> Reductions;
  unsigned PropertyQueries = 0;
};

/// Whole-pipeline result (feeds Table 2 and the interpreter).
struct PipelineResult {
  std::vector<LoopReport> Loops;
  std::map<const mf::DoStmt *, LoopPlan> Plans;
  /// Wall-clock seconds of the whole pipeline run.
  double TotalSeconds = 0;
  /// Seconds spent inside the array property analysis (Table 2, col. 5).
  double PropertySeconds = 0;
  unsigned ConstantsPropagated = 0;
  unsigned ForwardSubstitutions = 0;
  unsigned DeadRemoved = 0;
  unsigned InductionsSubstituted = 0;
  /// Wall-clock seconds per pipeline phase, in execution order.
  std::vector<std::pair<std::string, double>> PhaseSeconds;
  /// One optimization remark per analyzed loop (backs each WhyNot string).
  std::vector<Remark> Remarks;
  /// Diagnostics emitted by the in-pipeline normalization passes.
  unsigned ErrorCount = 0;

  /// Per-loop verdict of the independent plan auditor (verify::recordAudit
  /// fills this; empty unless an audit ran).
  struct AuditOutcome {
    std::string Loop;    ///< Loop label.
    std::string Verdict; ///< "certified", "rejected", or "unknown".
    bool Demoted = false; ///< Plan demoted to serial (--audit=strict).
    std::string Detail;  ///< Why the loop is not certified.
  };
  std::vector<AuditOutcome> AuditOutcomes;

  /// The plan for \p L (null when the loop is serial).
  const LoopPlan *planFor(const mf::DoStmt *L) const {
    auto It = Plans.find(L);
    return It == Plans.end() || !It->second.Parallel ? nullptr : &It->second;
  }

  /// The runtime-conditional plan for \p L: statically serial, but
  /// parallelizable if the attached runtime checks pass inspection. Null
  /// when the loop is unconditionally parallel or unconditionally serial.
  const LoopPlan *conditionalPlanFor(const mf::DoStmt *L) const {
    auto It = Plans.find(L);
    if (It == Plans.end() || It->second.Parallel ||
        !It->second.RuntimeConditional || It->second.RuntimeChecks.empty())
      return nullptr;
    return &It->second;
  }

  /// The report for the loop labeled \p Label, or null.
  const LoopReport *reportFor(const std::string &Label) const {
    for (const LoopReport &R : Loops)
      if (R.Label == Label)
        return &R;
    return nullptr;
  }

  /// A human-readable summary of every analyzed loop.
  std::string str() const;
};

/// Runs the full pipeline over \p P (mutates it: normalization passes are
/// source-to-source). The program must already be parsed and error-free.
PipelineResult parallelize(mf::Program &P, PipelineMode Mode);

} // namespace xform
} // namespace iaa

#endif // IAA_XFORM_PARALLELIZER_H
