//===- verify/PlanAudit.h - Independent certification of loop plans -*- C++ -*-//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A translation-validation style *plan auditor*: a second, independent
/// static analysis that certifies or rejects every loop the parallelizer
/// marked parallel, before the runtime executes the plan.
///
/// The auditor deliberately does not consult `DependenceTester`'s
/// conclusions. It re-derives, from the normalized AST and the shared
/// section/symbolic primitives only, the cross-iteration conflict set of
/// each parallel-marked loop: it enumerates per-iteration MAY-read and
/// MAY-write array sections, subtracts accesses discharged by a recorded
/// proof obligation — privatized arrays, recognized reductions, private
/// scalars — after re-checking the premises that obligation rests on (the
/// reduction pattern really is the only access, the last-value writeback of
/// a live-out privatized array really reproduces serial contents, the
/// injectivity of an index array really is established by PropertySolver),
/// and then proves the remaining shared accesses of different iterations
/// disjoint. Three verdicts:
///
///  - Certified: every shared access pair is provably iteration-disjoint;
///  - Rejected:  a definite cross-iteration overlap exists — the audit
///               carries a structured counterexample (two iterations and
///               the overlapping section);
///  - Unknown:   the auditor is weaker than the planner here (it could
///               neither certify nor refute); `--audit=strict` demotes such
///               loops to serial.
///
/// The differential harness in the tests cross-checks these verdicts
/// against the interpreter's shadow-memory dynamic race checker
/// (ExecOptions::RaceCheck).
///
//===----------------------------------------------------------------------===//

#ifndef IAA_VERIFY_PLANAUDIT_H
#define IAA_VERIFY_PLANAUDIT_H

#include "analysis/GlobalConstants.h"
#include "analysis/PropertySolver.h"
#include "analysis/SymbolUses.h"
#include "cfg/Hcg.h"
#include "xform/Parallelizer.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace iaa {
namespace verify {

/// Per-loop audit verdict.
enum class AuditVerdict { Certified, Rejected, Unknown };

const char *auditVerdictName(AuditVerdict V);

/// A concrete witness of a cross-iteration conflict: two iterations of the
/// audited loop and the section both of them touch (at least one writing).
struct AuditCounterexample {
  /// The conflicting symbol (array, or scalar for shared-scalar writes).
  const mf::Symbol *Var = nullptr;
  /// The two iterations, rendered as bindings of the loop index
  /// (e.g. "i = 1" and "i = 2").
  std::string IterA, IterB;
  /// The sections the two iterations access (SectionB after substituting
  /// the second iteration into the subscripts).
  std::string SectionA, SectionB;
  std::string Note;

  std::string str() const;
};

/// One discharged (or failed) proof obligation the audit examined.
struct ObligationCheck {
  /// "privatized", "live-out-reproducible", "reduction", "private-scalar",
  /// "distinct-dim", "injective", "monotone", "range", "offset-length",
  /// "opaque".
  std::string Kind;
  /// The array or scalar the obligation covers.
  std::string Subject;
  bool Ok = false;
  std::string Detail;
};

/// The audit of one parallel-marked loop.
struct LoopAudit {
  const mf::DoStmt *Loop = nullptr;
  std::string Label;
  AuditVerdict Verdict = AuditVerdict::Unknown;
  /// True for a runtime-conditional plan: a Certified verdict then means
  /// "race-free provided the plan's recorded runtime checks pass at run
  /// time" — the serial fallback taken when they fail is sound either way.
  bool Conditional = false;
  std::vector<ObligationCheck> Obligations;
  /// Present iff Verdict == Rejected.
  std::optional<AuditCounterexample> Counterexample;
  /// Why the loop is not Certified (empty when it is).
  std::string Detail;
  /// Property queries the audit issued through its own PropertySolver.
  unsigned PropertyQueries = 0;

  std::string str() const;
};

/// The audit of a whole pipeline result.
struct AuditResult {
  /// One entry per parallel-marked loop, in pipeline order.
  std::vector<LoopAudit> Loops;

  unsigned numWithVerdict(AuditVerdict V) const;
  bool allCertified() const {
    return numWithVerdict(AuditVerdict::Certified) == Loops.size();
  }

  /// The audit of the loop labeled \p Label, or null.
  const LoopAudit *auditFor(const std::string &Label) const;

  std::string str() const;
};

/// The auditor. Builds its own HCG, symbol-use summaries, constant table,
/// property solver and liveness index over \p P — nothing is shared with
/// the pipeline that produced the plans, so a planner bug cannot propagate
/// into the audit.
class PlanAuditor {
public:
  explicit PlanAuditor(mf::Program &P);

  /// Audits every parallel-marked and runtime-conditional plan in \p R.
  AuditResult audit(const xform::PipelineResult &R);

  /// Audits one loop against \p Plan (marked parallel, or emitted as
  /// parallel conditional on runtime checks).
  LoopAudit auditLoop(const mf::DoStmt *L, const xform::LoopPlan &Plan);

private:
  struct AccessInfo;
  class LoopAuditContext;

  /// True when array \p X is referenced by a statement outside \p L: the
  /// auditor's own liveness, answered from ArraySites, which the first
  /// query builds.
  bool referencedOutside(const mf::Symbol *X, const mf::DoStmt *L);

  mf::Program &Prog;
  analysis::SymbolUses Uses;
  cfg::Hcg G;
  analysis::GlobalConstants Consts;
  analysis::PropertySolver Solver;
  /// Array -> the statements that reference it in their own expressions
  /// (nested statements count on their own).
  std::optional<std::unordered_map<const mf::Symbol *,
                                   std::vector<const mf::Stmt *>>>
      ArraySites;
};

/// How audit verdicts feed back into execution (mfpar --audit=MODE).
enum class AuditMode {
  Off,    ///< No audit.
  Warn,   ///< Audit and report; plans run unchanged.
  Strict, ///< Demote every non-Certified loop to serial before running.
};

const char *auditModeName(AuditMode M);
bool parseAuditMode(const std::string &Name, AuditMode &M);

/// Records \p A into \p R: fills PipelineResult::AuditOutcomes and appends
/// one audit remark per audited loop. Under AuditMode::Strict every
/// non-Certified loop's plan is demoted: a recurrence-promoted plan falls
/// back to conditional dispatch on its FallbackChecks (the inspections the
/// promotion deleted are restored and re-decided at run time); every other
/// plan is demoted to serial (LoopPlan::Parallel and LoopReport::Parallel
/// cleared, and any runtime-conditional dispatch stripped along with its
/// checks). Returns the number of demoted loops.
unsigned recordAudit(xform::PipelineResult &R, const AuditResult &A,
                     AuditMode Mode);

} // namespace verify
} // namespace iaa

#endif // IAA_VERIFY_PLANAUDIT_H
