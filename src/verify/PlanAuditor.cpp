//===- verify/PlanAuditor.cpp - Independent certification of loop plans ---===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
//
// The auditor re-derives the cross-iteration conflict set of every loop the
// parallelizer marked parallel. It shares only the section/symbolic algebra
// and the property solver with the pipeline — never the dependence tester's
// conclusions — so a planner bug surfaces as a Rejected or Unknown verdict
// instead of a silent race at run time.
//
// Structure of one loop audit:
//
//   1. enumerate every array access of one iteration (reads and writes,
//      with the inner-loop nest each access sits in);
//   2. discharge scalars: private scalars and re-checked reductions are
//      race-free by construction, anything else written is a conflict;
//   3. discharge privatized arrays, re-proving the last-value premise for
//      every one referenced outside the loop (liveness is the auditor's
//      own, not the plan's LiveOutArrays);
//   4. prove the remaining shared written arrays iteration-disjoint with
//      an independent proof ladder (distinct dimension, injective/monotone
//      gather subscript, swept ranges, offset-length with re-verified
//      CFD/CFB properties);
//   5. when no proof exists, search for a *definite* adjacent-iteration
//      overlap to turn "don't know" into a counterexample.
//
//===----------------------------------------------------------------------===//

#include "verify/PlanAudit.h"

#include "analysis/ArrayProperty.h"
#include "mf/Expr.h"
#include "mf/Program.h"
#include "mf/Stmt.h"
#include "section/Section.h"
#include "support/Statistic.h"
#include "support/Trace.h"
#include "symbolic/SymRange.h"

#include <functional>
#include <map>

using namespace iaa;
using namespace iaa::verify;
using namespace iaa::analysis;
using namespace iaa::mf;
using namespace iaa::sec;
using namespace iaa::sym;

#define IAA_STAT_GROUP "verify"
IAA_STAT(verify_loops_audited, "Parallel-marked loops audited");
IAA_STAT(verify_certified, "Loops the auditor certified race-free");
IAA_STAT(verify_rejected, "Loops rejected with a counterexample");
IAA_STAT(verify_unknown, "Loops the auditor could not decide");
IAA_STAT(verify_property_queries, "Property-solver queries issued by audits");
IAA_STAT(verify_demoted, "Plans demoted to serial under --audit=strict");
IAA_STAT(verify_conditional_certified,
         "Loops certified conditional on their recorded runtime checks");

const char *iaa::verify::auditVerdictName(AuditVerdict V) {
  switch (V) {
  case AuditVerdict::Certified: return "certified";
  case AuditVerdict::Rejected:  return "rejected";
  case AuditVerdict::Unknown:   return "unknown";
  }
  return "?";
}

const char *iaa::verify::auditModeName(AuditMode M) {
  switch (M) {
  case AuditMode::Off:    return "off";
  case AuditMode::Warn:   return "warn";
  case AuditMode::Strict: return "strict";
  }
  return "?";
}

bool iaa::verify::parseAuditMode(const std::string &Name, AuditMode &M) {
  if (Name == "off") {
    M = AuditMode::Off;
    return true;
  }
  if (Name == "warn") {
    M = AuditMode::Warn;
    return true;
  }
  if (Name == "strict") {
    M = AuditMode::Strict;
    return true;
  }
  return false;
}

std::string AuditCounterexample::str() const {
  std::string Out = (Var ? Var->name() : std::string("?")) + ": " + IterA +
                    " touches " + SectionA + ", " + IterB + " touches " +
                    SectionB;
  if (!Note.empty())
    Out += " (" + Note + ")";
  return Out;
}

std::string LoopAudit::str() const {
  std::string Out = Label + ": " + auditVerdictName(Verdict);
  if (Conditional)
    Out += " (conditional on runtime checks)";
  if (!Detail.empty())
    Out += " — " + Detail;
  for (const ObligationCheck &O : Obligations)
    Out += "\n    [" + std::string(O.Ok ? "ok" : "FAIL") + "] " + O.Kind +
           " " + O.Subject + (O.Detail.empty() ? "" : ": " + O.Detail);
  if (Counterexample)
    Out += "\n    counterexample: " + Counterexample->str();
  return Out;
}

unsigned AuditResult::numWithVerdict(AuditVerdict V) const {
  unsigned N = 0;
  for (const LoopAudit &A : Loops)
    N += A.Verdict == V;
  return N;
}

const LoopAudit *AuditResult::auditFor(const std::string &Label) const {
  for (const LoopAudit &A : Loops)
    if (A.Label == Label)
      return &A;
  return nullptr;
}

std::string AuditResult::str() const {
  std::string Out;
  for (const LoopAudit &A : Loops)
    Out += A.str() + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Access enumeration
//===----------------------------------------------------------------------===//

/// One array access of a single iteration of the audited loop.
struct PlanAuditor::AccessInfo {
  const mf::ArrayRef *Ref = nullptr;
  bool IsWrite = false;
  /// Inner do-loops enclosing the access, outermost first.
  std::vector<const mf::DoStmt *> Nest;
};

namespace {

/// Collects every ArrayRef read inside \p E, including subscript reads.
void arrayReadsIn(const Expr *E, std::vector<const ArrayRef *> &Out) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
  case ExprKind::VarRef:
    return;
  case ExprKind::ArrayRef: {
    const auto *AR = cast<ArrayRef>(E);
    Out.push_back(AR);
    for (const Expr *Sub : AR->subscripts())
      arrayReadsIn(Sub, Out);
    return;
  }
  case ExprKind::Unary:
    arrayReadsIn(cast<UnaryExpr>(E)->operand(), Out);
    return;
  case ExprKind::Binary:
    arrayReadsIn(cast<BinaryExpr>(E)->lhs(), Out);
    arrayReadsIn(cast<BinaryExpr>(E)->rhs(), Out);
    return;
  }
}

/// Rebuilds \p E with every occurrence of the atom keyed \p Key replaced by
/// \p Repl (scaled by the atom's coefficient).
SymExpr substAtom(const SymExpr &E, const std::string &Key,
                  const SymExpr &Repl) {
  SymExpr Out = SymExpr::constant(E.constantTerm());
  for (const auto &[K, Term] : E.terms())
    Out = Out + (K == Key ? Repl : SymExpr::atom(Term.first)) * Term.second;
  return Out;
}

/// True when the statement is the canonical sum-reduction update
/// `S = S + E` / `S = E + S` with E not reading S.
bool isReductionUpdate(const AssignStmt *AS, const Symbol *S) {
  const auto *VR = dyn_cast<VarRef>(AS->lhs());
  if (!VR || VR->symbol() != S)
    return false;
  const auto *B = dyn_cast<BinaryExpr>(AS->rhs());
  if (!B || B->op() != BinaryOp::Add)
    return false;
  const Expr *Other = nullptr;
  if (const auto *LV = dyn_cast<VarRef>(B->lhs()); LV && LV->symbol() == S)
    Other = B->rhs();
  else if (const auto *RV = dyn_cast<VarRef>(B->rhs()); RV && RV->symbol() == S)
    Other = B->lhs();
  if (!Other)
    return false;
  analysis::UseSet U;
  analysis::SymbolUses::exprReads(Other, U);
  return !U.reads(S);
}

} // namespace

//===----------------------------------------------------------------------===//
// LoopAuditContext: the workhorse for one loop
//===----------------------------------------------------------------------===//

class PlanAuditor::LoopAuditContext {
public:
  LoopAuditContext(PlanAuditor &Auditor, const DoStmt *L,
                   const xform::LoopPlan &Plan, LoopAudit &Out)
      : A(Auditor), L(L), Plan(Plan), Out(Out), I(L->indexVar()),
        LoL(SymExpr::fromAst(L->lower())), UpL(SymExpr::fromAst(L->upper())),
        BodyW(A.Uses.bodyUses(L->body())) {
    A.Consts.bindAll(EnvConsts);
    Env = EnvConsts;
    Env.bindVar(I, SymRange::of(LoL, UpL));
    // Adjacent-iteration counterexamples quantify over pairs (i, i+1), so
    // the witness environment clips the index one short of the upper bound.
    TwoIters = provablyLT(LoL, UpL, EnvConsts);
    Conditional =
        !Plan.Parallel && Plan.RuntimeConditional && !Plan.RuntimeChecks.empty();
    Out.Conditional = Conditional;
  }

  void run();

private:
  // --- verdict bookkeeping
  void ob(std::string Kind, std::string Subject, bool Ok, std::string Detail) {
    Out.Obligations.push_back(
        {std::move(Kind), std::move(Subject), Ok, std::move(Detail)});
  }
  void unknown(const std::string &Why) {
    if (Out.Verdict != AuditVerdict::Rejected)
      Out.Verdict = AuditVerdict::Unknown;
    if (Out.Detail.empty())
      Out.Detail = Why;
  }
  void reject(AuditCounterexample CE, const std::string &Why) {
    Out.Verdict = AuditVerdict::Rejected;
    if (!Out.Counterexample)
      Out.Counterexample = std::move(CE);
    Out.Detail = Why;
  }
  unsigned query() {
    ++verify_property_queries;
    return ++Out.PropertyQueries;
  }

  // --- enumeration
  void collect(const StmtList &Body);

  // --- scalar obligations
  void auditScalars();
  bool reductionPremiseOk(const Symbol *S, std::string &Why);

  // --- array obligations
  void auditArrays();
  bool lastValuePremiseOk(const Symbol *X, std::string &Why);
  struct WriteEffect {
    Section Must = Section::empty();
    Section May = Section::empty();
  };
  WriteEffect writeEffect(const StmtList &Body, const Symbol *X,
                          std::set<const Symbol *> &OpenIdx);

  // --- the independence proof ladder
  struct IterRange {
    SymExpr Lo, Hi;
    bool IsWrite = false;
  };
  bool invariantApartFromIndex(const SymExpr &E) const {
    for (const Symbol *W : BodyW.Writes)
      if (W != I && E.references(W))
        return false;
    return true;
  }
  bool sweptRange(const AccessInfo &Acc, SymExpr &Lo, SymExpr &Hi) const;
  bool sharedSubscript(const std::vector<AccessInfo> &Accs, unsigned D,
                       SymExpr &First) const;
  bool proveDistinctDim(const Symbol *X, const std::vector<AccessInfo> &Accs);
  bool proveGatherSubscript(const Symbol *X,
                            const std::vector<AccessInfo> &Accs);
  bool proveRanges(const Symbol *X, const std::vector<IterRange> &Ranges);
  bool proveOffsetLength(const Symbol *X, const std::vector<IterRange> &Ranges);

  // --- counterexample search
  void refuteArray(const Symbol *X, const std::vector<IterRange> &Ranges);

  PlanAuditor &A;
  const DoStmt *L;
  const xform::LoopPlan &Plan;
  LoopAudit &Out;

  const Symbol *I;
  SymExpr LoL, UpL;
  UseSet BodyW;
  RangeEnv EnvConsts; ///< Global constants only.
  RangeEnv Env;       ///< Constants + the loop index bound to [lo, up].
  bool TwoIters = false;
  /// Auditing a runtime-conditional plan: an obligation the static ladder
  /// cannot re-establish may instead be discharged against a recorded
  /// runtime check whose window covers the audited accesses.
  bool Conditional = false;

  /// The recorded runtime check of kind \p K over index array \p Q, if any.
  const deptest::RuntimeCheck *recordedCheck(deptest::RuntimeCheckKind K,
                                             const Symbol *Q) const {
    if (!Conditional)
      return nullptr;
    for (const deptest::RuntimeCheck &C : Plan.RuntimeChecks)
      if (C.Kind == K && C.Index == Q)
        return &C;
    return nullptr;
  }

  std::map<const Symbol *, std::vector<AccessInfo>> ByArray;
  std::set<const Symbol *> Opaque;
  std::set<const Symbol *> OpaqueReads;
  std::vector<const DoStmt *> Nest;
  bool UnknownCallee = false;

  /// Exported by the offset-length attempt for the counterexample search:
  /// a verified rewrite ptr(i+1) -> ptr(i) + dist(i) and the environment
  /// carrying the verified CFB value bounds.
  struct CfdRewrite {
    std::string ShiftKey;
    SymExpr Rewritten;
    RangeEnv Env2;
  };
  std::optional<CfdRewrite> Rewrite;
};

void PlanAuditor::LoopAuditContext::collect(const StmtList &Body) {
  auto AddReads = [&](const Expr *E) {
    std::vector<const ArrayRef *> Reads;
    arrayReadsIn(E, Reads);
    for (const ArrayRef *AR : Reads)
      ByArray[AR->array()].push_back({AR, false, Nest});
  };
  for (const Stmt *S : Body) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      AddReads(AS->rhs());
      if (const ArrayRef *T = AS->arrayTarget()) {
        for (const Expr *Sub : T->subscripts())
          AddReads(Sub);
        ByArray[T->array()].push_back({T, true, Nest});
      }
      break;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      AddReads(IS->condition());
      collect(IS->thenBody());
      collect(IS->elseBody());
      break;
    }
    case StmtKind::Do: {
      const auto *DS = cast<DoStmt>(S);
      AddReads(DS->lower());
      AddReads(DS->upper());
      if (DS->step())
        AddReads(DS->step());
      Nest.push_back(DS);
      collect(DS->body());
      Nest.pop_back();
      break;
    }
    case StmtKind::While: {
      const auto *WS = cast<WhileStmt>(S);
      // Accesses under a data-dependent trip count have no per-iteration
      // section; the arrays they touch can only be discharged by
      // privatization.
      std::vector<const ArrayRef *> CondReads;
      arrayReadsIn(WS->condition(), CondReads);
      for (const ArrayRef *AR : CondReads)
        OpaqueReads.insert(AR->array());
      UseSet U = A.Uses.bodyUses(WS->body());
      for (const Symbol *Sym : U.Reads)
        if (Sym->isArray())
          OpaqueReads.insert(Sym);
      for (const Symbol *Sym : U.Writes)
        if (Sym->isArray())
          Opaque.insert(Sym);
      break;
    }
    case StmtKind::Call: {
      const auto *CS = cast<CallStmt>(S);
      if (!CS->callee()) {
        UnknownCallee = true;
        break;
      }
      const UseSet &U = A.Uses.procedureUses(CS->callee());
      for (const Symbol *Sym : U.Reads)
        if (Sym->isArray())
          OpaqueReads.insert(Sym);
      for (const Symbol *Sym : U.Writes)
        if (Sym->isArray())
          Opaque.insert(Sym);
      break;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Scalars
//===----------------------------------------------------------------------===//

bool PlanAuditor::LoopAuditContext::reductionPremiseOk(const Symbol *S,
                                                       std::string &Why) {
  // Every statement that touches S must be the one canonical update; a read
  // in a condition, a bound, a subscript, or any other right-hand side means
  // merging per-worker partial sums would not reproduce serial semantics.
  bool SawUpdate = false;
  bool OK = true;
  Program::forEachStmtIn(L->body(), [&](Stmt *St) {
    if (!OK)
      return;
    if (const auto *AS = dyn_cast<AssignStmt>(St)) {
      if (isReductionUpdate(AS, S)) {
        SawUpdate = true;
        return;
      }
      if (AS->writtenSymbol() == S) {
        OK = false;
        Why = "a non-reduction assignment writes " + S->name();
        return;
      }
    }
    if (const auto *DS = dyn_cast<DoStmt>(St); DS && DS->indexVar() == S) {
      OK = false;
      Why = S->name() + " doubles as an inner loop index";
      return;
    }
    if (A.Uses.ownUses(St).touches(S)) {
      OK = false;
      Why = S->name() + " is used outside the reduction update";
    }
  });
  if (OK && !SawUpdate) {
    OK = false;
    Why = "no s = s + e update found for " + S->name();
  }
  return OK;
}

void PlanAuditor::LoopAuditContext::auditScalars() {
  for (const Symbol *S : BodyW.Writes) {
    if (S->isArray() || S == I)
      continue;
    if (Plan.PrivateScalars.count(S)) {
      ob("private-scalar", S->name(), true, "per-worker copy");
      continue;
    }
    if (Plan.Reductions.count(S)) {
      std::string Why;
      if (reductionPremiseOk(S, Why)) {
        ob("reduction", S->name(), true, "sum pattern is the only access");
      } else {
        ob("reduction", S->name(), false, Why);
        AuditCounterexample CE;
        CE.Var = S;
        CE.IterA = I->name() + " = " + LoL.str();
        CE.IterB = I->name() + " = " + (LoL + 1).str();
        CE.SectionA = CE.SectionB = "the scalar " + S->name();
        CE.Note = Why;
        reject(std::move(CE), "reduction premise fails for " + S->name());
      }
      continue;
    }
    // A shared scalar written by the body: a definite write in every
    // iteration is a provable write-write conflict; a conditional one is
    // at least undischargeable.
    bool Definite = false;
    for (const Stmt *St : L->body())
      if (const auto *AS = dyn_cast<AssignStmt>(St))
        if (AS->writtenSymbol() == S && !AS->arrayTarget())
          Definite = true;
    ob("private-scalar", S->name(), false,
       "written by the body but not in the plan's private/reduction sets");
    if (Definite && TwoIters) {
      AuditCounterexample CE;
      CE.Var = S;
      CE.IterA = I->name() + " = " + LoL.str();
      CE.IterB = I->name() + " = " + (LoL + 1).str();
      CE.SectionA = CE.SectionB = "the scalar " + S->name();
      CE.Note = "both iterations write the unprivatized scalar";
      reject(std::move(CE), "shared scalar " + S->name() +
                                " is written every iteration");
    } else {
      unknown("shared scalar " + S->name() + " may be written concurrently");
    }
  }
}

//===----------------------------------------------------------------------===//
// Live-out privatized arrays: the last-value premise
//===----------------------------------------------------------------------===//

PlanAuditor::LoopAuditContext::WriteEffect
PlanAuditor::LoopAuditContext::writeEffect(const StmtList &Body,
                                           const Symbol *X,
                                           std::set<const Symbol *> &OpenIdx) {
  WriteEffect E;
  auto Widen = [&] { E.May = Section::universe(); };
  auto SubscriptStable = [&](const SymExpr &Sub) {
    // A subscript whose value can change between the write and the end of
    // the iteration (it reads a body-written scalar other than an enclosing
    // loop index) has no stable per-iteration section.
    for (const Symbol *W : BodyW.Writes) {
      if (W == I || OpenIdx.count(W))
        continue;
      if (Sub.references(W))
        return false;
    }
    return true;
  };
  for (const Stmt *S : Body) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      if (AS->writtenSymbol() != X)
        break;
      const ArrayRef *T = AS->arrayTarget();
      if (!T || X->rank() != 1 || T->subscripts().size() != 1) {
        Widen();
        break;
      }
      SymExpr Sub = SymExpr::fromAst(T->subscript(0));
      if (!SubscriptStable(Sub)) {
        Widen();
        break;
      }
      Section P = Section::point(Sub);
      E.Must = Section::unionMust(E.Must, P, Env);
      E.May = Section::unionMay(E.May, P, Env);
      break;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      WriteEffect T = writeEffect(IS->thenBody(), X, OpenIdx);
      WriteEffect F = writeEffect(IS->elseBody(), X, OpenIdx);
      E.Must = Section::unionMust(
          E.Must, Section::intersectMust(T.Must, F.Must, Env), Env);
      E.May = Section::unionMay(E.May, Section::unionMay(T.May, F.May, Env),
                                Env);
      break;
    }
    case StmtKind::Do: {
      const auto *DS = cast<DoStmt>(S);
      if (!A.Uses.bodyUses(DS->body()).writes(X))
        break;
      SymExpr Step =
          DS->step() ? SymExpr::fromAst(DS->step()) : SymExpr::constant(1);
      SymExpr Lo2 = SymExpr::fromAst(DS->lower());
      SymExpr Up2 = SymExpr::fromAst(DS->upper());
      if (!Step.isConstant() || Step.constValue() != 1 ||
          !SubscriptStable(Lo2) || !SubscriptStable(Up2)) {
        Widen();
        break;
      }
      OpenIdx.insert(DS->indexVar());
      WriteEffect Inner = writeEffect(DS->body(), X, OpenIdx);
      OpenIdx.erase(DS->indexVar());
      E.Must = Section::unionMust(
          E.Must,
          Section::aggregateMust(Inner.Must, DS->indexVar(), Lo2, Up2, Env),
          Env);
      E.May = Section::unionMay(
          E.May,
          Section::aggregateMay(Inner.May, DS->indexVar(), Lo2, Up2, Env),
          Env);
      break;
    }
    case StmtKind::While:
      if (A.Uses.bodyUses(cast<WhileStmt>(S)->body()).writes(X))
        Widen();
      break;
    case StmtKind::Call: {
      const auto *CS = cast<CallStmt>(S);
      if (!CS->callee() || A.Uses.procedureUses(CS->callee()).writes(X))
        Widen();
      break;
    }
    }
  }
  return E;
}

bool PlanAuditor::LoopAuditContext::lastValuePremiseOk(const Symbol *X,
                                                       std::string &Why) {
  // The writeback copies the final iteration's private copy over the shared
  // array. That reproduces serial contents only if every iteration
  // MUST-writes one index-invariant section covering all its MAY-writes.
  std::set<const Symbol *> OpenIdx;
  WriteEffect E = writeEffect(L->body(), X, OpenIdx);
  if (E.May.isEmpty())
    return true; // Never written: the writeback copies unchanged contents.
  if (E.Must.isEmpty()) {
    Why = "no provable MUST-write section";
    return false;
  }
  if (E.Must.referencesVar(I)) {
    Why = "MUST-write section varies with " + I->name();
    return false;
  }
  if (!Section::provablyContains(E.Must, E.May, Env)) {
    Why = "MAY-writes (" + E.May.str() + ") not covered by MUST-writes (" +
          E.Must.str() + ")";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The independence proof ladder
//===----------------------------------------------------------------------===//

bool PlanAuditor::LoopAuditContext::sharedSubscript(
    const std::vector<AccessInfo> &Accs, unsigned D, SymExpr &First) const {
  std::string Key;
  for (const AccessInfo &Acc : Accs) {
    if (D >= Acc.Ref->subscripts().size())
      return false;
    SymExpr E = SymExpr::fromAst(Acc.Ref->subscript(D));
    if (Key.empty()) {
      Key = E.key();
      First = E;
    } else if (E.key() != Key) {
      return false;
    }
  }
  return !Key.empty();
}

bool PlanAuditor::LoopAuditContext::proveDistinctDim(
    const Symbol *X, const std::vector<AccessInfo> &Accs) {
  for (unsigned D = 0; D < X->rank(); ++D) {
    SymExpr First;
    if (!sharedSubscript(Accs, D, First))
      continue;
    int64_t Coeff = First.coeffOfVar(I);
    SymExpr Rest = First - SymExpr::var(I) * Coeff;
    if (Coeff != 0 && !Rest.references(I) && invariantApartFromIndex(Rest)) {
      ob("distinct-dim", X->name(),
         true, "dimension " + std::to_string(D + 1) + " strides with " +
                   I->name());
      return true;
    }
  }
  return false;
}

bool PlanAuditor::LoopAuditContext::proveGatherSubscript(
    const Symbol *X, const std::vector<AccessInfo> &Accs) {
  for (unsigned D = 0; D < X->rank(); ++D) {
    SymExpr First;
    if (!sharedSubscript(Accs, D, First))
      continue;
    AtomRef At = First.asSingleAtom();
    if (!At || At->kind() != AtomKind::ArrayElem || At->operands().size() != 1)
      continue;
    const Symbol *Q = At->symbol();
    const SymExpr &Sub = At->operands()[0];
    int64_t Coeff = Sub.coeffOfVar(I);
    SymExpr Rest = Sub - SymExpr::var(I) * Coeff;
    if (Coeff == 0 || Rest.references(I) || !invariantApartFromIndex(Sub) ||
        BodyW.writes(Q))
      continue;
    SymRange SubRange = rangeOverVar(Sub, I, LoL, UpL);
    if (!SubRange.Lo.isFinite() || !SubRange.Hi.isFinite())
      continue;
    // Premise 1: the index array is injective over the swept positions,
    // *re-verified* against the program with the auditor's own solver.
    InjectivityChecker Inj(Q, A.Uses);
    query();
    PropertyResult PR = A.Solver.verifyBefore(
        L, Inj, Section::interval(SubRange.Lo.E, SubRange.Hi.E));
    if (PR.Verified && Inj.genSites() == 1) {
      ob("injective", X->name(), true,
         Q->name() + " re-verified injective over " + SubRange.Lo.E.str() +
             ".." + SubRange.Hi.E.str());
      return true;
    }
    // Premise 2 (fallback): strict monotonicity implies injectivity.
    MonotonicChecker Mono(Q, /*Strict=*/true, A.Uses);
    query();
    PropertyResult MR = A.Solver.verifyBefore(
        L, Mono, Section::interval(SubRange.Lo.E, SubRange.Hi.E - 1));
    if (MR.Verified) {
      ob("monotone", X->name(), true,
         Q->name() + " re-verified strictly increasing");
      return true;
    }
    // Premise 3 (conditional plans): a recorded injectivity check whose
    // window covers the audited subscript q(i + c) discharges the access —
    // conditional on the inspector passing it at run time. The auditor
    // re-derives the subscript shape itself; only the property is deferred.
    if (Conditional && Coeff == 1 && Rest.isConstant()) {
      int64_t Shift = Rest.constValue();
      if (const deptest::RuntimeCheck *C = recordedCheck(
              deptest::RuntimeCheckKind::InjectiveOnRange, Q);
          C && C->LoAdjust <= Shift && C->UpAdjust >= Shift) {
        ob("injective", X->name(), true,
           Q->name() + " injectivity deferred to the runtime check " +
               C->str());
        return true;
      }
    }
    ob("injective", X->name(), false,
       "gather subscript " + Q->name() +
           "(...) shared by all accesses, but neither injectivity nor "
           "strict monotonicity could be re-established");
  }
  return false;
}

bool PlanAuditor::LoopAuditContext::sweptRange(const AccessInfo &Acc,
                                               SymExpr &Lo,
                                               SymExpr &Hi) const {
  if (Acc.Ref->subscripts().size() != 1)
    return false;
  Lo = Hi = SymExpr::fromAst(Acc.Ref->subscript(0));
  for (auto It = Acc.Nest.rbegin(); It != Acc.Nest.rend(); ++It) {
    const DoStmt *DS = *It;
    if (DS->step()) {
      SymExpr Step = SymExpr::fromAst(DS->step());
      if (!Step.isConstant() || Step.constValue() != 1)
        return false;
    }
    SymExpr LB = SymExpr::fromAst(DS->lower());
    SymExpr UB = SymExpr::fromAst(DS->upper());
    SymRange LoSw = rangeOverVar(Lo, DS->indexVar(), LB, UB);
    SymRange HiSw = rangeOverVar(Hi, DS->indexVar(), LB, UB);
    if (!LoSw.Lo.isFinite() || !HiSw.Hi.isFinite())
      return false;
    Lo = LoSw.Lo.E;
    Hi = HiSw.Hi.E;
  }
  return true;
}

bool PlanAuditor::LoopAuditContext::proveRanges(
    const Symbol *X, const std::vector<IterRange> &Ranges) {
  auto Ascending = [&] {
    for (const IterRange &RA : Ranges)
      for (const IterRange &RB : Ranges)
        if (!provablyLT(RA.Hi,
                        RB.Lo.substituteVar(I, SymExpr::var(I) + 1), Env))
          return false;
    return true;
  };
  auto Descending = [&] {
    for (const IterRange &RA : Ranges)
      for (const IterRange &RB : Ranges)
        if (!provablyLT(RB.Hi.substituteVar(I, SymExpr::var(I) + 1),
                        RA.Lo, Env))
          return false;
    return true;
  };
  if (Ascending() || Descending()) {
    ob("range", X->name(), true, "per-iteration ranges provably disjoint");
    return true;
  }
  return false;
}

bool PlanAuditor::LoopAuditContext::proveOffsetLength(
    const Symbol *X, const std::vector<IterRange> &Ranges) {
  // Candidate index arrays: atoms ptr(i) appearing in the range bounds.
  std::set<const Symbol *> Candidates;
  for (const IterRange &Rg : Ranges)
    for (const SymExpr *E : {&Rg.Lo, &Rg.Hi})
      for (const auto &[Key, Term] : E->terms()) {
        const AtomRef &At = Term.first;
        if (At->kind() == AtomKind::ArrayElem && At->operands().size() == 1 &&
            At->operands()[0].equals(SymExpr::var(I)))
          Candidates.insert(At->symbol());
      }

  for (const Symbol *Ptr : Candidates) {
    // Premise 1: the recurrence ptr(i+1) = ptr(i) + dist(i), re-discovered
    // and re-verified from the program text.
    auto Dist = ClosedFormDistanceChecker::discoverDistance(A.Prog, Ptr);
    if (!Dist)
      continue;
    ClosedFormDistanceChecker CFD(Ptr, *Dist, A.Uses);
    query();
    if (!A.Solver.verifyBefore(L, CFD, Section::interval(LoL, UpL - 1))
             .Verified)
      continue;

    // Premise 2: the distance is non-negative (segments never move left).
    RangeEnv Env2 = Env;
    SymExpr DistAtI = Dist->substituteVar(placeholderSymbol(), SymExpr::var(I));
    bool NonNeg = false;
    if (AtomRef DA = DistAtI.asSingleAtom();
        DA && DA->kind() == AtomKind::ArrayElem) {
      const Symbol *Y = DA->symbol();
      ClosedFormBoundChecker CFB(Y, A.Uses);
      query();
      if (A.Solver.verifyBefore(L, CFB, Section::interval(LoL, UpL - 1))
              .Verified) {
        SymRange Bounds = CFB.valueBounds();
        if (Bounds.Lo.isFinite() &&
            provablyNonNegative(Bounds.Lo.E, Env2)) {
          NonNeg = true;
          Env2.bindArrayValues(Y, Bounds);
        }
      }
    } else {
      NonNeg = provablyNonNegative(DistAtI, Env2);
    }
    if (!NonNeg)
      continue;

    std::string ShiftKey = Atom::arrayElem(Ptr, {SymExpr::var(I) + 1})->key();
    SymExpr Rewritten = SymExpr::arrayElem(Ptr, {SymExpr::var(I)}) + DistAtI;
    // Export the verified rewrite for the counterexample search even when
    // the disjointness below fails (a widened section is refuted with it).
    Rewrite = CfdRewrite{ShiftKey, Rewritten, Env2};

    bool OK = true;
    for (const IterRange &RA : Ranges) {
      for (const IterRange &RB : Ranges) {
        SymExpr NextLo =
            substAtom(RB.Lo.substituteVar(I, SymExpr::var(I) + 1), ShiftKey,
                      Rewritten);
        if (!provablyLT(RA.Hi, NextLo, Env2)) {
          OK = false;
          break;
        }
      }
      if (!OK)
        break;
    }
    if (OK) {
      ob("offset-length", X->name(), true,
         "segments of " + Ptr->name() + " re-proved disjoint (CFD premise "
         "re-verified)");
      return true;
    }
  }

  // Conditional plans: when the CFD/CFB premises cannot be re-established
  // statically, a recorded monotonicity + segment-disjointness check pair
  // over the same pointer array discharges the accesses, provided the
  // auditor's independently derived per-iteration ranges all fit the
  // segment shape the recorded check inspects.
  if (!Conditional)
    return false;
  for (const Symbol *Ptr : Candidates) {
    const deptest::RuntimeCheck *Mono = recordedCheck(
        deptest::RuntimeCheckKind::MonotonicNonDecreasing, Ptr);
    const deptest::RuntimeCheck *OL = recordedCheck(
        deptest::RuntimeCheckKind::OffsetLengthDisjoint, Ptr);
    if (!Mono || !OL || BodyW.writes(Ptr) ||
        (OL->Length && BodyW.writes(OL->Length)))
      continue;
    SymExpr PtrAtI = SymExpr::arrayElem(Ptr, {SymExpr::var(I)});
    bool Covered = !Ranges.empty();
    for (const IterRange &Rg : Ranges) {
      SymExpr LoD = Rg.Lo - PtrAtI;
      SymExpr HiD = Rg.Hi - PtrAtI;
      // Start: ptr(i) + c with c no smaller than the inspected segment
      // start; end: either ptr(i) + c, or exactly ptr(i) + len(i) + c, no
      // larger than the inspected segment end.
      if (!LoD.isConstant() || LoD.constValue() < OL->AccessLo) {
        Covered = false;
        break;
      }
      if (HiD.isConstant()) {
        if (!OL->HasHiConst || HiD.constValue() > OL->AccessHiConst) {
          Covered = false;
          break;
        }
        continue;
      }
      if (HiD.terms().size() != 1) {
        Covered = false;
        break;
      }
      const auto &Term = HiD.terms().begin()->second;
      const AtomRef &At = Term.first;
      if (Term.second != 1 || At->kind() != AtomKind::ArrayElem ||
          At->symbol() != OL->Length || At->operands().size() != 1 ||
          !At->operands()[0].equals(SymExpr::var(I)) || !OL->HasHiLen ||
          HiD.constantTerm() > OL->AccessHiLen) {
        Covered = false;
        break;
      }
    }
    if (!Covered)
      continue;
    ob("offset-length", X->name(), true,
       "segment disjointness of " + Ptr->name() +
           " deferred to the runtime checks " + Mono->str() + " and " +
           OL->str());
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Counterexample search
//===----------------------------------------------------------------------===//

void PlanAuditor::LoopAuditContext::refuteArray(
    const Symbol *X, const std::vector<IterRange> &Ranges) {
  if (!TwoIters || Ranges.empty()) {
    unknown("accesses to " + X->name() + " not certified");
    return;
  }
  // Definite overlap between iteration i and i+1: some element of B's
  // section at i+1 provably lies inside A's section at i (or vice versa).
  RangeEnv PairEnv = Rewrite ? Rewrite->Env2 : Env;
  PairEnv.bindVar(I, SymRange::of(LoL, UpL - 1));
  auto Shift = [&](const SymExpr &E) {
    SymExpr Next = E.substituteVar(I, SymExpr::var(I) + 1);
    return Rewrite ? substAtom(Next, Rewrite->ShiftKey, Rewrite->Rewritten)
                   : Next;
  };
  for (const IterRange &RA : Ranges) {
    for (const IterRange &RB : Ranges) {
      if (!RA.IsWrite && !RB.IsWrite)
        continue;
      SymExpr NextLo = Shift(RB.Lo), NextHi = Shift(RB.Hi);
      SymExpr Witness;
      bool Found = false;
      if (provablyLE(RA.Lo, NextLo, PairEnv) &&
          provablyLE(NextLo, RA.Hi, PairEnv) &&
          provablyLE(NextLo, NextHi, PairEnv)) {
        Witness = NextLo;
        Found = true;
      } else if (provablyLE(NextLo, RA.Lo, PairEnv) &&
                 provablyLE(RA.Lo, NextHi, PairEnv) &&
                 provablyLE(RA.Lo, RA.Hi, PairEnv)) {
        Witness = RA.Lo;
        Found = true;
      }
      if (!Found)
        continue;
      AuditCounterexample CE;
      CE.Var = X;
      CE.IterA = I->name() + " = " + LoL.str();
      CE.IterB = I->name() + " = " + (LoL + 1).str();
      CE.SectionA = "[" + RA.Lo.str() + " : " + RA.Hi.str() + "]" +
                    std::string(RA.IsWrite ? " (write)" : " (read)");
      CE.SectionB = "[" + RB.Lo.str() + " : " + RB.Hi.str() + "] at " +
                    I->name() + "+1" +
                    std::string(RB.IsWrite ? " (write)" : " (read)");
      CE.Note = "element " + Witness.str() + " is provably in both sections" +
                " for every " + I->name() + " in [" + LoL.str() + ", " +
                (UpL - 1).str() + "]";
      reject(std::move(CE), "adjacent iterations overlap on " + X->name());
      return;
    }
  }
  unknown("accesses to " + X->name() + " not certified");
}

//===----------------------------------------------------------------------===//
// Arrays
//===----------------------------------------------------------------------===//

void PlanAuditor::LoopAuditContext::auditArrays() {
  // Reads inside a while/call only conflict when the loop also writes the
  // array somewhere.
  for (const Symbol *X : OpaqueReads)
    if (BodyW.writes(X))
      Opaque.insert(X);

  std::set<const Symbol *> Audited;
  auto AuditOne = [&](const Symbol *X) {
    if (!Audited.insert(X).second)
      return;
    if (Plan.PrivateArrays.count(X)) {
      ob("privatized", X->name(), true, "per-worker copies cannot race");
      // Liveness is re-derived, not read off the plan: a live array the
      // plan forgot to mark would otherwise escape the premise check.
      if (Plan.LiveOutArrays.count(X) || A.referencedOutside(X, L)) {
        std::string Why;
        if (lastValuePremiseOk(X, Why)) {
          ob("live-out-reproducible", X->name(), true,
             "every iteration MUST-writes one invariant section covering "
             "all MAY-writes");
        } else {
          ob("live-out-reproducible", X->name(), false, Why);
          unknown("last-value premise fails for " + X->name() + ": " + Why);
        }
      }
      return;
    }
    auto It = ByArray.find(X);
    bool Written = Opaque.count(X) != 0;
    if (It != ByArray.end())
      for (const AccessInfo &Acc : It->second)
        Written |= Acc.IsWrite;
    if (!Written)
      return; // Read-only shared arrays carry no race.
    if (Opaque.count(X)) {
      ob("opaque", X->name(), false,
         "written inside a while loop or call without privatization");
      unknown("array " + X->name() +
              " is written in an unanalyzable context");
      return;
    }
    const std::vector<AccessInfo> &Accs = It->second;
    if (proveDistinctDim(X, Accs) || proveGatherSubscript(X, Accs))
      return;
    if (X->rank() != 1) {
      unknown("multi-dimensional accesses to " + X->name() +
              " not certified");
      return;
    }
    // Swept per-iteration ranges feed both the proofs and the refutation.
    std::vector<IterRange> Ranges;
    bool Bounded = true;
    for (const AccessInfo &Acc : Accs) {
      IterRange Rg;
      Rg.IsWrite = Acc.IsWrite;
      if (!sweptRange(Acc, Rg.Lo, Rg.Hi) ||
          !invariantApartFromIndex(Rg.Lo) ||
          !invariantApartFromIndex(Rg.Hi)) {
        Bounded = false;
        break;
      }
      Ranges.push_back(std::move(Rg));
    }
    if (!Bounded) {
      unknown("accesses to " + X->name() +
              " have no closed per-iteration section");
      return;
    }
    if (proveRanges(X, Ranges) || proveOffsetLength(X, Ranges))
      return;
    refuteArray(X, Ranges);
  };

  for (const auto &[X, Accs] : ByArray)
    AuditOne(X);
  for (const Symbol *X : Opaque)
    AuditOne(X);
}

void PlanAuditor::LoopAuditContext::run() {
  Out.Verdict = AuditVerdict::Certified;
  if (L->step()) {
    SymExpr Step = SymExpr::fromAst(L->step());
    if (!Step.isConstant() || Step.constValue() != 1) {
      unknown("non-unit step");
      return;
    }
  }
  collect(L->body());
  if (UnknownCallee) {
    unknown("call to an unresolved procedure");
    return;
  }
  auditScalars();
  auditArrays();
}

//===----------------------------------------------------------------------===//
// PlanAuditor
//===----------------------------------------------------------------------===//

PlanAuditor::PlanAuditor(Program &P)
    : Prog(P), Uses(P), G(P), Consts(P), Solver(G, Uses) {}

bool PlanAuditor::referencedOutside(const Symbol *X, const DoStmt *L) {
  if (!Sites)
    Sites.emplace(Prog, Uses);
  return Sites->referencedOutside(X, L);
}

LoopAudit PlanAuditor::auditLoop(const DoStmt *L,
                                 const xform::LoopPlan &Plan) {
  trace::TraceScope Span("plan-audit", "verify");
  if (Span.active() && !L->label().empty())
    Span.arg("loop", L->label());
  LoopAudit Out;
  Out.Loop = L;
  Out.Label = L->label();
  LoopAuditContext Ctx(*this, L, Plan, Out);
  Ctx.run();
  ++verify_loops_audited;
  if (Out.Conditional && Out.Verdict == AuditVerdict::Certified)
    ++verify_conditional_certified;
  switch (Out.Verdict) {
  case AuditVerdict::Certified: ++verify_certified; break;
  case AuditVerdict::Rejected:  ++verify_rejected; break;
  case AuditVerdict::Unknown:   ++verify_unknown; break;
  }
  if (Span.active())
    Span.arg("verdict", auditVerdictName(Out.Verdict));
  return Out;
}

AuditResult PlanAuditor::audit(const xform::PipelineResult &R) {
  trace::TraceScope Span("plan-audit-all", "verify");
  AuditResult Result;
  for (const xform::LoopReport &Rep : R.Loops) {
    auto It = R.Plans.find(Rep.Loop);
    if (It == R.Plans.end())
      continue;
    const xform::LoopPlan &Plan = It->second;
    if (!Plan.Parallel &&
        !(Plan.RuntimeConditional && !Plan.RuntimeChecks.empty()))
      continue;
    Result.Loops.push_back(auditLoop(Rep.Loop, Plan));
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Feeding verdicts back into the pipeline result
//===----------------------------------------------------------------------===//

unsigned iaa::verify::recordAudit(xform::PipelineResult &R,
                                  const AuditResult &A, AuditMode Mode) {
  unsigned Demoted = 0;
  for (const LoopAudit &LA : A.Loops) {
    xform::PipelineResult::AuditOutcome O;
    O.Loop = LA.Label;
    O.Verdict = auditVerdictName(LA.Verdict);
    O.Detail = LA.Detail;
    bool ToConditional = false;
    if (Mode == AuditMode::Strict && LA.Verdict != AuditVerdict::Certified) {
      O.Demoted = true;
      ++Demoted;
      ++verify_demoted;
      auto It = R.Plans.find(LA.Loop);
      if (It != R.Plans.end()) {
        xform::LoopPlan &P = It->second;
        P.Parallel = false;
        if (P.RecurrencePromoted && !P.FallbackChecks.empty()) {
          // A recurrence promotion the auditor cannot re-derive falls back
          // to the conditional-dispatch plan it replaced: the inspections
          // the promotion deleted are restored, and the inspector decides
          // at run time what the facts claimed statically.
          P.RecurrencePromoted = false;
          P.RuntimeConditional = true;
          P.RuntimeChecks = std::move(P.FallbackChecks);
          P.FallbackChecks.clear();
          ToConditional = true;
        } else {
          // Strict demotion means serial, full stop: an uncertifiable
          // runtime-conditional plan must not re-enter through the
          // inspector either.
          P.RuntimeConditional = false;
          P.RuntimeChecks.clear();
        }
      }
      for (xform::LoopReport &Rep : R.Loops)
        if (Rep.Loop == LA.Loop) {
          Rep.Parallel = false;
          Rep.RecurrencePromoted = false;
          Rep.RuntimeConditional = ToConditional;
          Rep.WhyNot = "audit " + std::string(auditVerdictName(LA.Verdict)) +
                       (LA.Detail.empty() ? "" : ": " + LA.Detail);
        }
    }
    Remark M;
    M.Loop = LA.Label;
    M.K = Remark::Kind::Audit;
    M.Reason = std::string(auditVerdictName(LA.Verdict)) +
               (LA.Detail.empty() ? "" : " — " + LA.Detail);
    M.Evidence.emplace_back("verdict", auditVerdictName(LA.Verdict));
    if (LA.Conditional)
      M.Evidence.emplace_back(
          "conditional",
          "certification holds when the recorded runtime checks pass; the "
          "serial fallback taken on failure is sound unconditionally");
    if (O.Demoted)
      M.Evidence.emplace_back(
          "action", ToConditional
                        ? "demoted to conditional dispatch on fallback checks"
                        : "demoted to serial");
    for (const ObligationCheck &Ob : LA.Obligations)
      M.Evidence.emplace_back("audit:" + Ob.Kind + ":" + Ob.Subject,
                              std::string(Ob.Ok ? "ok" : "FAIL") +
                                  (Ob.Detail.empty() ? "" : " — " + Ob.Detail));
    if (LA.Counterexample)
      M.Evidence.emplace_back("counterexample", LA.Counterexample->str());
    R.Remarks.push_back(std::move(M));
    R.AuditOutcomes.push_back(std::move(O));
  }
  return Demoted;
}
