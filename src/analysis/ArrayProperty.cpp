//===- analysis/ArrayProperty.cpp - Index-array property checkers ---------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "analysis/ArrayProperty.h"

#include "analysis/GatherLoop.h"
#include "analysis/RecurrenceSolver.h"

#include <set>

using namespace iaa;
using namespace iaa::analysis;
using namespace iaa::mf;
using namespace iaa::sec;
using namespace iaa::sym;

const char *iaa::analysis::propertyKindName(PropertyKind K) {
  switch (K) {
  case PropertyKind::ClosedFormValue:    return "CFV";
  case PropertyKind::ClosedFormDistance: return "CFD";
  case PropertyKind::ClosedFormBound:    return "CFB";
  case PropertyKind::Injective:          return "INJ";
  case PropertyKind::Monotonic:          return "MONO";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Context helpers
//===----------------------------------------------------------------------===//

RangeEnv iaa::analysis::envAt(const Stmt *S) {
  RangeEnv Env;
  for (const Stmt *P = S->parent(); P; P = P->parent())
    if (const auto *DS = dyn_cast<DoStmt>(P))
      Env.bindVar(DS->indexVar(),
                  SymRange::of(SymExpr::fromAst(DS->lower()),
                               SymExpr::fromAst(DS->upper())));
  return Env;
}

/// Sweeps one symbolic bound over a loop index, keeping the requested side.
static SymBound sweepBound(const SymBound &B, const Symbol *I,
                           const SymExpr &Lo, const SymExpr &Up,
                           bool KeepLower) {
  if (!B.isFinite())
    return B;
  SymRange Swept = rangeOverVar(B.E, I, Lo, Up);
  return KeepLower ? Swept.Lo : Swept.Hi;
}

SymRange iaa::analysis::valueRangeAt(const SymExpr &E, const Stmt *S) {
  SymRange R = SymRange::point(E);
  for (const Stmt *P = S->parent(); P; P = P->parent()) {
    const auto *DS = dyn_cast<DoStmt>(P);
    if (!DS)
      continue;
    SymExpr Lo = SymExpr::fromAst(DS->lower());
    SymExpr Up = SymExpr::fromAst(DS->upper());
    R.Lo = sweepBound(R.Lo, DS->indexVar(), Lo, Up, /*KeepLower=*/true);
    R.Hi = sweepBound(R.Hi, DS->indexVar(), Lo, Up, /*KeepLower=*/false);
  }
  // A sweep fails when the loop index occurs nonlinearly (mod, products,
  // subscripts). Interval evaluation under the loop-bound environment can
  // still bound such expressions (e.g. mod(..., m) + 1 is in [1, m]).
  if (!R.Lo.isFinite() || !R.Hi.isFinite()) {
    ConstRange CR = evalConstRange(E, envAt(S));
    if (!R.Lo.isFinite() && CR.Lo)
      R.Lo = SymBound::finite(SymExpr::constant(*CR.Lo));
    if (!R.Hi.isFinite() && CR.Hi)
      R.Hi = SymBound::finite(SymExpr::constant(*CR.Hi));
  }
  return R;
}

/// Collects every program symbol mentioned by \p E (transitively through
/// atoms) into \p Out.Reads.
static void collectSymbols(const SymExpr &E, UseSet &Out);

static void collectAtomSymbols(const AtomRef &A, UseSet &Out) {
  if (A->symbol())
    Out.Reads.insert(A->symbol());
  for (const SymExpr &Operand : A->operands())
    collectSymbols(Operand, Out);
}

static void collectSymbols(const SymExpr &E, UseSet &Out) {
  for (const auto &[Key, Term] : E.terms())
    collectAtomSymbols(Term.first, Out);
}

//===----------------------------------------------------------------------===//
// ClosedFormDistanceChecker
//===----------------------------------------------------------------------===//

std::optional<std::pair<SymExpr, SymExpr>>
ClosedFormDistanceChecker::matchRecurrence(const Symbol *Target,
                                           const AssignStmt *S) {
  const mf::ArrayRef *LHS = S->arrayTarget();
  if (!LHS || LHS->array() != Target || LHS->rank() != 1)
    return std::nullopt;
  SymExpr E1 = SymExpr::fromAst(LHS->subscript(0));
  SymExpr Rhs = SymExpr::fromAst(S->rhs());
  // Find the unique x(e2) term with coefficient one.
  AtomRef XTerm;
  for (const auto &[Key, Term] : Rhs.terms()) {
    const auto &[A, Coeff] = Term;
    if (!A->references(Target))
      continue;
    if (XTerm || Coeff != 1 || A->kind() != AtomKind::ArrayElem ||
        A->symbol() != Target)
      return std::nullopt;
    XTerm = A;
  }
  if (!XTerm)
    return std::nullopt;
  SymExpr E2 = XTerm->operands()[0];
  if (E2.references(Target))
    return std::nullopt;
  if (!(E1 - E2 - 1).isZero())
    return std::nullopt;
  SymExpr D = Rhs - SymExpr::atom(XTerm);
  if (D.references(Target))
    return std::nullopt;
  return std::make_pair(E2, D);
}

Effect ClosedFormDistanceChecker::summarizeAssign(const AssignStmt *S) {
  const Symbol *Written = S->writtenSymbol();
  if (Written != Target) {
    // A write to anything the distance expression mentions is fatal.
    if (Distance.references(Written))
      return Effect::killAll();
    return Effect::none();
  }

  if (auto Match = matchRecurrence(Target, S)) {
    const auto &[Pos, D] = *Match;
    SymExpr Expected =
        Distance.substituteVar(placeholderSymbol(), Pos);
    if ((Expected - D).isZero()) {
      ++GenSites;
      // Writing x(pos+1) redefines the pair (pos, pos+1) consistently and
      // breaks the pair (pos+1, pos+2) until that one is written in turn.
      return {Section::interval(Pos + 1, Pos + 1), Section::point(Pos)};
    }
  }

  // Any other write to the target: a base definition x(c) = v disturbs the
  // pairs touching element c; an unanalyzable subscript disturbs everything.
  const mf::ArrayRef *LHS = S->arrayTarget();
  if (LHS && LHS->rank() == 1) {
    SymExpr E = SymExpr::fromAst(LHS->subscript(0));
    bool Analyzable = true;
    for (const auto &[Key, Term] : E.terms())
      if (Term.first->kind() != AtomKind::Var)
        Analyzable = false;
    if (Analyzable)
      return {Section::interval(E - 1, E), Section::empty()};
  }
  return Effect::killAll();
}

std::optional<Effect>
ClosedFormDistanceChecker::summarizeLoop(const DoStmt *L,
                                         const LoopContext &Ctx) {
  // Only recurrences whose step array is defined in the building loop's own
  // body need the whole-loop fact: the statement-level walk above kills on
  // the in-body write to the step array. Everything else keeps the classic
  // per-statement path.
  const RecurrenceFact *F =
      Ctx.Recurrences ? Ctx.Recurrences->factFor(L, Target) : nullptr;
  if (!F || !F->StepDefinedInBody || !F->Distance ||
      !F->Distance->equals(Distance))
    return std::nullopt;
  ++GenSites;
  ++ConsumedFacts;
  ConsumedDeps.merge(F->Deps);
  countRecurrenceFactConsumed();
  return Effect{Section::interval(F->WriteLo - 1, F->WriteHi),
                Section::interval(F->PairLo, F->PairHi)};
}

UseSet ClosedFormDistanceChecker::factDependencies() const {
  UseSet U;
  collectSymbols(Distance, U);
  U.Reads.erase(placeholderSymbol());
  U.merge(ConsumedDeps);
  return U;
}

std::optional<SymExpr>
ClosedFormDistanceChecker::discoverDistance(const Program &P,
                                            const Symbol *Target) {
  std::optional<SymExpr> Discovered;
  bool Consistent = true;
  P.forEachStmt([&](Stmt *S) {
    const auto *AS = dyn_cast<AssignStmt>(S);
    if (!AS || !Consistent)
      return;
    auto Match = matchRecurrence(Target, AS);
    if (!Match)
      return;
    const auto &[Pos, D] = *Match;
    // Normalize the distance to a function of the placeholder: Pos must be
    // v + c for a scalar v, giving D(pos) = D[v := pos - c].
    const Symbol *V = nullptr;
    int64_t VCoeff = 0;
    for (const auto &[Key, Term] : Pos.terms()) {
      if (Term.first->kind() != AtomKind::Var || V) {
        Consistent = false;
        return;
      }
      V = Term.first->symbol();
      VCoeff = Term.second;
    }
    SymExpr Norm;
    if (!V) {
      // Constant position: the distance applies to one point only; it
      // cannot define a whole closed form.
      Consistent = false;
      return;
    }
    if (VCoeff != 1) {
      Consistent = false;
      return;
    }
    int64_t Shift = Pos.constantTerm();
    Norm = D.substituteVar(
        V, SymExpr::var(placeholderSymbol()) - SymExpr::constant(Shift));
    if (!Discovered)
      Discovered = Norm;
    else if (!(Discovered->equals(Norm)))
      Consistent = false;
  });
  if (!Consistent)
    return std::nullopt;
  return Discovered;
}

bool ClosedFormDistanceChecker::hasConstantBase(const Program &P,
                                                const Symbol *Target) {
  bool Found = false;
  P.forEachStmt([&](Stmt *S) {
    const auto *AS = dyn_cast<AssignStmt>(S);
    if (!AS)
      return;
    const mf::ArrayRef *LHS = AS->arrayTarget();
    if (!LHS || LHS->array() != Target || LHS->rank() != 1)
      return;
    if (SymExpr::fromAst(LHS->subscript(0)).isConstant() &&
        SymExpr::fromAst(AS->rhs()).isConstant())
      Found = true;
  });
  return Found;
}

//===----------------------------------------------------------------------===//
// ClosedFormValueChecker
//===----------------------------------------------------------------------===//

Effect ClosedFormValueChecker::summarizeAssign(const AssignStmt *S) {
  const Symbol *Written = S->writtenSymbol();
  if (Written != Target)
    return Value.references(Written) ? Effect::killAll() : Effect::none();

  const mf::ArrayRef *LHS = S->arrayTarget();
  if (!LHS || LHS->rank() != 1)
    return Effect::killAll();
  SymExpr E = SymExpr::fromAst(LHS->subscript(0));
  SymExpr Expected = Value.substituteVar(placeholderSymbol(), E);
  if ((Expected - SymExpr::fromAst(S->rhs())).isZero()) {
    ++GenSites;
    return {Section::empty(), Section::point(E)};
  }
  // A mismatching definition kills the element it writes (Fig. 8's st2).
  bool Analyzable = true;
  for (const auto &[Key, Term] : E.terms())
    if (Term.first->kind() != AtomKind::Var)
      Analyzable = false;
  if (Analyzable)
    return {Section::point(E), Section::empty()};
  return Effect::killAll();
}

UseSet ClosedFormValueChecker::factDependencies() const {
  UseSet U;
  collectSymbols(Value, U);
  U.Reads.erase(placeholderSymbol());
  return U;
}

//===----------------------------------------------------------------------===//
// ClosedFormBoundChecker
//===----------------------------------------------------------------------===//

void ClosedFormBoundChecker::widen(const SymRange &R) {
  if (!Sawany) {
    Bounds = R;
    Sawany = true;
    return;
  }
  if (Bounds.Lo.isFinite() && R.Lo.isFinite())
    Bounds.Lo = SymBound::finite(SymExpr::min(Bounds.Lo.E, R.Lo.E));
  else
    Bounds.Lo = SymBound::negInf();
  if (Bounds.Hi.isFinite() && R.Hi.isFinite())
    Bounds.Hi = SymBound::finite(SymExpr::max(Bounds.Hi.E, R.Hi.E));
  else
    Bounds.Hi = SymBound::posInf();
}

Effect ClosedFormBoundChecker::summarizeAssign(const AssignStmt *S) {
  if (S->writtenSymbol() != Target)
    return Effect::none();
  const mf::ArrayRef *LHS = S->arrayTarget();
  if (!LHS || LHS->rank() != 1)
    return Effect::killAll();
  SymExpr E = SymExpr::fromAst(LHS->subscript(0));
  for (const auto &[Key, Term] : E.terms())
    if (Term.first->kind() != AtomKind::Var)
      return Effect::killAll(); // Scatter through another array: opaque.
  widen(valueRangeAt(SymExpr::fromAst(S->rhs()), S));
  ++GenSites;
  return {Section::point(E), Section::point(E)};
}

std::optional<Effect>
ClosedFormBoundChecker::summarizeLoop(const DoStmt *L, const LoopContext &Ctx) {
  GatherLoopInfo G = analyzeGatherLoop(L, Target, Uses);
  if (!G.IsGatherLoop)
    return std::nullopt;
  std::optional<SymExpr> Base = Ctx.ValueBefore(G.Counter);
  if (!Base)
    return Effect::killAll(); // Gathered section has an unknown start.
  widen(G.ValueBounds);
  ++GenSites;
  Section S = Section::interval(*Base + 1, SymExpr::var(G.Counter));
  return Effect{S, S};
}

UseSet ClosedFormBoundChecker::factDependencies() const {
  UseSet U;
  if (Bounds.Lo.isFinite())
    collectSymbols(Bounds.Lo.E, U);
  if (Bounds.Hi.isFinite())
    collectSymbols(Bounds.Hi.E, U);
  return U;
}

//===----------------------------------------------------------------------===//
// MonotonicChecker
//===----------------------------------------------------------------------===//

Effect MonotonicChecker::summarizeAssign(const AssignStmt *S) {
  if (S->writtenSymbol() != Target)
    return Effect::none();
  // Match the recurrence x(e+1) = x(e) + d.
  const mf::ArrayRef *LHS = S->arrayTarget();
  if (!LHS || LHS->rank() != 1)
    return Effect::killAll();
  SymExpr E1 = SymExpr::fromAst(LHS->subscript(0));
  SymExpr Rhs = SymExpr::fromAst(S->rhs());
  AtomRef XTerm;
  for (const auto &[Key, Term] : Rhs.terms()) {
    const auto &[A, Coeff] = Term;
    if (!A->references(Target))
      continue;
    if (XTerm || Coeff != 1 || A->kind() != AtomKind::ArrayElem ||
        A->symbol() != Target)
      return Effect::killAll();
    XTerm = A;
  }
  if (!XTerm)
    return Effect::killAll();
  SymExpr E2 = XTerm->operands()[0];
  if (E2.references(Target) || !(E1 - E2 - 1).isZero())
    return Effect::killAll();
  SymExpr D = Rhs - SymExpr::atom(XTerm);
  if (D.references(Target))
    return Effect::killAll();
  // The step must be provably positive (or non-negative) under the
  // enclosing loop bounds.
  RangeEnv Env = envAt(S);
  bool Ok = Strict ? provablyPositive(D, Env) : provablyNonNegative(D, Env);
  if (!Ok)
    return Effect::killAll();
  ++GenSites;
  // Pair (e2, e2+1) is ordered; writing x(e2+1) disturbs the next pair.
  return {Section::interval(E2 + 1, E2 + 1), Section::point(E2)};
}

std::optional<Effect>
MonotonicChecker::summarizeLoop(const DoStmt *L, const LoopContext &Ctx) {
  GatherLoopInfo G = analyzeGatherLoop(L, Target, Uses);
  if (!G.IsGatherLoop) {
    // A recurrence fact covers the monotone cases the per-statement match
    // cannot see: the accumulator (prefix-sum) shape and array-element
    // steps. Facts for plain scalar-step recurrences are deliberately not
    // consumed — summarizeAssign already proves those.
    const RecurrenceFact *F =
        Ctx.Recurrences ? Ctx.Recurrences->factFor(L, Target) : nullptr;
    RecurrenceClass Need = Strict ? RecurrenceClass::StrictlyIncreasing
                                  : RecurrenceClass::MonotoneNonDec;
    if (F && F->beyondStatementAnalysis() && F->Class >= Need) {
      ++GenSites;
      ++ConsumedFacts;
      ConsumedDeps.merge(F->Deps);
      countRecurrenceFactConsumed();
      return Effect{Section::interval(F->WriteLo - 1, F->WriteHi),
                    Section::interval(F->PairLo, F->PairHi)};
    }
    return std::nullopt;
  }
  // Gathered values are assigned in increasing order of the loop index, so
  // the section is strictly increasing (hence also non-decreasing).
  std::optional<SymExpr> Base = Ctx.ValueBefore(G.Counter);
  if (!Base)
    return Effect::killAll();
  ++GenSites;
  // The pair property spans [base+1 : counter-1] (pairs within the
  // gathered section).
  Section S =
      Section::interval(*Base + 1, SymExpr::var(G.Counter) - 1);
  return Effect{S, S};
}

//===----------------------------------------------------------------------===//
// InjectivityChecker
//===----------------------------------------------------------------------===//

Effect InjectivityChecker::summarizeAssign(const AssignStmt *S) {
  if (S->writtenSymbol() != Target)
    return Effect::none();
  // A lone store can duplicate an existing value; injectivity is a property
  // of whole sections, so be maximally conservative.
  return Effect::killAll();
}

std::optional<Effect>
InjectivityChecker::summarizeLoop(const DoStmt *L, const LoopContext &Ctx) {
  GatherLoopInfo G = analyzeGatherLoop(L, Target, Uses);
  if (!G.IsGatherLoop) {
    // Strictly increasing values are pairwise distinct, so a
    // StrictlyIncreasing recurrence generates injectivity over the whole
    // element cover [PairLo, PairHi + 1].
    const RecurrenceFact *F =
        Ctx.Recurrences ? Ctx.Recurrences->factFor(L, Target) : nullptr;
    if (F && F->beyondStatementAnalysis() &&
        F->Class == RecurrenceClass::StrictlyIncreasing) {
      ++GenSites;
      ++ConsumedFacts;
      ConsumedDeps.merge(F->Deps);
      countRecurrenceFactConsumed();
      return Effect{Section::interval(F->WriteLo, F->WriteHi),
                    Section::interval(F->elemLo(), F->elemHi())};
    }
    return std::nullopt;
  }
  std::optional<SymExpr> Base = Ctx.ValueBefore(G.Counter);
  if (!Base)
    return Effect::killAll();
  ++GenSites;
  Section S = Section::interval(*Base + 1, SymExpr::var(G.Counter));
  return Effect{S, S};
}
