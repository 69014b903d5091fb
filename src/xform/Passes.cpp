//===- xform/Passes.cpp - Polaris-style normalization passes --------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "xform/Passes.h"

#include "analysis/GlobalConstants.h"
#include "analysis/SymbolUses.h"
#include "symbolic/SymExpr.h"

#include <functional>
#include <set>

using namespace iaa;
using namespace iaa::xform;
using namespace iaa::mf;

namespace {

/// Rebuilds \p E, replacing each scalar VarRef through \p OnVar (which
/// returns null to keep the reference).
const Expr *
rewriteExpr(Program &P, const Expr *E,
            const std::function<const Expr *(const VarRef *)> &OnVar,
            bool &Changed) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
    return E;
  case ExprKind::VarRef: {
    const auto *VR = cast<VarRef>(E);
    if (const Expr *Repl = OnVar(VR)) {
      Changed = true;
      return Repl;
    }
    return E;
  }
  case ExprKind::ArrayRef: {
    const auto *AR = cast<mf::ArrayRef>(E);
    std::vector<const Expr *> Subs;
    bool Any = false;
    for (const Expr *Sub : AR->subscripts()) {
      bool SubChanged = false;
      Subs.push_back(rewriteExpr(P, Sub, OnVar, SubChanged));
      Any |= SubChanged;
    }
    if (!Any)
      return E;
    Changed = true;
    return P.makeArrayRef(AR->array(), std::move(Subs), AR->loc());
  }
  case ExprKind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    bool SubChanged = false;
    const Expr *Op = rewriteExpr(P, UE->operand(), OnVar, SubChanged);
    if (!SubChanged)
      return E;
    Changed = true;
    return P.makeUnary(UE->op(), Op, UE->loc());
  }
  case ExprKind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    bool LC = false, RC = false;
    const Expr *L = rewriteExpr(P, BE->lhs(), OnVar, LC);
    const Expr *R = rewriteExpr(P, BE->rhs(), OnVar, RC);
    if (!LC && !RC)
      return E;
    Changed = true;
    return P.makeBinary(BE->op(), L, R, BE->loc());
  }
  }
  return E;
}

/// Rewrites the read positions of one statement (RHS, LHS subscripts,
/// conditions, loop bounds) in place; does not descend into nested bodies.
bool rewriteStmtReads(
    Program &P, Stmt *S,
    const std::function<const Expr *(const VarRef *)> &OnVar) {
  bool Changed = false;
  switch (S->kind()) {
  case StmtKind::Assign: {
    auto *AS = cast<AssignStmt>(S);
    AS->setRHS(rewriteExpr(P, AS->rhs(), OnVar, Changed));
    if (const mf::ArrayRef *T = AS->arrayTarget()) {
      std::vector<const Expr *> Subs;
      bool Any = false;
      for (const Expr *Sub : T->subscripts()) {
        bool SubChanged = false;
        Subs.push_back(rewriteExpr(P, Sub, OnVar, SubChanged));
        Any |= SubChanged;
      }
      if (Any) {
        Changed = true;
        // Rebuild the whole assignment with a fresh target; the new node
        // replaces the old statement's LHS via a const_cast-free route:
        // AssignStmt stores the target as an Expr, so create a new ref and
        // swap the statement wholesale is unnecessary — instead rebuild the
        // target in place through a new AssignStmt is avoided by keeping
        // the Expr immutable and replacing the pointer.
        const Expr *NewT = P.makeArrayRef(T->array(), std::move(Subs),
                                          T->loc());
        AS->setLHS(NewT);
      }
    }
    return Changed;
  }
  case StmtKind::If: {
    auto *IS = cast<IfStmt>(S);
    IS->setCondition(rewriteExpr(P, IS->condition(), OnVar, Changed));
    return Changed;
  }
  case StmtKind::Do: {
    auto *DS = cast<DoStmt>(S);
    DS->setBounds(rewriteExpr(P, DS->lower(), OnVar, Changed),
                  rewriteExpr(P, DS->upper(), OnVar, Changed),
                  DS->step() ? rewriteExpr(P, DS->step(), OnVar, Changed)
                             : nullptr);
    return Changed;
  }
  case StmtKind::While: {
    auto *WS = cast<WhileStmt>(S);
    WS->setCondition(rewriteExpr(P, WS->condition(), OnVar, Changed));
    return Changed;
  }
  case StmtKind::Call:
    return false;
  }
  return Changed;
}

} // namespace

//===----------------------------------------------------------------------===//
// Normalization
//===----------------------------------------------------------------------===//

bool iaa::xform::normalizeProgram(Program &P, DiagnosticEngine &Diags) {
  bool Ok = true;
  P.forEachStmt([&](Stmt *S) {
    if (const auto *DS = dyn_cast<DoStmt>(S)) {
      if (DS->step()) {
        sym::SymExpr Step = sym::SymExpr::fromAst(DS->step());
        if (!Step.isConstant() || Step.constValue() == 0) {
          Diags.error(DS->loc(), "do-loop step must be a nonzero constant");
          Ok = false;
        }
      }
    }
    if (const auto *CS = dyn_cast<CallStmt>(S))
      if (!CS->callee()) {
        Diags.error(CS->loc(), "unresolved call target");
        Ok = false;
      }
  });
  return Ok;
}

//===----------------------------------------------------------------------===//
// Constant propagation
//===----------------------------------------------------------------------===//

unsigned iaa::xform::propagateConstants(Program &P) {
  analysis::GlobalConstants Consts(P);
  unsigned Changes = 0;
  auto OnVar = [&](const VarRef *VR) -> const Expr * {
    if (auto V = Consts.valueOf(VR->symbol())) {
      ++Changes;
      return P.makeIntLit(*V, VR->loc());
    }
    return nullptr;
  };
  P.forEachStmt([&](Stmt *S) { rewriteStmtReads(P, S, OnVar); });
  return Changes;
}

//===----------------------------------------------------------------------===//
// Forward substitution
//===----------------------------------------------------------------------===//

namespace {

/// Substitutes reads of \p T by \p Repl through \p Body starting at
/// \p StartIdx, stopping when T or anything Repl depends on is redefined.
void substituteForward(Program &P, const analysis::SymbolUses &Uses,
                       StmtList &Body, size_t StartIdx, const Symbol *T,
                       const Expr *Repl, const analysis::UseSet &ReplDeps,
                       unsigned &Changes) {
  auto OnVar = [&](const VarRef *VR) -> const Expr * {
    return VR->symbol() == T ? Repl : nullptr;
  };
  auto Conflicts = [&](const analysis::UseSet &W) {
    if (W.writes(T))
      return true;
    for (const Symbol *D : ReplDeps.Reads)
      if (W.writes(D))
        return true;
    return false;
  };

  for (size_t I = StartIdx; I < Body.size(); ++I) {
    Stmt *S = Body[I];
    // Stop at a redefinition of t itself *without* rewriting it: updates
    // like `p = p + 1` must keep their recurrence shape (the single-indexed
    // analysis of Sec. 2 pattern-matches on it).
    if (const auto *AS = dyn_cast<AssignStmt>(S))
      if (!AS->arrayTarget() && AS->writtenSymbol() == T)
        return;
    analysis::UseSet U = Uses.stmtUses(S);
    // A while condition re-evaluates after every body execution, so it may
    // only be rewritten when the body (and the condition itself) is
    // conflict-free. Every other statement head evaluates exactly once,
    // before the statement's own writes.
    if (auto *WhileS = dyn_cast<WhileStmt>(S)) {
      if (Conflicts(U))
        return;
      if (rewriteStmtReads(P, WhileS, OnVar))
        ++Changes;
      substituteForward(P, Uses, WhileS->body(), 0, T, Repl, ReplDeps,
                        Changes);
      continue;
    }
    if (rewriteStmtReads(P, S, OnVar))
      ++Changes;
    if (auto *IS = dyn_cast<IfStmt>(S)) {
      if (Conflicts(U))
        return; // A branch may redefine; stop at the join conservatively.
      substituteForward(P, Uses, IS->thenBody(), 0, T, Repl, ReplDeps,
                        Changes);
      substituteForward(P, Uses, IS->elseBody(), 0, T, Repl, ReplDeps,
                        Changes);
      continue;
    }
    if (auto *DS = dyn_cast<DoStmt>(S)) {
      // A loop body re-executes: safe only if the body itself is
      // conflict-free (then every inner read still sees the same value).
      if (Conflicts(U))
        return;
      substituteForward(P, Uses, DS->body(), 0, T, Repl, ReplDeps, Changes);
      continue;
    }
    if (Conflicts(U))
      return;
  }
}

void forwardSubstituteIn(Program &P, const analysis::SymbolUses &Uses,
                         StmtList &Body, unsigned &Changes) {
  for (size_t I = 0; I < Body.size(); ++I) {
    Stmt *S = Body[I];
    if (auto *IS = dyn_cast<IfStmt>(S)) {
      forwardSubstituteIn(P, Uses, IS->thenBody(), Changes);
      forwardSubstituteIn(P, Uses, IS->elseBody(), Changes);
      continue;
    }
    if (auto *DS = dyn_cast<DoStmt>(S)) {
      forwardSubstituteIn(P, Uses, DS->body(), Changes);
      continue;
    }
    if (auto *WS = dyn_cast<WhileStmt>(S)) {
      forwardSubstituteIn(P, Uses, WS->body(), Changes);
      continue;
    }
    const auto *AS = dyn_cast<AssignStmt>(S);
    if (!AS || AS->arrayTarget())
      continue;
    const Symbol *T = AS->writtenSymbol();
    if (T->elementKind() != ScalarKind::Int)
      continue;
    analysis::UseSet Deps;
    analysis::SymbolUses::exprReads(AS->rhs(), Deps);
    if (Deps.reads(T))
      continue; // t = f(t) is not substitutable.
    substituteForward(P, Uses, Body, I + 1, T, AS->rhs(), Deps, Changes);
  }
}

} // namespace

unsigned iaa::xform::forwardSubstitute(Program &P) {
  analysis::SymbolUses Uses(P);
  unsigned Changes = 0;
  for (Procedure *Proc : P.procedures())
    forwardSubstituteIn(P, Uses, Proc->body(), Changes);
  P.relinkParents();
  return Changes;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

unsigned iaa::xform::eliminateDeadCode(Program &P) {
  unsigned Removed = 0;
  // Array extents read scalars too: `real x(n)` needs n's constant
  // definition even after const-prop has rewritten every statement that
  // read n.
  analysis::UseSet ExtentUses;
  for (const Symbol *S : P.symbols())
    for (unsigned D = 0; D < S->rank(); ++D)
      analysis::SymbolUses::exprReads(S->extent(D), ExtentUses);
  for (int Round = 0; Round < 3; ++Round) {
    // Scalars read anywhere (conditions, bounds, subscripts, RHS, extents).
    std::set<const Symbol *> Read = ExtentUses.Reads;
    P.forEachStmt([&](Stmt *S) {
      analysis::UseSet U;
      switch (S->kind()) {
      case StmtKind::Assign: {
        const auto *AS = cast<AssignStmt>(S);
        analysis::SymbolUses::exprReads(AS->rhs(), U);
        if (const mf::ArrayRef *T = AS->arrayTarget())
          for (const Expr *Sub : T->subscripts())
            analysis::SymbolUses::exprReads(Sub, U);
        break;
      }
      case StmtKind::If:
        analysis::SymbolUses::exprReads(cast<IfStmt>(S)->condition(), U);
        break;
      case StmtKind::Do: {
        const auto *DS = cast<DoStmt>(S);
        analysis::SymbolUses::exprReads(DS->lower(), U);
        analysis::SymbolUses::exprReads(DS->upper(), U);
        if (DS->step())
          analysis::SymbolUses::exprReads(DS->step(), U);
        break;
      }
      case StmtKind::While:
        analysis::SymbolUses::exprReads(cast<WhileStmt>(S)->condition(), U);
        break;
      case StmtKind::Call:
        break;
      }
      Read.insert(U.Reads.begin(), U.Reads.end());
    });

    unsigned Before = Removed;
    std::function<void(StmtList &)> Filter = [&](StmtList &Body) {
      StmtList Kept;
      for (Stmt *S : Body) {
        if (auto *IS = dyn_cast<IfStmt>(S)) {
          Filter(IS->thenBody());
          Filter(IS->elseBody());
        } else if (auto *DS = dyn_cast<DoStmt>(S)) {
          Filter(DS->body());
        } else if (auto *WS = dyn_cast<WhileStmt>(S)) {
          Filter(WS->body());
        } else if (auto *AS = dyn_cast<AssignStmt>(S)) {
          const Symbol *T = AS->writtenSymbol();
          if (!AS->arrayTarget() && !Read.count(T)) {
            ++Removed;
            continue; // Drop the dead assignment.
          }
        }
        Kept.push_back(S);
      }
      Body = std::move(Kept);
    };
    for (Procedure *Proc : P.procedures())
      Filter(Proc->body());
    if (Removed == Before)
      break;
  }
  P.relinkParents();
  return Removed;
}

//===----------------------------------------------------------------------===//
// Induction variable substitution (minimal form)
//===----------------------------------------------------------------------===//

unsigned iaa::xform::substituteInductions(Program &P) {
  unsigned Changes = 0;
  std::function<void(StmtList &)> Visit = [&](StmtList &Body) {
    for (size_t I = 0; I < Body.size(); ++I) {
      Stmt *S = Body[I];
      if (auto *IS = dyn_cast<IfStmt>(S)) {
        Visit(IS->thenBody());
        Visit(IS->elseBody());
        continue;
      }
      if (auto *WS = dyn_cast<WhileStmt>(S)) {
        Visit(WS->body());
        continue;
      }
      auto *DS = dyn_cast<DoStmt>(S);
      if (!DS)
        continue;
      Visit(DS->body());
      if (DS->body().empty() || I == 0 || (DS->step() != nullptr))
        continue;
      // Pattern: preceding `p = c0` and body-leading `p = p + c`, with no
      // other definition of p in the body.
      const auto *Init = dyn_cast<AssignStmt>(Body[I - 1]);
      const auto *Inc = dyn_cast<AssignStmt>(DS->body()[0]);
      if (!Init || !Inc || Init->arrayTarget() || Inc->arrayTarget())
        continue;
      const Symbol *Pvar = Inc->writtenSymbol();
      if (Init->writtenSymbol() != Pvar || Pvar == DS->indexVar())
        continue;
      sym::SymExpr C0 = sym::SymExpr::fromAst(Init->rhs());
      if (!C0.isConstant())
        continue;
      sym::SymExpr IncRhs = sym::SymExpr::fromAst(Inc->rhs());
      sym::SymExpr Delta = IncRhs - sym::SymExpr::var(Pvar);
      if (!Delta.isConstant() || IncRhs.coeffOfVar(Pvar) != 1)
        continue;
      // No other definition of p in the body.
      unsigned Defs = 0;
      Program::forEachStmtIn(DS->body(), [&](Stmt *Sub) {
        if (const auto *AS = dyn_cast<AssignStmt>(Sub))
          if (!AS->arrayTarget() && AS->writtenSymbol() == Pvar)
            ++Defs;
        if (const auto *Inner = dyn_cast<DoStmt>(Sub))
          if (Inner->indexVar() == Pvar)
            Defs += 2;
      });
      if (Defs != 1)
        continue;
      // p inside the body (after the increment) equals
      //   c0 + delta * (i - lo + 1).
      const Expr *IMinusLo = P.makeBinary(
          BinaryOp::Sub, P.makeVarRef(DS->indexVar()), DS->lower());
      const Expr *Iter = P.makeBinary(BinaryOp::Add, IMinusLo,
                                      P.makeIntLit(1));
      const Expr *Scaled = P.makeBinary(
          BinaryOp::Mul, P.makeIntLit(Delta.constValue()), Iter);
      const Expr *Closed = P.makeBinary(
          BinaryOp::Add, P.makeIntLit(C0.constValue()), Scaled);
      auto OnVar = [&](const VarRef *VR) -> const Expr * {
        return VR->symbol() == Pvar ? Closed : nullptr;
      };
      bool Rewrote = false;
      for (size_t K = 1; K < DS->body().size(); ++K) {
        StmtList One = {DS->body()[K]};
        Program::forEachStmtIn(One, [&](Stmt *Sub) {
          if (rewriteStmtReads(P, Sub, OnVar))
            Rewrote = true;
        });
      }
      if (Rewrote)
        ++Changes;
    }
  };
  for (Procedure *Proc : P.procedures())
    Visit(Proc->body());
  P.relinkParents();
  return Changes;
}
