//===- analysis/SymbolUses.cpp - Read/write symbol summaries --------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "analysis/SymbolUses.h"

#include "support/Statistic.h"

using namespace iaa;
using namespace iaa::analysis;
using namespace iaa::mf;

#define IAA_STAT_GROUP "uses"
IAA_STAT(uses_program_summaries, "Whole-program symbol-use summaries built");

void SymbolUses::exprReads(const Expr *E, UseSet &Out) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
    return;
  case ExprKind::VarRef:
    Out.Reads.insert(cast<VarRef>(E)->symbol());
    return;
  case ExprKind::ArrayRef: {
    const auto *AR = cast<ArrayRef>(E);
    Out.Reads.insert(AR->array());
    for (const Expr *Sub : AR->subscripts())
      exprReads(Sub, Out);
    return;
  }
  case ExprKind::Unary:
    exprReads(cast<UnaryExpr>(E)->operand(), Out);
    return;
  case ExprKind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    exprReads(BE->lhs(), Out);
    exprReads(BE->rhs(), Out);
    return;
  }
  }
}

SymbolUses::SymbolUses(const Program &P) {
  ++uses_program_summaries;
  // Procedures may call each other (non-recursively); iterate until the
  // transitive sets stabilize. MF programs are small, so a simple fixpoint
  // is fine.
  for (const Procedure *Proc : P.procedures())
    ProcUses[Proc] = UseSet();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Procedure *Proc : P.procedures()) {
      UseSet U;
      for (const Stmt *S : Proc->body())
        accumulate(S, U);
      UseSet &Slot = ProcUses[Proc];
      size_t Before = Slot.Reads.size() + Slot.Writes.size();
      Slot.merge(U);
      if (Slot.Reads.size() + Slot.Writes.size() != Before)
        Changed = true;
    }
  }
}

const UseSet &SymbolUses::procedureUses(const Procedure *P) const {
  static const UseSet EmptySet;
  auto It = ProcUses.find(P);
  return It == ProcUses.end() ? EmptySet : It->second;
}

void SymbolUses::accumulate(const Stmt *S, UseSet &Out) const {
  switch (S->kind()) {
  case StmtKind::Assign: {
    const auto *AS = cast<AssignStmt>(S);
    Out.Writes.insert(AS->writtenSymbol());
    if (const auto *AR = AS->arrayTarget())
      for (const Expr *Sub : AR->subscripts())
        exprReads(Sub, Out);
    exprReads(AS->rhs(), Out);
    return;
  }
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    exprReads(IS->condition(), Out);
    for (const Stmt *Sub : IS->thenBody())
      accumulate(Sub, Out);
    for (const Stmt *Sub : IS->elseBody())
      accumulate(Sub, Out);
    return;
  }
  case StmtKind::Do: {
    const auto *DS = cast<DoStmt>(S);
    Out.Writes.insert(DS->indexVar());
    exprReads(DS->lower(), Out);
    exprReads(DS->upper(), Out);
    if (DS->step())
      exprReads(DS->step(), Out);
    for (const Stmt *Sub : DS->body())
      accumulate(Sub, Out);
    return;
  }
  case StmtKind::While: {
    const auto *WS = cast<WhileStmt>(S);
    exprReads(WS->condition(), Out);
    for (const Stmt *Sub : WS->body())
      accumulate(Sub, Out);
    return;
  }
  case StmtKind::Call: {
    const auto *CS = cast<CallStmt>(S);
    if (const Procedure *Callee = CS->callee()) {
      auto It = ProcUses.find(Callee);
      if (It != ProcUses.end())
        Out.merge(It->second);
    }
    return;
  }
  }
}

UseSet SymbolUses::stmtUses(const Stmt *S) const {
  UseSet U;
  accumulate(S, U);
  return U;
}

UseSet SymbolUses::bodyUses(const StmtList &Body) const {
  UseSet U;
  for (const Stmt *S : Body)
    accumulate(S, U);
  return U;
}

UseSet SymbolUses::ownUses(const Stmt *S) const {
  UseSet U;
  switch (S->kind()) {
  case StmtKind::Assign:
  case StmtKind::Call:
    accumulate(S, U);
    break;
  case StmtKind::If:
    exprReads(cast<IfStmt>(S)->condition(), U);
    break;
  case StmtKind::Do: {
    const auto *DS = cast<DoStmt>(S);
    U.Writes.insert(DS->indexVar());
    exprReads(DS->lower(), U);
    exprReads(DS->upper(), U);
    if (DS->step())
      exprReads(DS->step(), U);
    break;
  }
  case StmtKind::While:
    exprReads(cast<WhileStmt>(S)->condition(), U);
    break;
  }
  return U;
}

ArraySites::ArraySites(const Program &P, const SymbolUses &Uses) {
  P.forEachStmt([&](Stmt *S) {
    UseSet Own = Uses.ownUses(S);
    Own.Reads.insert(Own.Writes.begin(), Own.Writes.end());
    for (const Symbol *Y : Own.Reads)
      if (Y->isArray())
        Sites[Y].push_back(S);
  });
}

bool ArraySites::referencedOutside(const Symbol *X, const DoStmt *L,
                                   uint64_t *Examined) const {
  auto It = Sites.find(X);
  if (It == Sites.end())
    return false;
  for (const Stmt *S : It->second) {
    if (Examined)
      ++*Examined;
    const Stmt *P = S;
    while (P && P != L)
      P = P->parent();
    if (!P)
      return true;
  }
  return false;
}
