//===- xform/Privatization.cpp - Array and scalar privatization -----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "xform/Privatization.h"

#include "analysis/SingleIndex.h"
#include "support/Statistic.h"
#include "support/Trace.h"

#include <functional>

using namespace iaa;
using namespace iaa::xform;
using namespace iaa::analysis;
using namespace iaa::mf;
using namespace iaa::sec;
using namespace iaa::sym;

namespace {

/// Collects array-read references from an expression.
void collectArrayReads(const Expr *E,
                       std::vector<const mf::ArrayRef *> &Out) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::RealLit:
  case ExprKind::VarRef:
    return;
  case ExprKind::ArrayRef: {
    const auto *AR = cast<mf::ArrayRef>(E);
    Out.push_back(AR);
    for (const Expr *Sub : AR->subscripts())
      collectArrayReads(Sub, Out);
    return;
  }
  case ExprKind::Unary:
    collectArrayReads(cast<UnaryExpr>(E)->operand(), Out);
    return;
  case ExprKind::Binary:
    collectArrayReads(cast<BinaryExpr>(E)->lhs(), Out);
    collectArrayReads(cast<BinaryExpr>(E)->rhs(), Out);
    return;
  }
}

/// True when \p E is built from Var atoms only (no array elements, no
/// nonlinear nodes) — a "plain" subscript we can reason about directly.
bool isPlainSubscript(const SymExpr &E) {
  for (const auto &[Key, Term] : E.terms())
    if (Term.first->kind() != AtomKind::Var)
      return false;
  return true;
}

} // namespace

/// Per-candidate-array tracking during the walk.
struct Privatizer::ArrayState {
  bool Exposed = false;
  bool UsedCW = false;
  bool UsedStack = false;
  bool UsedCFB = false;
  /// Name of the index array whose CFB property bounded the reads.
  std::string CFBIndex;
  std::string Detail;
};

/// The UER walk. MUST-written sections are kept as a stack of overlays: the
/// innermost overlay collects writes of the loop being walked; on loop exit
/// it is aggregated over the loop index and merged one level up.
struct Privatizer::Walker {
  Privatizer &Priv;
  const DoStmt *Target;
  std::map<const Symbol *, ArrayState> &States;
  PrivatizationResult &Result;

  /// Overlay stack: Must[0] is the iteration level of the target loop.
  std::vector<std::map<const Symbol *, Section>> Must;
  /// MAY-written overlay stack mirroring Must, used only for the last-value
  /// proof. A Universe section marks writes that cannot be bounded.
  std::vector<std::map<const Symbol *, Section>> May;
  /// Loop context: (index, lo, up) of open inner loops.
  std::vector<const DoStmt *> OpenLoops;
  RangeEnv Env;
  /// Known constant values of scalars at the current walk point.
  std::map<const Symbol *, SymExpr> ScalarVals;

  Walker(Privatizer &Priv, const DoStmt *Target,
         std::map<const Symbol *, ArrayState> &States,
         PrivatizationResult &Result)
      : Priv(Priv), Target(Target), States(States), Result(Result) {
    Priv.Consts.bindAll(Env);
    Env.bindVar(Target->indexVar(),
                SymRange::of(SymExpr::fromAst(Target->lower()),
                             SymExpr::fromAst(Target->upper())));
    Must.emplace_back();
    May.emplace_back();
  }

  bool isCandidate(const Symbol *X) const { return States.count(X) != 0; }

  /// The union view of MUST-written sections for X across all levels is
  /// approximated by checking containment level by level.
  bool covered(const Symbol *X, const Section &Read) const {
    for (const auto &Level : Must) {
      auto It = Level.find(X);
      if (It != Level.end() &&
          Section::provablyContains(It->second, Read, Env))
        return true;
    }
    return false;
  }

  void addMustWrite(const Symbol *X, const Section &S) {
    auto &Level = Must.back();
    auto It = Level.find(X);
    if (It == Level.end())
      Level.emplace(X, S);
    else
      It->second = Section::unionMust(It->second, S, Env);
  }

  void addMayWrite(const Symbol *X, const Section &S) {
    auto &Level = May.back();
    auto It = Level.find(X);
    if (It == Level.end())
      Level.emplace(X, S);
    else
      It->second = Section::unionMay(It->second, S, Env);
  }

  /// Invalidate state depending on scalar \p S: its value changed. MUST
  /// sections can simply be dropped; MAY sections must over-approximate, so
  /// they widen to Universe instead.
  void scalarWritten(const Symbol *S) {
    ScalarVals.erase(S);
    for (auto &Level : Must)
      for (auto It = Level.begin(); It != Level.end();)
        if (It->second.referencesVar(S))
          It = Level.erase(It);
        else
          ++It;
    for (auto &Level : May)
      for (auto &[X, Sec] : Level)
        if (Sec.referencesVar(S))
          Sec = Section::universe();
  }

  /// The MAY-read section of one reference to candidate X at \p Site.
  /// Returns nullopt when it cannot be bounded (treat as exposed).
  std::optional<Section> readSection(const mf::ArrayRef *AR,
                                     const Stmt *Site) {
    if (AR->rank() != 1)
      return std::nullopt;
    SymExpr E = SymExpr::fromAst(AR->subscript(0));
    if (isPlainSubscript(E))
      return Section::point(E);

    // Indirect read x(ind(j)): bound the index array's values (CFB).
    if (!Priv.EnableIAA)
      return std::nullopt;
    AtomRef A = E.asSingleAtom();
    if (!A || A->kind() != AtomKind::ArrayElem || A->operands().size() != 1)
      return std::nullopt;
    const Symbol *Q = A->symbol();
    // The section of Q being read: sweep the subscript over the open inner
    // loops at this site.
    SymExpr SubLo = A->operands()[0];
    SymExpr SubHi = SubLo;
    for (auto It = OpenLoops.rbegin(); It != OpenLoops.rend(); ++It) {
      const DoStmt *DS = *It;
      SymRange LoSw = rangeOverVar(SubLo, DS->indexVar(),
                                   SymExpr::fromAst(DS->lower()),
                                   SymExpr::fromAst(DS->upper()));
      SymRange HiSw = rangeOverVar(SubHi, DS->indexVar(),
                                   SymExpr::fromAst(DS->lower()),
                                   SymExpr::fromAst(DS->upper()));
      if (!LoSw.Lo.isFinite() || !HiSw.Hi.isFinite())
        return std::nullopt;
      SubLo = LoSw.Lo.E;
      SubHi = HiSw.Hi.E;
    }
    ClosedFormBoundChecker CFB(Q, Priv.Uses);
    ++Result.PropertyQueries;
    PropertyResult PR =
        Priv.Solver.verifyBefore(Site, CFB, Section::interval(SubLo, SubHi));
    if (!PR.Verified)
      return std::nullopt;
    const SymRange &B = CFB.valueBounds();
    if (!B.Lo.isFinite() || !B.Hi.isFinite())
      return std::nullopt;
    States[AR->array()].UsedCFB = true;
    States[AR->array()].CFBIndex = Q->name();
    return Section::interval(B.Lo.E, B.Hi.E);
  }

  void processRead(const mf::ArrayRef *AR, const Stmt *Site) {
    const Symbol *X = AR->array();
    if (!isCandidate(X))
      return;
    ArrayState &St = States[X];
    if (St.Exposed)
      return;
    std::optional<Section> Read = readSection(AR, Site);
    if (!Read || !covered(X, *Read)) {
      St.Exposed = true;
      St.Detail = "read at " + Site->loc().str() + " not covered";
    }
  }

  void processReadsIn(const Expr *E, const Stmt *Site) {
    std::vector<const mf::ArrayRef *> Reads;
    collectArrayReads(E, Reads);
    for (const mf::ArrayRef *AR : Reads)
      processRead(AR, Site);
  }

  void walkAssign(AssignStmt *AS) {
    processReadsIn(AS->rhs(), AS);
    if (const mf::ArrayRef *T = AS->arrayTarget()) {
      for (const Expr *Sub : T->subscripts())
        processReadsIn(Sub, AS);
      if (isCandidate(T->array())) {
        bool Bounded = false;
        if (T->rank() == 1) {
          SymExpr E = SymExpr::fromAst(T->subscript(0));
          if (isPlainSubscript(E)) {
            addMustWrite(T->array(), Section::point(E));
            addMayWrite(T->array(), Section::point(E));
            Bounded = true;
          }
        }
        if (!Bounded)
          addMayWrite(T->array(), Section::universe());
      }
      return;
    }
    // Scalar assignment: track constants, invalidate dependents.
    const Symbol *S = AS->writtenSymbol();
    SymExpr V = SymExpr::fromAst(AS->rhs());
    scalarWritten(S);
    if (V.isConstant())
      ScalarVals.emplace(S, V);
  }

  void walkIf(IfStmt *IS) {
    processReadsIn(IS->condition(), IS);
    // Branches see the incoming state; afterwards only MUST facts valid on
    // both sides survive. Scalar constants diverge conservatively.
    auto MustIn = Must;
    auto ValsIn = ScalarVals;
    walkBody(IS->thenBody());
    auto MustThen = Must;
    auto ValsThen = ScalarVals;
    Must = MustIn;
    ScalarVals = ValsIn;
    walkBody(IS->elseBody());

    // Merge: per level, per array, intersect.
    for (size_t Lvl = 0; Lvl < Must.size(); ++Lvl) {
      std::map<const Symbol *, Section> Merged;
      for (const auto &[X, SecElse] : Must[Lvl]) {
        auto It = MustThen[Lvl].find(X);
        if (It == MustThen[Lvl].end())
          continue;
        Section M = Section::intersectMust(It->second, SecElse, Env);
        if (!M.isEmpty())
          Merged.emplace(X, M);
      }
      Must[Lvl] = std::move(Merged);
    }
    for (auto It = ScalarVals.begin(); It != ScalarVals.end();) {
      auto Jt = ValsThen.find(It->first);
      if (Jt == ValsThen.end() || !Jt->second.equals(It->second))
        It = ScalarVals.erase(It);
      else
        ++It;
    }
  }

  /// Consecutively-written contribution of a loop region (Sec. 2.2 +
  /// Sec. 5.1.2): for each candidate written in \p RegionBody that is
  /// single-indexed and consecutively written, and whose index variable has
  /// a known value c at region entry, the region MUST-writes [c+1 : p].
  std::map<const Symbol *, Section>
  cwContribution(const StmtList &RegionBody) {
    std::map<const Symbol *, Section> Adds;
    if (!Priv.EnableIAA)
      return Adds;
    UseSet BodyU = Priv.Uses.bodyUses(RegionBody);
    SingleIndexAnalysis SIA(RegionBody, Priv.Uses);
    for (const auto &[X, St] : States) {
      if (!BodyU.writes(X))
        continue;
      SingleIndexResult SR = SIA.classify(X);
      if (!SR.ConsecutivelyWritten || SR.HasReads)
        continue;
      auto ValIt = ScalarVals.find(SR.IndexVar);
      if (ValIt == ScalarVals.end())
        continue; // Unknown starting value of the index.
      Adds.emplace(X, Section::interval(ValIt->second + 1,
                                        SymExpr::var(SR.IndexVar)));
    }
    return Adds;
  }

  void walkDo(DoStmt *DS) {
    processReadsIn(DS->lower(), DS);
    processReadsIn(DS->upper(), DS);
    if (DS->step())
      processReadsIn(DS->step(), DS);

    const Symbol *I = DS->indexVar();
    SymExpr Lo = SymExpr::fromAst(DS->lower());
    SymExpr Up = SymExpr::fromAst(DS->upper());
    scalarWritten(I);
    UseSet BodyW = Priv.Uses.bodyUses(DS->body());

    // A consecutively-written candidate (e.g. a gather loop's index array)
    // covers [c+1 : counter] as a whole-loop effect. Computed against the
    // entry state, applied after the scalar invalidation below.
    std::map<const Symbol *, Section> CwAdds = cwContribution(DS->body());

    bool UnitStep = !DS->step();
    if (DS->step()) {
      SymExpr Step = SymExpr::fromAst(DS->step());
      UnitStep = Step.isConstant() && Step.constValue() == 1;
    }

    Env.bindVar(I, SymRange::of(Lo, Up));
    OpenLoops.push_back(DS);
    Must.emplace_back();
    May.emplace_back();
    walkBody(DS->body());
    std::map<const Symbol *, Section> LoopWrites = std::move(Must.back());
    Must.pop_back();
    std::map<const Symbol *, Section> LoopMay = std::move(May.back());
    May.pop_back();
    OpenLoops.pop_back();

    // Aggregate this loop's MUST writes over its iteration space. A section
    // whose bounds mention a scalar the body itself writes is not a fixed
    // function of the index and cannot be aggregated.
    auto VariesWithBody = [&](const Section &S) {
      for (const Symbol *W : BodyW.Writes)
        if (W != I && S.referencesVar(W))
          return true;
      return false;
    };
    if (UnitStep)
      for (const auto &[X, S] : LoopWrites) {
        if (VariesWithBody(S))
          continue;
        Section Agg = Section::aggregateMust(S, I, Lo, Up, Env);
        if (!Agg.isEmpty())
          addMustWrite(X, Agg);
      }
    for (const auto &[X, S] : LoopMay) {
      if (!UnitStep || VariesWithBody(S))
        addMayWrite(X, Section::universe());
      else
        addMayWrite(X, Section::aggregateMay(S, I, Lo, Up, Env));
    }

    // Scalars written by the loop body have unknown final values.
    for (const Symbol *W : BodyW.Writes)
      if (!W->isArray())
        scalarWritten(W);
    // After the loop the index holds up+1, not a value in [lo, up].
    Env.bindVar(I, SymRange::of(Lo, Up + 1));
    scalarWritten(I);

    for (const auto &[X, S] : CwAdds) {
      addMustWrite(X, S);
      States[X].UsedCW = true;
    }
  }

  void walkWhile(WhileStmt *WS) {
    processReadsIn(WS->condition(), WS);
    // Reads inside the while loop: conservatively exposed unless covered at
    // entry (trip count unknown, index values unknown) — except that a
    // consecutively-written array is *covered by itself* below.
    UseSet BodyU = Priv.Uses.bodyUses(WS->body());

    // The while body is not walked statement by statement, so any candidate
    // it writes has an unboundable MAY section.
    for (auto &[X, St] : States)
      if (BodyU.writes(X))
        addMayWrite(X, Section::universe());

    // CW contribution (Sec. 2.2 + Sec. 5.1.2): single-indexed arrays
    // consecutively written in the while body cover [c+1 : p].
    SingleIndexAnalysis SIA(WS->body(), Priv.Uses);
    std::map<const Symbol *, Section> CwAdds;
    std::set<const Symbol *> CwArrays;
    if (Priv.EnableIAA)
      for (const auto &[X, St] : States) {
        if (!BodyU.writes(X))
          continue;
        SingleIndexResult SR = SIA.classify(X);
        if (!SR.ConsecutivelyWritten || SR.HasReads)
          continue;
        auto ValIt = ScalarVals.find(SR.IndexVar);
        if (ValIt == ScalarVals.end())
          continue; // Unknown starting value of the index.
        CwAdds.emplace(X, Section::interval(ValIt->second + 1,
                                            SymExpr::var(SR.IndexVar)));
        CwArrays.insert(X);
      }

    // Any other candidate read inside the while is exposed unless already
    // fully covered; writes contribute no MUST (unknown trip count).
    for (auto &[X, St] : States) {
      if (CwArrays.count(X))
        continue;
      if (BodyU.reads(X) && !covered(X, Section::universe())) {
        St.Exposed = true;
        St.Detail = "read inside while loop";
      }
    }

    // Scalar effects.
    for (const Symbol *W : BodyU.Writes)
      if (!W->isArray())
        scalarWritten(W);

    for (const auto &[X, S] : CwAdds) {
      addMustWrite(X, S);
      States[X].UsedCW = true;
    }
  }

  void walkCall(CallStmt *CS) {
    const UseSet &U = Priv.Uses.procedureUses(CS->callee());
    for (auto &[X, St] : States) {
      if (U.reads(X) && !covered(X, Section::universe())) {
        St.Exposed = true;
        St.Detail = "read inside call to " + CS->calleeName();
      }
      if (U.writes(X))
        addMayWrite(X, Section::universe());
    }
    for (const Symbol *W : U.Writes)
      if (!W->isArray())
        scalarWritten(W);
  }

  /// Call after the walk. True when copying the final iteration's private
  /// copy of \p X back reproduces serial last-value semantics: every
  /// iteration MUST-writes a section M that is invariant in the target loop
  /// index (so each iteration overwrites the same elements with its own
  /// values), and every MAY write lands inside M (so elements outside M keep
  /// their pre-loop, copy-in values). MUST sections referencing scalars the
  /// body writes were already dropped by scalarWritten, so a surviving M is
  /// the same section on every iteration.
  bool lastValueProvable(const Symbol *X) const {
    auto MI = Must.front().find(X);
    if (MI == Must.front().end())
      return false;
    const Section &M = MI->second;
    if (M.isEmpty() || M.referencesVar(Target->indexVar()))
      return false;
    auto YI = May.front().find(X);
    if (YI == May.front().end())
      return true;
    return Section::provablyContains(M, YI->second, Env);
  }

  void walkBody(const StmtList &Body) {
    for (Stmt *S : Body) {
      switch (S->kind()) {
      case StmtKind::Assign:
        walkAssign(cast<AssignStmt>(S));
        break;
      case StmtKind::If:
        walkIf(cast<IfStmt>(S));
        break;
      case StmtKind::Do:
        walkDo(cast<DoStmt>(S));
        break;
      case StmtKind::While:
        walkWhile(cast<WhileStmt>(S));
        break;
      case StmtKind::Call:
        walkCall(cast<CallStmt>(S));
        break;
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// Scalar classification
//===----------------------------------------------------------------------===//

namespace {

enum class ScalarState { NotWritten = 0, MaybeWritten = 1, Written = 2 };

struct ScalarWalk {
  const UseSet &BodyWrites;
  const Symbol *LoopIndex;
  const std::set<const Symbol *> &ReductionVars;
  const std::set<const AssignStmt *> &ReductionStmts;
  std::map<const Symbol *, ScalarState> State;
  std::set<const Symbol *> Carried;
  const SymbolUses &Uses;

  ScalarState stateOf(const Symbol *S) const {
    auto It = State.find(S);
    return It == State.end() ? ScalarState::NotWritten : It->second;
  }

  void readScalar(const Symbol *S) {
    if (S->isArray() || S == LoopIndex)
      return;
    if (!BodyWrites.writes(S))
      return; // Loop-invariant input.
    if (ReductionVars.count(S))
      return; // Reduction reads are handled by the runtime.
    if (stateOf(S) != ScalarState::Written)
      Carried.insert(S);
  }

  void readExpr(const Expr *E) {
    UseSet U;
    SymbolUses::exprReads(E, U);
    for (const Symbol *S : U.Reads)
      readScalar(S);
  }

  void write(const Symbol *S, ScalarState St) {
    auto [It, Inserted] = State.try_emplace(S, St);
    if (!Inserted)
      It->second = std::max(It->second, St);
  }

  /// Per-symbol minimum of two state maps (absent = NotWritten).
  static std::map<const Symbol *, ScalarState>
  meet(const std::map<const Symbol *, ScalarState> &A,
       const std::map<const Symbol *, ScalarState> &B) {
    std::map<const Symbol *, ScalarState> Out;
    for (const auto &[Sym, St] : A) {
      auto It = B.find(Sym);
      Out[Sym] = std::min(St, It == B.end() ? ScalarState::NotWritten
                                            : It->second);
    }
    for (const auto &[Sym, St] : B)
      if (!A.count(Sym))
        Out[Sym] = ScalarState::NotWritten;
    return Out;
  }

  /// Walks one block. Within a linear flow a write is definite for
  /// downstream reads in the same flow; constructs that may not execute
  /// (branches, zero-trip loops) demote their writes at the merge point.
  void walk(const StmtList &Body) {
    for (const Stmt *S : Body) {
      switch (S->kind()) {
      case StmtKind::Assign: {
        const auto *AS = cast<AssignStmt>(S);
        if (!ReductionStmts.count(AS))
          readExpr(AS->rhs());
        if (const mf::ArrayRef *T = AS->arrayTarget()) {
          for (const Expr *Sub : T->subscripts())
            readExpr(Sub);
        } else {
          write(AS->writtenSymbol(), ScalarState::Written);
        }
        break;
      }
      case StmtKind::If: {
        const auto *IS = cast<IfStmt>(S);
        readExpr(IS->condition());
        auto Snapshot = State;
        walk(IS->thenBody());
        auto ThenState = State;
        State = Snapshot;
        walk(IS->elseBody());
        State = meet(ThenState, State);
        break;
      }
      case StmtKind::Do: {
        const auto *DS = cast<DoStmt>(S);
        readExpr(DS->lower());
        readExpr(DS->upper());
        if (DS->step())
          readExpr(DS->step());
        auto Entry = State;
        write(DS->indexVar(), ScalarState::Written);
        // The first iteration sees the entry state; later iterations see
        // strictly more writes, so checking the first is conservative.
        walk(DS->body());
        // The loop may be zero-trip: keep only what held on entry.
        State = meet(Entry, State);
        break;
      }
      case StmtKind::While: {
        const auto *WS = cast<WhileStmt>(S);
        readExpr(WS->condition());
        auto Entry = State;
        walk(WS->body());
        State = meet(Entry, State);
        break;
      }
      case StmtKind::Call: {
        const auto *CS = cast<CallStmt>(S);
        const UseSet &U = Uses.procedureUses(CS->callee());
        for (const Symbol *R : U.Reads)
          readScalar(R);
        for (const Symbol *W : U.Writes)
          if (!W->isArray())
            write(W, ScalarState::MaybeWritten);
        break;
      }
      }
    }
  }
};

/// The symbols \p S itself reads or writes, without its nested statements:
/// an assignment's target, subscripts and right-hand side; an if or while
/// condition; a do's bounds and step; everything a call's callee touches.
UseSet ownUses(const Stmt *S, const SymbolUses &Uses) {
  UseSet U;
  switch (S->kind()) {
  case StmtKind::Assign:
  case StmtKind::Call:
    U = Uses.stmtUses(S);
    break;
  case StmtKind::If:
    SymbolUses::exprReads(cast<IfStmt>(S)->condition(), U);
    break;
  case StmtKind::Do: {
    const auto *DS = cast<DoStmt>(S);
    SymbolUses::exprReads(DS->lower(), U);
    SymbolUses::exprReads(DS->upper(), U);
    if (DS->step())
      SymbolUses::exprReads(DS->step(), U);
    break;
  }
  case StmtKind::While:
    SymbolUses::exprReads(cast<WhileStmt>(S)->condition(), U);
    break;
  }
  return U;
}

/// Finds scalar sum reductions: every access to s in the body is the single
/// statement `s = s + e` (or `s = e + s`) with e independent of s.
void findReductions(const DoStmt *L, const SymbolUses &Uses,
                    std::set<const Symbol *> &Vars,
                    std::set<const AssignStmt *> &Stmts) {
  std::map<const Symbol *, std::vector<const AssignStmt *>> RedCandidates;
  std::map<const Symbol *, unsigned> OtherUses;

  Program::forEachStmtIn(L->body(), [&](Stmt *S) {
    const AssignStmt *AS = dyn_cast<AssignStmt>(S);
    bool IsRed = false;
    const Symbol *RedVar = nullptr;
    if (AS && !AS->arrayTarget()) {
      // Match s = s + e (or s = e + s) at the AST level: real-typed scalars
      // become opaque symbolic atoms, so SymExpr cannot see the recurrence.
      const Symbol *T = AS->writtenSymbol();
      if (const auto *BE = dyn_cast<BinaryExpr>(AS->rhs());
          BE && BE->op() == BinaryOp::Add) {
        const Expr *Self = nullptr;
        const Expr *Other = nullptr;
        if (const auto *L = dyn_cast<VarRef>(BE->lhs());
            L && L->symbol() == T) {
          Self = BE->lhs();
          Other = BE->rhs();
        } else if (const auto *R2 = dyn_cast<VarRef>(BE->rhs());
                   R2 && R2->symbol() == T) {
          Self = BE->rhs();
          Other = BE->lhs();
        }
        if (Self) {
          UseSet OtherReads;
          SymbolUses::exprReads(Other, OtherReads);
          if (!OtherReads.reads(T)) {
            IsRed = true;
            RedVar = T;
          }
        }
      }
    }
    // Count uses of every scalar in this statement.
    UseSet U = ownUses(S, Uses);
    if (IsRed) {
      RedCandidates[RedVar].push_back(AS);
      // The reduction statement's own read/write of RedVar is expected;
      // other symbols it reads count as ordinary uses.
      U.Reads.erase(RedVar);
      U.Writes.erase(RedVar);
    }
    for (const Symbol *R : U.Reads)
      if (!R->isArray())
        ++OtherUses[R];
    for (const Symbol *W : U.Writes)
      if (!W->isArray())
        ++OtherUses[W];
  });

  for (const auto &[Var, List] : RedCandidates) {
    if (OtherUses.count(Var))
      continue; // Used outside its reduction statements.
    Vars.insert(Var);
    Stmts.insert(List.begin(), List.end());
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

#define IAA_STAT_GROUP "privatization"
IAA_STAT(priv_loops_analyzed, "Loops run through the privatizer");
IAA_STAT(priv_arrays_privatized, "Arrays proven privatizable");
IAA_STAT(priv_arrays_exposed, "Arrays with exposed upward reads");
IAA_STAT(priv_liveout_sites_examined,
         "Statements the live-out query examined");

bool Privatizer::referencedOutside(const Symbol *X, const DoStmt *L) {
  if (!Sites) {
    Sites.emplace();
    G.program().forEachStmt([&](Stmt *S) {
      UseSet Own = ownUses(S, Uses);
      Own.Reads.insert(Own.Writes.begin(), Own.Writes.end());
      for (const Symbol *Y : Own.Reads)
        if (Y->isArray())
          (*Sites)[Y].push_back(S);
    });
  }
  auto It = Sites->find(X);
  if (It == Sites->end())
    return false;
  for (const Stmt *S : It->second) {
    ++priv_liveout_sites_examined;
    const Stmt *P = S;
    while (P && P != L)
      P = P->parent();
    if (!P)
      return true;
  }
  return false;
}

PrivatizationResult Privatizer::analyze(const DoStmt *L) {
  trace::TraceScope Span("privatization", "xform");
  if (Span.active() && !L->label().empty())
    Span.arg("loop", L->label());
  ++priv_loops_analyzed;
  PrivatizationResult Result;
  UseSet BodyU = Uses.bodyUses(L->body());

  // Candidate arrays: rank-1 arrays written in the body.
  std::map<const Symbol *, ArrayState> States;
  for (const Symbol *W : BodyU.Writes)
    if (W->isArray() && W->rank() == 1)
      States.emplace(W, ArrayState());

  // Stack rule (Sec. 2.3): stacks with a per-iteration reset are private.
  std::set<const Symbol *> StackPrivate;
  if (EnableIAA) {
    SingleIndexAnalysis SIA(L->body(), Uses);
    for (auto &[X, St] : States) {
      SingleIndexResult SR = SIA.classify(X);
      if (SR.StackAccess) {
        St.UsedStack = true;
        StackPrivate.insert(X);
      }
    }
  }

  // UER walk for the remaining candidates.
  std::map<const Symbol *, bool> LastValue;
  {
    std::map<const Symbol *, ArrayState> WalkStates;
    for (auto &[X, St] : States)
      if (!StackPrivate.count(X))
        WalkStates.emplace(X, St);
    Walker W(*this, L, WalkStates, Result);
    W.walkBody(L->body());
    for (auto &[X, St] : WalkStates) {
      States[X] = St;
      LastValue[X] = W.lastValueProvable(X);
    }
  }

  // Liveness: an array referenced outside the loop is flagged LiveOut, so
  // the runtime copies the last iteration back (and the planner demands
  // the last-value proof first).
  for (auto &[X, St] : States) {
    ArrayPrivOutcome O;
    O.Array = X;
    O.Privatizable = StackPrivate.count(X) || !St.Exposed;
    if (St.UsedStack) {
      O.Reason = "STACK";
      O.PropertiesUsed.push_back(X->name() + ":STACK");
    } else if (St.UsedCW) {
      O.Reason = "CW";
      O.PropertiesUsed.push_back(X->name() + ":CW");
      if (St.UsedCFB)
        O.PropertiesUsed.push_back(St.CFBIndex + ":CFB");
    } else if (St.UsedCFB) {
      O.Reason = "CFB-indirect";
      O.PropertiesUsed.push_back(St.CFBIndex + ":CFB");
    } else {
      O.Reason = "affine";
    }
    O.Detail = St.Detail;
    O.LiveOut = referencedOutside(X, L);
    auto LV = LastValue.find(X);
    O.LastValueOk =
        O.Privatizable && LV != LastValue.end() && LV->second;
    if (O.Privatizable) {
      ++priv_arrays_privatized;
      Result.Arrays.insert(X);
    } else {
      ++priv_arrays_exposed;
    }
    Result.Outcomes.push_back(std::move(O));
  }

  // Scalars.
  std::set<const AssignStmt *> RedStmts;
  findReductions(L, Uses, Result.Scalars.Reductions, RedStmts);
  ScalarWalk SW{BodyU, L->indexVar(), Result.Scalars.Reductions, RedStmts,
                {},    {},            Uses};
  SW.walk(L->body());
  Result.Scalars.Carried = SW.Carried;
  for (const Symbol *W : BodyU.Writes)
    if (!W->isArray() && !Result.Scalars.Reductions.count(W) &&
        !Result.Scalars.Carried.count(W))
      Result.Scalars.Private.insert(W);

  return Result;
}
