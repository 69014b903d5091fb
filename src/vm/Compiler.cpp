//===- vm/Compiler.cpp - AST-to-bytecode lowering for loop plans ----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "mf/Program.h"
#include "support/Casting.h"

#include <cassert>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>

using namespace iaa;
using namespace iaa::mf;
using namespace iaa::vm;

namespace {

/// Calls nest through globals only, so a cycle is the one way inlining can
/// diverge; real MF programs in this repo nest one or two levels deep.
constexpr int MaxInlineDepth = 8;

/// Thrown to abandon a lowering attempt; caught at the compileLoop boundary
/// and turned into CompileResult::Bailout.
struct Bailout {
  std::string Reason;
};

[[noreturn]] void bail(std::string Reason) { throw Bailout{std::move(Reason)}; }

/// Structural equality of expressions, used to recognize the
/// read-modify-write scatter pattern x(ind(e)) = x(ind(e)) + v.
bool exprEquals(const Expr *A, const Expr *B) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::IntLit:
    return cast<IntLit>(A)->value() == cast<IntLit>(B)->value();
  case ExprKind::RealLit:
    return cast<RealLit>(A)->value() == cast<RealLit>(B)->value();
  case ExprKind::VarRef:
    return cast<VarRef>(A)->symbol() == cast<VarRef>(B)->symbol();
  case ExprKind::ArrayRef: {
    const auto *AR = cast<ArrayRef>(A), *BR = cast<ArrayRef>(B);
    if (AR->array() != BR->array() || AR->rank() != BR->rank())
      return false;
    for (unsigned D = 0; D < AR->rank(); ++D)
      if (!exprEquals(AR->subscript(D), BR->subscript(D)))
        return false;
    return true;
  }
  case ExprKind::Unary: {
    const auto *AU = cast<UnaryExpr>(A), *BU = cast<UnaryExpr>(B);
    return AU->op() == BU->op() && exprEquals(AU->operand(), BU->operand());
  }
  case ExprKind::Binary: {
    const auto *AB = cast<BinaryExpr>(A), *BB = cast<BinaryExpr>(B);
    return AB->op() == BB->op() && exprEquals(AB->lhs(), BB->lhs()) &&
           exprEquals(AB->rhs(), BB->rhs());
  }
  }
  return false;
}

/// A recognized a(ind(e) + c) shape: the rank-1 integer index array, the
/// subscript expression feeding it, and the constant offset.
struct GatherShape {
  const ArrayRef *Ind = nullptr; ///< The inner ind(e) reference.
  const Expr *Sub = nullptr;     ///< e.
  int64_t Offset = 0;            ///< c (0 when absent).
};

/// Matches a rank-1 subscript of the fused-access shape ind(e) [+- c].
bool matchGather(const Expr *Subscript, GatherShape &Out) {
  const Expr *Core = Subscript;
  int64_t Off = 0;
  if (const auto *BE = dyn_cast<BinaryExpr>(Subscript)) {
    if (BE->op() == BinaryOp::Add) {
      if (const auto *L = dyn_cast<IntLit>(BE->rhs())) {
        Core = BE->lhs();
        Off = L->value();
      } else if (const auto *L2 = dyn_cast<IntLit>(BE->lhs())) {
        Core = BE->rhs();
        Off = L2->value();
      }
    } else if (BE->op() == BinaryOp::Sub) {
      if (const auto *L = dyn_cast<IntLit>(BE->rhs())) {
        Core = BE->lhs();
        Off = -L->value();
      }
    }
  }
  const auto *AR = dyn_cast<ArrayRef>(Core);
  if (!AR || AR->rank() != 1 ||
      AR->array()->elementKind() != ScalarKind::Int)
    return false;
  Out.Ind = AR;
  Out.Sub = AR->subscript(0);
  Out.Offset = Off;
  return true;
}

/// Shared structural walk behind structuralBailout(): returns the first
/// reason a statement list cannot lower, or null.
const char *structuralWalk(const StmtList &Body, int Depth) {
  if (Depth > MaxInlineDepth)
    return "call chain too deep to inline";
  for (const Stmt *S : Body) {
    switch (S->kind()) {
    case StmtKind::Assign:
      break;
    case StmtKind::While:
      if (const char *R = structuralWalk(cast<WhileStmt>(S)->body(), Depth))
        return R;
      break;
    case StmtKind::Call: {
      const auto *CS = cast<CallStmt>(S);
      if (!CS->callee())
        return "call to unresolved procedure";
      if (const char *R = structuralWalk(CS->callee()->body(), Depth + 1))
        return R;
      break;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      if (const char *R = structuralWalk(IS->thenBody(), Depth))
        return R;
      if (const char *R = structuralWalk(IS->elseBody(), Depth))
        return R;
      break;
    }
    case StmtKind::Do: {
      const auto *DS = cast<DoStmt>(S);
      if (DS->indexVar()->elementKind() != ScalarKind::Int)
        return "non-integer loop index variable";
      if (DS->indexVar()->isArray())
        return "array used as loop index variable";
      if (const char *R = structuralWalk(DS->body(), Depth))
        return R;
      break;
    }
    }
  }
  return nullptr;
}

/// True for the ops whose Imm is a jump target.
bool jumps(Op K) {
  return K == Op::Jmp || K == Op::JmpZ || K == Op::JmpNZ ||
         K == Op::LoopTest || K == Op::LoopBack || K == Op::WhileBack;
}

/// Register type of an expression under MF's static element kinds.
enum class Ty { I, D };

class Lowering {
public:
  Lowering(const DoStmt *DS,
           const std::vector<std::vector<int64_t>> &DimExtents)
      : Root(DS), Ext(DimExtents) {}

  LoopProgram run() {
    if (Root->indexVar()->elementKind() != ScalarKind::Int ||
        Root->indexVar()->isArray())
      bail("non-integer loop index variable");
    P.Loop = Root;
    P.IterReg = allocI();
    P.IndexSlot = slotOf(Root->indexVar());
    ScalarRegs[P.IndexSlot] = {Ty::I, P.IterReg};
    LoopStack.push_back(
        {Root->label().empty() ? "<unlabeled>" : Root->label(), P.IterReg});
    compileBody(Root->body(), 0);
    emit(Op::Halt);
    hoistInvariants();
    P.NumIntRegs = NextI;
    P.NumRealRegs = NextR;
    return std::move(P);
  }

private:
  const DoStmt *Root;
  const std::vector<std::vector<int64_t>> &Ext;
  LoopProgram P;
  unsigned NextI = 0, NextR = 0;
  std::unordered_map<unsigned, uint16_t> SlotIds;
  struct LoopCtx {
    std::string Label;
    uint16_t IterReg;
  };
  std::vector<LoopCtx> LoopStack;

  /// Moves loop invariants into the chunk prologue: MovI/MovD constants and
  /// LdSca loads of scalars the loop never stores (Halt stores the index
  /// variable every iteration), each only when no other instruction writes
  /// its register. Registers are only read after their write in execution
  /// order, so the body sees the values it saw before. Both parts keep
  /// their order; jump targets are renumbered.
  void hoistInvariants() {
    std::vector<unsigned> WritersI(NextI), WritersD(NextR);
    std::vector<bool> Stored(P.Slots.size());
    Stored[P.IndexSlot] = true;
    for (const Instr &In : P.Code) {
      if (writesOf(In.K) == RegFile::I)
        ++WritersI[In.A];
      else if (writesOf(In.K) == RegFile::D)
        ++WritersD[In.A];
      if (In.K == Op::StScaI || In.K == Op::StScaD)
        Stored[In.A] = true;
    }
    auto Invariant = [&](const Instr &In) {
      switch (In.K) {
      case Op::MovI:
        return WritersI[In.A] == 1;
      case Op::MovD:
        return WritersD[In.A] == 1;
      case Op::LdScaI:
        return !Stored[In.B] && WritersI[In.A] == 1;
      case Op::LdScaD:
        return !Stored[In.B] && WritersD[In.A] == 1;
      default:
        return false;
      }
    };
    // BodyAt[K]: the body index of old instruction K, or for a hoisted K
    // of the next instruction left in the body — where a jump to K lands.
    std::vector<Instr> Prologue, Body;
    std::vector<size_t> BodyAt(P.Code.size());
    for (size_t K = 0; K < P.Code.size(); ++K) {
      BodyAt[K] = Body.size();
      (Invariant(P.Code[K]) ? Prologue : Body).push_back(P.Code[K]);
    }
    for (Instr &In : Body)
      if (jumps(In.K))
        In.Imm = int64_t(Prologue.size() + BodyAt[size_t(In.Imm)]);
    P.BodyStart = Prologue.size();
    P.Code = std::move(Prologue);
    P.Code.insert(P.Code.end(), Body.begin(), Body.end());
  }

  uint16_t allocI() {
    if (NextI >= 0xFFFF)
      bail("loop body too large (int register file)");
    return static_cast<uint16_t>(NextI++);
  }
  uint16_t allocR() {
    if (NextR >= 0xFFFF)
      bail("loop body too large (real register file)");
    return static_cast<uint16_t>(NextR++);
  }

  uint16_t slotOf(const Symbol *S) {
    auto [It, Inserted] = SlotIds.try_emplace(S->id(), 0);
    if (Inserted) {
      if (P.Slots.size() >= 0xFFFF)
        bail("loop body too large (slot table)");
      SlotInfo Info;
      Info.Sym = S;
      Info.Kind = S->elementKind();
      Info.Rank = S->rank();
      if (S->isArray()) {
        if (S->rank() > 2)
          bail("array of rank > 2");
        const auto &E = Ext[S->id()];
        Info.Ext0 = E.empty() ? 0 : E[0];
        Info.Ext1 = E.size() > 1 ? E[1] : 0;
      }
      It->second = static_cast<uint16_t>(P.Slots.size());
      P.Slots.push_back(Info);
    }
    return It->second;
  }

  /// Fault context for the innermost loop at this point in the lowering.
  uint16_t ctxAt(SourceLoc Loc) {
    FaultCtx C;
    C.Loc = Loc;
    C.Loop = LoopStack.back().Label;
    C.IterReg = LoopStack.back().IterReg;
    P.Ctxs.push_back(std::move(C));
    if (P.Ctxs.size() > 0xFFFF)
      bail("loop body too large (fault contexts)");
    return static_cast<uint16_t>(P.Ctxs.size() - 1);
  }

  size_t emit(Op K, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
              uint16_t D = 0, uint16_t E = 0, uint16_t Ctx = 0,
              int64_t Imm = 0) {
    P.Code.push_back({K, A, B, C, D, E, Ctx, Imm});
    return P.Code.size() - 1;
  }

  /// Marks the next instruction as a jump target: control can arrive with
  /// other register contents, so scalar values are reloaded after it.
  size_t label() {
    ScalarRegs.clear();
    return P.Code.size();
  }

  void patchJump(size_t At) { P.Code[At].Imm = int64_t(label()); }

  /// Result of one compiled expression: its static type and register.
  struct RV {
    Ty T;
    uint16_t R;
  };

  /// Register holding each scalar slot's current value, valid from the
  /// last jump target up to the current emission point.
  std::unordered_map<uint16_t, RV> ScalarRegs;

  uint16_t toI(RV V) {
    if (V.T == Ty::I)
      return V.R;
    uint16_t R = allocI();
    emit(Op::CastDI, R, V.R);
    return R;
  }

  uint16_t toD(RV V) {
    if (V.T == Ty::D)
      return V.R;
    uint16_t R = allocR();
    emit(Op::CastID, R, V.R);
    return R;
  }

  /// Truthiness of a value as an int register (zero / nonzero), for
  /// branching.
  uint16_t truthy(RV V) {
    if (V.T == Ty::I)
      return V.R;
    uint16_t R = allocI();
    emit(Op::DNzI, R, V.R);
    return R;
  }

  /// Compiles the subscript of a rank-1 reference and emits the fused
  /// gather/scatter addressing when it matches ind(e)+c. Returns true and
  /// fills the operand fields shared by Gth/Sct/SctAdd; the caller picks
  /// the opcode. Ctx and Ctx+1 are allocated consecutively.
  bool tryFusedAddress(const ArrayRef *AR, uint16_t &SubReg,
                       uint16_t &IndSlot, uint16_t &Ctx, int64_t &Off) {
    GatherShape G;
    if (!matchGather(AR->subscript(0), G))
      return false;
    SubReg = toI(compileExpr(G.Sub));
    IndSlot = slotOf(G.Ind->array());
    Ctx = ctxAt(G.Ind->loc());
    uint16_t DataCtx = ctxAt(AR->loc());
    if (DataCtx != Ctx + 1)
      bail("internal: fused fault contexts not consecutive");
    Off = G.Offset;
    return true;
  }

  RV compileLoad(const ArrayRef *AR) {
    const Symbol *S = AR->array();
    if (!S->isArray())
      bail("subscripted scalar");
    uint16_t Slot = slotOf(S);
    Ty T = S->elementKind() == ScalarKind::Int ? Ty::I : Ty::D;
    if (AR->rank() == 1) {
      uint16_t SubReg, IndSlot, Ctx;
      int64_t Off;
      if (tryFusedAddress(AR, SubReg, IndSlot, Ctx, Off)) {
        uint16_t Dst = T == Ty::I ? allocI() : allocR();
        emit(T == Ty::I ? Op::GthI : Op::GthD, Dst, Slot, SubReg, 0, IndSlot,
             Ctx, Off);
        ++P.FusedGathers;
        return {T, Dst};
      }
      uint16_t Sub = toI(compileExpr(AR->subscript(0)));
      uint16_t Dst = T == Ty::I ? allocI() : allocR();
      emit(T == Ty::I ? Op::Ld1I : Op::Ld1D, Dst, Slot, Sub, 0, 0,
           ctxAt(AR->loc()));
      return {T, Dst};
    }
    if (AR->rank() != 2)
      bail("array reference of rank > 2");
    uint16_t S1 = toI(compileExpr(AR->subscript(0)));
    uint16_t S2 = toI(compileExpr(AR->subscript(1)));
    uint16_t Dst = T == Ty::I ? allocI() : allocR();
    emit(T == Ty::I ? Op::Ld2I : Op::Ld2D, Dst, Slot, S1, S2, 0,
         ctxAt(AR->loc()));
    return {T, Dst};
  }

  RV compileExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit: {
      uint16_t R = allocI();
      emit(Op::MovI, R, 0, 0, 0, 0, 0, cast<IntLit>(E)->value());
      return {Ty::I, R};
    }
    case ExprKind::RealLit: {
      uint16_t R = allocR();
      int64_t Bits;
      double V = cast<RealLit>(E)->value();
      std::memcpy(&Bits, &V, sizeof(Bits));
      emit(Op::MovD, R, 0, 0, 0, 0, 0, Bits);
      return {Ty::D, R};
    }
    case ExprKind::VarRef: {
      const Symbol *S = cast<VarRef>(E)->symbol();
      if (S->isArray())
        bail("array referenced without subscripts");
      uint16_t Slot = slotOf(S);
      if (auto It = ScalarRegs.find(Slot); It != ScalarRegs.end())
        return It->second;
      RV V = S->elementKind() == ScalarKind::Int ? RV{Ty::I, allocI()}
                                                 : RV{Ty::D, allocR()};
      emit(V.T == Ty::I ? Op::LdScaI : Op::LdScaD, V.R, Slot);
      return ScalarRegs[Slot] = V;
    }
    case ExprKind::ArrayRef:
      return compileLoad(cast<ArrayRef>(E));
    case ExprKind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      RV V = compileExpr(UE->operand());
      if (UE->op() == UnaryOp::Neg) {
        if (V.T == Ty::I) {
          uint16_t R = allocI();
          emit(Op::NegI, R, V.R);
          return {Ty::I, R};
        }
        uint16_t R = allocR();
        emit(Op::NegD, R, V.R);
        return {Ty::D, R};
      }
      uint16_t R = allocI();
      emit(Op::NotI, R, truthy(V));
      return {Ty::I, R};
    }
    case ExprKind::Binary:
      return compileBinary(cast<BinaryExpr>(E));
    }
    bail("unhandled expression kind");
  }

  RV compileBinary(const BinaryExpr *BE) {
    // Short-circuit logicals, exactly like the tree walker: the right
    // operand must not be evaluated (and must not fault) when the left
    // decides.
    if (BE->op() == BinaryOp::And || BE->op() == BinaryOp::Or) {
      bool IsAnd = BE->op() == BinaryOp::And;
      uint16_t Res = allocI();
      uint16_t L = truthy(compileExpr(BE->lhs()));
      emit(Op::MovI, Res, 0, 0, 0, 0, 0, IsAnd ? 0 : 1);
      size_t Skip = emit(IsAnd ? Op::JmpZ : Op::JmpNZ, 0, L);
      uint16_t R = truthy(compileExpr(BE->rhs()));
      emit(Op::BoolI, Res, R);
      patchJump(Skip);
      return {Ty::I, Res};
    }

    RV L = compileExpr(BE->lhs());
    // e + c and e - c on integers take the constant as an immediate.
    if (const auto *C = dyn_cast<IntLit>(BE->rhs());
        C && L.T == Ty::I &&
        (BE->op() == BinaryOp::Add || BE->op() == BinaryOp::Sub)) {
      uint16_t Dst = allocI();
      emit(Op::AddIImm, Dst, L.R, 0, 0, 0, 0,
           BE->op() == BinaryOp::Add ? C->value() : -C->value());
      return {Ty::I, Dst};
    }
    RV R = compileExpr(BE->rhs());
    bool BothInt = L.T == Ty::I && R.T == Ty::I;

    auto IntOp = [&](Op K, uint16_t Ctx = 0) -> RV {
      uint16_t Dst = allocI();
      emit(K, Dst, L.R, R.R, 0, 0, Ctx);
      return {Ty::I, Dst};
    };
    auto RealOp = [&](Op K) -> RV {
      uint16_t Dst = allocR();
      emit(K, Dst, toD(L), toD(R));
      return {Ty::D, Dst};
    };
    auto CmpOp = [&](Op KI, Op KD) -> RV {
      uint16_t Dst = allocI();
      if (BothInt)
        emit(KI, Dst, L.R, R.R);
      else
        emit(KD, Dst, toD(L), toD(R));
      return {Ty::I, Dst};
    };

    switch (BE->op()) {
    case BinaryOp::Add:
      return BothInt ? IntOp(Op::AddI) : RealOp(Op::AddD);
    case BinaryOp::Sub:
      return BothInt ? IntOp(Op::SubI) : RealOp(Op::SubD);
    case BinaryOp::Mul:
      return BothInt ? IntOp(Op::MulI) : RealOp(Op::MulD);
    case BinaryOp::Div:
      return BothInt ? IntOp(Op::DivI, ctxAt(BE->loc())) : RealOp(Op::DivD);
    case BinaryOp::Mod:
      if (!BothInt)
        bail("mod on real operands");
      return IntOp(Op::ModI, ctxAt(BE->loc()));
    case BinaryOp::Min:
      return BothInt ? IntOp(Op::MinI) : RealOp(Op::MinD);
    case BinaryOp::Max:
      return BothInt ? IntOp(Op::MaxI) : RealOp(Op::MaxD);
    case BinaryOp::Eq:
      return CmpOp(Op::EqI, Op::EqD);
    case BinaryOp::Ne:
      return CmpOp(Op::NeI, Op::NeD);
    case BinaryOp::Lt:
      return CmpOp(Op::LtI, Op::LtD);
    case BinaryOp::Le:
      return CmpOp(Op::LeI, Op::LeD);
    case BinaryOp::Gt:
      return CmpOp(Op::GtI, Op::GtD);
    case BinaryOp::Ge:
      return CmpOp(Op::GeI, Op::GeD);
    case BinaryOp::And:
    case BinaryOp::Or:
      break; // Handled above.
    }
    bail("unhandled binary operator");
  }

  /// Coerces \p V to the element kind of \p S and returns the source
  /// register for a store.
  uint16_t storeReg(RV V, const Symbol *S) {
    return S->elementKind() == ScalarKind::Int ? toI(V) : toD(V);
  }

  void compileAssign(const AssignStmt *AS) {
    if (const auto *VR = dyn_cast<VarRef>(AS->lhs())) {
      const Symbol *S = VR->symbol();
      if (S->isArray())
        bail("array assigned without subscripts");
      RV V = compileExpr(AS->rhs());
      bool IsInt = S->elementKind() == ScalarKind::Int;
      uint16_t Slot = slotOf(S), R = storeReg(V, S);
      emit(IsInt ? Op::StScaI : Op::StScaD, Slot, R);
      ScalarRegs[Slot] = {IsInt ? Ty::I : Ty::D, R};
      return;
    }
    const auto *AR = cast<ArrayRef>(AS->lhs());
    const Symbol *S = AR->array();
    if (!S->isArray())
      bail("subscripted scalar");
    uint16_t Slot = slotOf(S);
    bool IsInt = S->elementKind() == ScalarKind::Int;

    if (AR->rank() == 1) {
      GatherShape G;
      if (matchGather(AR->subscript(0), G)) {
        // Read-modify-write scatter: x(ind(e)+c) = x(ind(e)+c) + v lowers
        // to one SctAdd — the addend v is evaluated, then the fused opcode
        // checks, reads, accumulates, and writes the shared element. The
        // tree walker evaluates the rhs gather before v; the fused form's
        // fault contexts therefore point at the *rhs* reference, keeping
        // out-of-bounds attribution identical for the common first-fault.
        const auto *RB = dyn_cast<BinaryExpr>(AS->rhs());
        if (RB && RB->op() == BinaryOp::Add &&
            exprEquals(RB->lhs(), AS->lhs())) {
          const auto *RhsRef = cast<ArrayRef>(RB->lhs());
          GatherShape RG;
          if (matchGather(RhsRef->subscript(0), RG)) {
            uint16_t SubReg = toI(compileExpr(RG.Sub));
            RV Addend = compileExpr(RB->rhs());
            uint16_t IndSlot = slotOf(RG.Ind->array());
            uint16_t Ctx = ctxAt(RG.Ind->loc());
            uint16_t DataCtx = ctxAt(RhsRef->loc());
            if (DataCtx != Ctx + 1)
              bail("internal: fused fault contexts not consecutive");
            emit(IsInt ? Op::SctAddI : Op::SctAddD, Slot, SubReg,
                 storeReg(Addend, S), 0, IndSlot, Ctx, RG.Offset);
            ++P.FusedGathers; // The read half.
            ++P.FusedScatters;
            return;
          }
        }
        // Plain scatter: evaluate the rhs first (any fault in it must win,
        // as in the tree walker), then one fused store.
        RV V = compileExpr(AS->rhs());
        uint16_t SubReg = toI(compileExpr(G.Sub));
        uint16_t IndSlot = slotOf(G.Ind->array());
        uint16_t Ctx = ctxAt(G.Ind->loc());
        uint16_t DataCtx = ctxAt(AR->loc());
        if (DataCtx != Ctx + 1)
          bail("internal: fused fault contexts not consecutive");
        emit(IsInt ? Op::SctI : Op::SctD, Slot, SubReg, storeReg(V, S), 0,
             IndSlot, Ctx, G.Offset);
        ++P.FusedScatters;
        return;
      }
      RV V = compileExpr(AS->rhs());
      uint16_t Sub = toI(compileExpr(AR->subscript(0)));
      emit(IsInt ? Op::St1I : Op::St1D, Slot, Sub, storeReg(V, S), 0, 0,
           ctxAt(AR->loc()));
      return;
    }
    if (AR->rank() != 2)
      bail("array reference of rank > 2");
    RV V = compileExpr(AS->rhs());
    uint16_t S1 = toI(compileExpr(AR->subscript(0)));
    uint16_t S2 = toI(compileExpr(AR->subscript(1)));
    emit(IsInt ? Op::St2I : Op::St2D, Slot, S1, S2, storeReg(V, S), 0,
         ctxAt(AR->loc()));
  }

  void compileDo(const DoStmt *DS, int Depth) {
    if (DS->indexVar()->elementKind() != ScalarKind::Int ||
        DS->indexVar()->isArray())
      bail("non-integer loop index variable");
    uint16_t IndexSlot = slotOf(DS->indexVar());
    uint16_t Lo = toI(compileExpr(DS->lower()));
    uint16_t Up = toI(compileExpr(DS->upper()));
    uint16_t St;
    if (DS->step()) {
      St = toI(compileExpr(DS->step()));
      emit(Op::FaultZeroStep, IndexSlot, St, 0, 0, 0, ctxAt(DS->loc()));
    } else {
      St = allocI();
      emit(Op::MovI, St, 0, 0, 0, 0, 0, 1);
    }
    uint16_t I = allocI();
    emit(Op::CopyI, I, Lo);
    size_t Test = emit(Op::LoopTest, I, Up, St);
    size_t BodyStart = label();
    emit(Op::StScaI, IndexSlot, I);
    ScalarRegs[IndexSlot] = {Ty::I, I};
    LoopStack.push_back(
        {DS->label().empty() ? "<unlabeled>" : DS->label(), I});
    compileBody(DS->body(), Depth);
    // The back-edge's deadline poll is attributed like the tree walk's
    // poll at the top of an iteration: this loop, its next iteration.
    emit(Op::LoopBack, I, Up, St, 0, 0, ctxAt(DS->loc()), int64_t(BodyStart));
    LoopStack.pop_back();
    patchJump(Test);
    // Fortran exit value: the index variable holds Lo + NIter*Step after a
    // loop that ran, and Lo when it never entered — exactly the register's
    // final value under this lowering.
    emit(Op::StScaI, IndexSlot, I);
    ScalarRegs[IndexSlot] = {Ty::I, I};
  }

  /// while (c) body: the guard register restarts at 0 on every entry, the
  /// condition branches past the loop, and one WhileBack op closes each
  /// iteration — guard bump, deadline poll, jump to the condition. The
  /// tree walk's checks happen at the same points with the same
  /// attribution (the while's location, the innermost do loop).
  void compileWhile(const WhileStmt *WS, int Depth) {
    uint16_t Guard = allocI();
    emit(Op::MovI, Guard);
    size_t Head = label();
    uint16_t C = truthy(compileExpr(WS->condition()));
    size_t Exit = emit(Op::JmpZ, 0, C);
    compileBody(WS->body(), Depth);
    emit(Op::WhileBack, Guard, 0, 0, 0, 0, ctxAt(WS->loc()), int64_t(Head));
    patchJump(Exit);
  }

  void compileBody(const StmtList &Body, int Depth) {
    if (Depth > MaxInlineDepth)
      bail("call chain too deep to inline");
    for (const Stmt *S : Body) {
      switch (S->kind()) {
      case StmtKind::Assign:
        compileAssign(cast<AssignStmt>(S));
        break;
      case StmtKind::If: {
        const auto *IS = cast<IfStmt>(S);
        uint16_t C = truthy(compileExpr(IS->condition()));
        size_t ToElse = emit(Op::JmpZ, 0, C);
        compileBody(IS->thenBody(), Depth);
        if (IS->elseBody().empty()) {
          patchJump(ToElse);
        } else {
          size_t ToEnd = emit(Op::Jmp);
          patchJump(ToElse);
          compileBody(IS->elseBody(), Depth);
          patchJump(ToEnd);
        }
        break;
      }
      case StmtKind::Do:
        compileDo(cast<DoStmt>(S), Depth);
        break;
      case StmtKind::While:
        compileWhile(cast<WhileStmt>(S), Depth);
        break;
      case StmtKind::Call: {
        const auto *CS = cast<CallStmt>(S);
        if (!CS->callee())
          bail("call to unresolved procedure");
        compileBody(CS->callee()->body(), Depth + 1);
        break;
      }
      }
    }
  }
};

} // namespace

const char *vm::structuralBailout(const DoStmt *DS) {
  if (DS->indexVar()->elementKind() != ScalarKind::Int ||
      DS->indexVar()->isArray())
    return "non-integer loop index variable";
  return structuralWalk(DS->body(), 0);
}

CompileResult vm::compileLoop(
    const DoStmt *DS, const std::vector<std::vector<int64_t>> &DimExtents) {
  CompileResult R;
  try {
    Lowering L(DS, DimExtents);
    R.Prog = L.run();
    R.Ok = true;
  } catch (const Bailout &B) {
    R.Bailout = B.Reason;
  }
  return R;
}

const char *vm::opName(Op K) {
  static constexpr const char *Names[] = {
#define IAA_VM_OP(Name, Mnemonic, Writes) Mnemonic,
      IAA_VM_OPCODES(IAA_VM_OP)
#undef IAA_VM_OP
  };
  return unsigned(K) < NumOps ? Names[unsigned(K)] : "?";
}

RegFile vm::writesOf(Op K) {
  static constexpr RegFile Files[] = {
#define IAA_VM_OP(Name, Mnemonic, Writes) RegFile::Writes,
      IAA_VM_OPCODES(IAA_VM_OP)
#undef IAA_VM_OP
  };
  return unsigned(K) < NumOps ? Files[unsigned(K)] : RegFile::None;
}

std::string LoopProgram::str() const {
  std::string Out;
  Out += "loop " + (Loop && !Loop->label().empty() ? Loop->label()
                                                   : std::string("<unlabeled>"));
  Out += ": " + std::to_string(Code.size()) + " instrs, " +
         std::to_string(Slots.size()) + " slots, " +
         std::to_string(NumIntRegs) + "i+" + std::to_string(NumRealRegs) +
         "d regs, " + std::to_string(FusedGathers) + " fused gathers, " +
         std::to_string(FusedScatters) + " fused scatters\n";
  for (size_t I = 0; I < Code.size(); ++I) {
    const Instr &In = Code[I];
    if (I == BodyStart)
      Out += "  body:\n";
    Out += "  " + std::to_string(I) + ": " + opName(In.K);
    Out += " a=" + std::to_string(In.A) + " b=" + std::to_string(In.B) +
           " c=" + std::to_string(In.C);
    if (In.D || In.E)
      Out += " d=" + std::to_string(In.D) + " e=" + std::to_string(In.E);
    if (In.Imm)
      Out += " imm=" + std::to_string(In.Imm);
    Out += "\n";
  }
  return Out;
}
