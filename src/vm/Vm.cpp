//===- vm/Vm.cpp - Register-bytecode executor for loop chunks -------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "mf/Stmt.h"

#include <algorithm>
#include <cstring>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using namespace iaa::vm;

namespace {

/// The tree walk's detail text for a fired deadline token.
const char *const DeadlineDetail =
    "wall-clock deadline exceeded; run cancelled";

/// One slot resolved against this chunk's memory view — the worker's
/// private override when present, the shared global otherwise — with its
/// declared extents beside the pointers, so a bounds check reads only this
/// record. Lim0/Lim1 are the extents clamped at 0, which makes
/// `uint64_t(Sub) - 1 >= Lim` exactly the tree walk's `Sub < 1 || Sub > Ext`.
struct ResolvedSlot {
  int64_t *I = nullptr;
  double *D = nullptr;
  uint64_t Lim0 = 0, Lim1 = 0;
};

[[gnu::always_inline]] inline bool outside(int64_t Sub, uint64_t Lim) {
  return static_cast<uint64_t>(Sub) - 1 >= Lim;
}

/// What a fault needs for the tree walk's attribution: the program (fault
/// contexts, slot symbols and extents), the chunk (worker) and the integer
/// register file (each context's live iteration). Every raiser is cold and
/// out of line, so the handlers carry only a call.
struct FaultSite {
  const LoopProgram &Prog;
  const ChunkContext &C;
  const int64_t *RI;

  /// Raises a fault at instruction context \p CtxId: source location and
  /// enclosing loop from its FaultCtx, iteration from its iteration
  /// register.
  [[noreturn, gnu::cold, gnu::noinline]] void
  raise(uint16_t CtxId, FaultKind Kind, std::string Detail,
        const Symbol *Sym = nullptr, bool HasValue = false, int64_t Value = 0,
        int64_t Bound = 0) const {
    const FaultCtx &FC = Prog.Ctxs[CtxId];
    RuntimeFault RF;
    RF.Kind = Kind;
    RF.Loc = FC.Loc;
    RF.Range = SourceRange(FC.Loc);
    RF.Loop = FC.Loop;
    RF.HasIteration = true;
    RF.Iteration = RI[FC.IterReg];
    RF.Worker = C.Worker;
    RF.InParallel = true;
    if (Sym)
      RF.Var = Sym->name();
    RF.HasValue = HasValue;
    RF.Value = Value;
    RF.Bound = Bound;
    RF.Detail = std::move(Detail);
    throw FaultException(std::move(RF));
  }

  /// Subscript \p Sub of slot \p Slot's dimension \p Dim (0 for a rank-1
  /// access, which names no dimension) is out of bounds.
  [[noreturn, gnu::cold, gnu::noinline]] void
  outOfBounds(uint16_t CtxId, uint16_t Slot, int64_t Sub, unsigned Dim) const {
    const SlotInfo &S = Prog.Slots[Slot];
    if (Dim == 0)
      raise(CtxId, FaultKind::OutOfBounds, "array subscript out of bounds",
            S.Sym, /*HasValue=*/true, Sub, S.Ext0);
    raise(CtxId, FaultKind::OutOfBounds,
          "array subscript out of bounds (dimension " + std::to_string(Dim) +
              ")",
          S.Sym, /*HasValue=*/true, Sub, Dim == 1 ? S.Ext0 : S.Ext1);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void
  divByZero(uint16_t CtxId, const char *Detail) const {
    raise(CtxId, FaultKind::DivByZero, Detail);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void deadline(uint16_t CtxId) const {
    raise(CtxId, FaultKind::DeadlineExceeded, DeadlineDetail);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void
  zeroStep(uint16_t CtxId, uint16_t IndexSlot) const {
    raise(CtxId, FaultKind::BadStep, "do loop with zero step",
          Prog.Slots[IndexSlot].Sym, /*HasValue=*/true, /*Value=*/0);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void
  whileGuard(uint16_t CtxId, int64_t Count) const {
    raise(CtxId, FaultKind::IterationGuard,
          "while loop exceeded the iteration guard", /*Sym=*/nullptr,
          /*HasValue=*/true, Count, WhileIterationGuard);
  }

  /// Fault attributed to the chunk's own loop at outer iteration \p Iter,
  /// as the tree walk raises it at the top of that iteration.
  [[noreturn, gnu::cold, gnu::noinline]] void
  atIteration(FaultKind Kind, std::string Detail, int64_t Iter) const {
    RuntimeFault RF;
    RF.Kind = Kind;
    RF.Loc = Prog.Loop->loc();
    RF.Range = SourceRange(RF.Loc);
    RF.Loop = Prog.Loop->label().empty() ? "<unlabeled>" : Prog.Loop->label();
    RF.HasIteration = true;
    RF.Iteration = Iter;
    RF.Worker = C.Worker;
    RF.InParallel = true;
    RF.Detail = std::move(Detail);
    throw FaultException(std::move(RF));
  }

  [[noreturn, gnu::cold, gnu::noinline]] void deadlineAt(int64_t Iter) const {
    atIteration(FaultKind::DeadlineExceeded, DeadlineDetail, Iter);
  }

  /// The test-only injector's verdict for outer iteration \p Iter.
  [[gnu::cold, gnu::noinline]] void inject(int64_t Iter) const {
    if (auto Inj = C.Injector->atIteration(Prog.Loop, Iter, C.Worker,
                                           /*InParallel=*/true))
      atIteration(Inj->Kind, Inj->Detail, Iter);
  }
};

/// Zero-based element of the rank-1 access slot(Sub), faulting through
/// \p Ctx when Sub is outside the declared extent.
[[gnu::always_inline]] inline size_t at1(const FaultSite &Site,
                                         const ResolvedSlot *Slots,
                                         uint16_t Slot, int64_t Sub,
                                         uint16_t Ctx) {
  if (outside(Sub, Slots[Slot].Lim0)) [[unlikely]]
    Site.outOfBounds(Ctx, Slot, Sub, 0);
  return size_t(Sub - 1);
}

/// Zero-based element of slot(S1, S2), row-major, each dimension checked in
/// order.
[[gnu::always_inline]] inline size_t at2(const FaultSite &Site,
                                         const ResolvedSlot *Slots,
                                         uint16_t Slot, int64_t S1,
                                         int64_t S2, uint16_t Ctx) {
  const ResolvedSlot &S = Slots[Slot];
  if (outside(S1, S.Lim0)) [[unlikely]]
    Site.outOfBounds(Ctx, Slot, S1, 1);
  if (outside(S2, S.Lim1)) [[unlikely]]
    Site.outOfBounds(Ctx, Slot, S2, 2);
  return size_t(S1 - 1) * size_t(S.Lim1) + size_t(S2 - 1);
}

/// Zero-based data element of the fused data(ind(Sub) + Imm): the index
/// check attributes through Ctx, the data check through Ctx+1.
[[gnu::always_inline]] inline size_t
atFused(const FaultSite &Site, const ResolvedSlot *Slots, uint16_t Data,
        uint16_t Ind, int64_t Sub, int64_t Imm, uint16_t Ctx) {
  size_t IndAt = at1(Site, Slots, Ind, Sub, Ctx);
  return at1(Site, Slots, Data, Slots[Ind].I[IndAt] + Imm, Ctx + 1);
}

} // namespace

// Direct-threaded dispatch: every handler ends in its own indirect jump
// through Labels (labels-as-values, which GCC and Clang accept under
// -std=c++20), so each opcode's successor gets its own branch-predictor
// entry. Everything a handler touches — register files, resolved slots,
// the code pointer — is a local the compiler can keep in a register. Halt
// is the outer loop's back edge; the chunk's first iteration enters at
// Code[0], so the prologue runs once, after that iteration's head.
void vm::runChunk(const LoopProgram &Prog, const ChunkContext &C) {
  if (C.First > C.Last)
    return;
  std::vector<ResolvedSlot> SlotVec;
  SlotVec.reserve(Prog.Slots.size());
  for (const SlotInfo &S : Prog.Slots) {
    Buffer *B = nullptr;
    if (C.Overrides) {
      auto It = C.Overrides->find(S.Sym->id());
      if (It != C.Overrides->end())
        B = &It->second;
    }
    if (!B)
      B = &C.Mem->buffer(S.Sym);
    SlotVec.push_back({B->I.data(), B->D.data(),
                       uint64_t(std::max<int64_t>(S.Ext0, 0)),
                       uint64_t(std::max<int64_t>(S.Ext1, 0))});
  }
  std::vector<int64_t> RIVec(Prog.NumIntRegs);
  std::vector<double> RDVec(Prog.NumRealRegs);

  int64_t *const RI = RIVec.data();
  double *const RD = RDVec.data();
  const ResolvedSlot *const Slots = SlotVec.data();
  const Instr *const Code = Prog.Code.data();
  const Instr *const Body = Code + Prog.BodyStart;
  int64_t *const IndexVar = Slots[Prog.IndexSlot].I;
  const uint16_t IterReg = Prog.IterReg;
  // Deadline polls test the pointer first, so a run without a deadline
  // pays one predictable branch per poll.
  const CancelToken *const Cancel = C.Cancel;
  const bool Injecting = C.Injector != nullptr;
  const int64_t Last = C.Last;
  const FaultSite Site{Prog, C, RI};

  static void *const Labels[] = {
#define IAA_VM_OP(Name, Mnemonic, Writes) &&L_##Name,
      IAA_VM_OPCODES(IAA_VM_OP)
#undef IAA_VM_OP
  };
#define DISPATCH() goto *Labels[static_cast<unsigned>(Pc->K)]
#define NEXT()                                                                 \
  do {                                                                         \
    ++Pc;                                                                      \
    DISPATCH();                                                                \
  } while (0)
#define JUMP(Target)                                                           \
  do {                                                                         \
    Pc = Code + (Target);                                                      \
    DISPATCH();                                                                \
  } while (0)

  int64_t Iter = C.First;
  const Instr *Pc = Code;
  goto IterationHead;

L_Halt:
  if (Iter == Last)
    return;
  ++Iter;
  Pc = Body;
IterationHead:
  if (Cancel && Cancel->cancelled()) [[unlikely]]
    Site.deadlineAt(Iter);
  if (Injecting) [[unlikely]]
    Site.inject(Iter);
  RI[IterReg] = Iter;
  *IndexVar = Iter;
  DISPATCH();

L_MovI:
  RI[Pc->A] = Pc->Imm;
  NEXT();
L_MovD:
  std::memcpy(&RD[Pc->A], &Pc->Imm, sizeof(double));
  NEXT();
L_CopyI:
  RI[Pc->A] = RI[Pc->B];
  NEXT();
L_CastID:
  RD[Pc->A] = static_cast<double>(RI[Pc->B]);
  NEXT();
L_CastDI:
  RI[Pc->A] = static_cast<int64_t>(RD[Pc->B]);
  NEXT();

L_LdScaI:
  RI[Pc->A] = Slots[Pc->B].I[0];
  NEXT();
L_LdScaD:
  RD[Pc->A] = Slots[Pc->B].D[0];
  NEXT();
L_StScaI:
  Slots[Pc->A].I[0] = RI[Pc->B];
  NEXT();
L_StScaD:
  Slots[Pc->A].D[0] = RD[Pc->B];
  NEXT();

L_Ld1I:
  RI[Pc->A] = Slots[Pc->B].I[at1(Site, Slots, Pc->B, RI[Pc->C], Pc->Ctx)];
  NEXT();
L_Ld1D:
  RD[Pc->A] = Slots[Pc->B].D[at1(Site, Slots, Pc->B, RI[Pc->C], Pc->Ctx)];
  NEXT();
L_St1I:
  Slots[Pc->A].I[at1(Site, Slots, Pc->A, RI[Pc->B], Pc->Ctx)] = RI[Pc->C];
  NEXT();
L_St1D:
  Slots[Pc->A].D[at1(Site, Slots, Pc->A, RI[Pc->B], Pc->Ctx)] = RD[Pc->C];
  NEXT();

L_Ld2I:
  RI[Pc->A] = Slots[Pc->B]
                  .I[at2(Site, Slots, Pc->B, RI[Pc->C], RI[Pc->D], Pc->Ctx)];
  NEXT();
L_Ld2D:
  RD[Pc->A] = Slots[Pc->B]
                  .D[at2(Site, Slots, Pc->B, RI[Pc->C], RI[Pc->D], Pc->Ctx)];
  NEXT();
L_St2I:
  Slots[Pc->A].I[at2(Site, Slots, Pc->A, RI[Pc->B], RI[Pc->C], Pc->Ctx)] =
      RI[Pc->D];
  NEXT();
L_St2D:
  Slots[Pc->A].D[at2(Site, Slots, Pc->A, RI[Pc->B], RI[Pc->C], Pc->Ctx)] =
      RD[Pc->D];
  NEXT();

L_GthI:
  RI[Pc->A] = Slots[Pc->B].I[atFused(Site, Slots, Pc->B, Pc->E, RI[Pc->C],
                                     Pc->Imm, Pc->Ctx)];
  NEXT();
L_GthD:
  RD[Pc->A] = Slots[Pc->B].D[atFused(Site, Slots, Pc->B, Pc->E, RI[Pc->C],
                                     Pc->Imm, Pc->Ctx)];
  NEXT();
L_SctI:
  Slots[Pc->A].I[atFused(Site, Slots, Pc->A, Pc->E, RI[Pc->B], Pc->Imm,
                         Pc->Ctx)] = RI[Pc->C];
  NEXT();
L_SctD:
  Slots[Pc->A].D[atFused(Site, Slots, Pc->A, Pc->E, RI[Pc->B], Pc->Imm,
                         Pc->Ctx)] = RD[Pc->C];
  NEXT();
L_SctAddI:
  Slots[Pc->A].I[atFused(Site, Slots, Pc->A, Pc->E, RI[Pc->B], Pc->Imm,
                         Pc->Ctx)] += RI[Pc->C];
  NEXT();
L_SctAddD:
  Slots[Pc->A].D[atFused(Site, Slots, Pc->A, Pc->E, RI[Pc->B], Pc->Imm,
                         Pc->Ctx)] += RD[Pc->C];
  NEXT();

L_AddI:
  RI[Pc->A] = RI[Pc->B] + RI[Pc->C];
  NEXT();
L_SubI:
  RI[Pc->A] = RI[Pc->B] - RI[Pc->C];
  NEXT();
L_MulI:
  RI[Pc->A] = RI[Pc->B] * RI[Pc->C];
  NEXT();
L_DivI:
  if (RI[Pc->C] == 0) [[unlikely]]
    Site.divByZero(Pc->Ctx, "integer division by zero");
  RI[Pc->A] = RI[Pc->B] / RI[Pc->C];
  NEXT();
L_ModI:
  if (RI[Pc->C] == 0) [[unlikely]]
    Site.divByZero(Pc->Ctx, "mod by zero");
  RI[Pc->A] = RI[Pc->B] % RI[Pc->C];
  NEXT();
L_MinI:
  RI[Pc->A] = std::min(RI[Pc->B], RI[Pc->C]);
  NEXT();
L_MaxI:
  RI[Pc->A] = std::max(RI[Pc->B], RI[Pc->C]);
  NEXT();
L_NegI:
  RI[Pc->A] = -RI[Pc->B];
  NEXT();
L_NotI:
  RI[Pc->A] = RI[Pc->B] == 0;
  NEXT();
L_BoolI:
  RI[Pc->A] = RI[Pc->B] != 0;
  NEXT();
L_DNzI:
  RI[Pc->A] = RD[Pc->B] != 0;
  NEXT();
L_AddIImm:
  RI[Pc->A] = RI[Pc->B] + Pc->Imm;
  NEXT();

L_AddD:
  RD[Pc->A] = RD[Pc->B] + RD[Pc->C];
  NEXT();
L_SubD:
  RD[Pc->A] = RD[Pc->B] - RD[Pc->C];
  NEXT();
L_MulD:
  RD[Pc->A] = RD[Pc->B] * RD[Pc->C];
  NEXT();
L_DivD:
  RD[Pc->A] = RD[Pc->B] / RD[Pc->C];
  NEXT();
L_MinD:
  RD[Pc->A] = std::min(RD[Pc->B], RD[Pc->C]);
  NEXT();
L_MaxD:
  RD[Pc->A] = std::max(RD[Pc->B], RD[Pc->C]);
  NEXT();
L_NegD:
  RD[Pc->A] = -RD[Pc->B];
  NEXT();

L_EqI:
  RI[Pc->A] = RI[Pc->B] == RI[Pc->C];
  NEXT();
L_NeI:
  RI[Pc->A] = RI[Pc->B] != RI[Pc->C];
  NEXT();
L_LtI:
  RI[Pc->A] = RI[Pc->B] < RI[Pc->C];
  NEXT();
L_LeI:
  RI[Pc->A] = RI[Pc->B] <= RI[Pc->C];
  NEXT();
L_GtI:
  RI[Pc->A] = RI[Pc->B] > RI[Pc->C];
  NEXT();
L_GeI:
  RI[Pc->A] = RI[Pc->B] >= RI[Pc->C];
  NEXT();
L_EqD:
  RI[Pc->A] = RD[Pc->B] == RD[Pc->C];
  NEXT();
L_NeD:
  RI[Pc->A] = RD[Pc->B] != RD[Pc->C];
  NEXT();
L_LtD:
  RI[Pc->A] = RD[Pc->B] < RD[Pc->C];
  NEXT();
L_LeD:
  RI[Pc->A] = RD[Pc->B] <= RD[Pc->C];
  NEXT();
L_GtD:
  RI[Pc->A] = RD[Pc->B] > RD[Pc->C];
  NEXT();
L_GeD:
  RI[Pc->A] = RD[Pc->B] >= RD[Pc->C];
  NEXT();

L_Jmp:
  JUMP(Pc->Imm);
L_JmpZ:
  if (RI[Pc->B] == 0)
    JUMP(Pc->Imm);
  NEXT();
L_JmpNZ:
  if (RI[Pc->B] != 0)
    JUMP(Pc->Imm);
  NEXT();
L_LoopTest:
  if (RI[Pc->C] > 0 ? RI[Pc->A] > RI[Pc->B] : RI[Pc->A] < RI[Pc->B])
    JUMP(Pc->Imm);
  NEXT();
L_LoopBack:
  RI[Pc->A] += RI[Pc->C];
  if (RI[Pc->C] > 0 ? RI[Pc->A] > RI[Pc->B] : RI[Pc->A] < RI[Pc->B])
    NEXT();
  if (Cancel && Cancel->cancelled()) [[unlikely]]
    Site.deadline(Pc->Ctx);
  JUMP(Pc->Imm);
L_FaultZeroStep:
  if (RI[Pc->B] == 0) [[unlikely]]
    Site.zeroStep(Pc->Ctx, Pc->A);
  NEXT();
L_WhileBack:
  if (++RI[Pc->A] > WhileIterationGuard) [[unlikely]]
    Site.whileGuard(Pc->Ctx, RI[Pc->A]);
  if (Cancel && Cancel->cancelled()) [[unlikely]]
    Site.deadline(Pc->Ctx);
  JUMP(Pc->Imm);

#undef JUMP
#undef NEXT
#undef DISPATCH
}
