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

/// One slot resolved against this chunk's memory view: the worker's private
/// override when present, the shared global otherwise.
struct ResolvedSlot {
  int64_t *I = nullptr;
  double *D = nullptr;
};

/// The per-chunk execution state. A plain struct (not the exported entry
/// point) so fault raising can see the register files for iteration
/// attribution.
struct Machine {
  const LoopProgram &Prog;
  const ChunkContext &C;
  std::vector<ResolvedSlot> Slots;
  std::vector<int64_t> RI;
  std::vector<double> RD;

  Machine(const LoopProgram &Prog, const ChunkContext &C)
      : Prog(Prog), C(C), RI(Prog.NumIntRegs), RD(Prog.NumRealRegs) {
    Slots.reserve(Prog.Slots.size());
    for (const SlotInfo &S : Prog.Slots) {
      Buffer *B = nullptr;
      if (C.Overrides) {
        auto It = C.Overrides->find(S.Sym->id());
        if (It != C.Overrides->end())
          B = &It->second;
      }
      if (!B)
        B = &C.Mem->buffer(S.Sym);
      ResolvedSlot R;
      R.I = B->I.data();
      R.D = B->D.data();
      Slots.push_back(R);
    }
  }

  /// Raises a structured fault with the same attribution the tree walk
  /// gives: source location and enclosing loop from the instruction's
  /// FaultCtx, live iteration from the context's iteration register.
  [[noreturn]] void fault(uint16_t CtxId, FaultKind Kind, std::string Detail,
                          const Symbol *Sym = nullptr, bool HasValue = false,
                          int64_t Value = 0, int64_t Bound = 0) const {
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

  /// Fault attributed to the chunk's own loop at outer iteration \p Iter,
  /// as the tree walk raises it at the top of that iteration.
  [[noreturn]] void rootFault(FaultKind Kind, std::string Detail,
                              int64_t Iter) const {
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

  /// Rank-1 subscript check, identical to the tree walk's linearIndex.
  void check1(int64_t Sub, uint16_t Slot, uint16_t CtxId) const {
    const SlotInfo &S = Prog.Slots[Slot];
    if (Sub < 1 || Sub > S.Ext0)
      fault(CtxId, FaultKind::OutOfBounds, "array subscript out of bounds",
            S.Sym, /*HasValue=*/true, Sub, S.Ext0);
  }

  void check2(int64_t Sub, int64_t Ext, unsigned Dim, uint16_t Slot,
              uint16_t CtxId) const {
    if (Sub < 1 || Sub > Ext)
      fault(CtxId, FaultKind::OutOfBounds,
            "array subscript out of bounds (dimension " +
                std::to_string(Dim) + ")",
            Prog.Slots[Slot].Sym, /*HasValue=*/true, Sub, Ext);
  }

  void run() {
    // Deadline polls test the pointer first, so a run without a deadline
    // pays one predictable branch per poll.
    const CancelToken *Cancel = C.Cancel;
    const Instr *Code = Prog.Code.data();

    for (int64_t Iter = C.First; Iter <= C.Last; ++Iter) {
      if (Cancel && Cancel->cancelled())
        rootFault(FaultKind::DeadlineExceeded, DeadlineDetail, Iter);
      if (C.Injector)
        if (auto Inj = C.Injector->atIteration(Prog.Loop, Iter, C.Worker,
                                               /*InParallel=*/true))
          rootFault(Inj->Kind, Inj->Detail, Iter);

      RI[Prog.IterReg] = Iter;
      Slots[Prog.IndexSlot].I[0] = Iter;

      size_t Pc = 0;
      for (;;) {
        const Instr &In = Code[Pc++];
        switch (In.K) {
        case Op::Halt:
          goto IterDone;

        case Op::MovI:
          RI[In.A] = In.Imm;
          break;
        case Op::MovD: {
          double V;
          std::memcpy(&V, &In.Imm, sizeof(V));
          RD[In.A] = V;
          break;
        }
        case Op::CopyI:
          RI[In.A] = RI[In.B];
          break;
        case Op::CopyD:
          RD[In.A] = RD[In.B];
          break;
        case Op::CastID:
          RD[In.A] = static_cast<double>(RI[In.B]);
          break;
        case Op::CastDI:
          RI[In.A] = static_cast<int64_t>(RD[In.B]);
          break;

        case Op::LdScaI:
          RI[In.A] = Slots[In.B].I[0];
          break;
        case Op::LdScaD:
          RD[In.A] = Slots[In.B].D[0];
          break;
        case Op::StScaI:
          Slots[In.A].I[0] = RI[In.B];
          break;
        case Op::StScaD:
          Slots[In.A].D[0] = RD[In.B];
          break;

        case Op::Ld1I: {
          int64_t Sub = RI[In.C];
          check1(Sub, In.B, In.Ctx);
          RI[In.A] = Slots[In.B].I[Sub - 1];
          break;
        }
        case Op::Ld1D: {
          int64_t Sub = RI[In.C];
          check1(Sub, In.B, In.Ctx);
          RD[In.A] = Slots[In.B].D[Sub - 1];
          break;
        }
        case Op::St1I: {
          int64_t Sub = RI[In.B];
          check1(Sub, In.A, In.Ctx);
          Slots[In.A].I[Sub - 1] = RI[In.C];
          break;
        }
        case Op::St1D: {
          int64_t Sub = RI[In.B];
          check1(Sub, In.A, In.Ctx);
          Slots[In.A].D[Sub - 1] = RD[In.C];
          break;
        }

        case Op::Ld2I:
        case Op::Ld2D: {
          const SlotInfo &S = Prog.Slots[In.B];
          int64_t S1 = RI[In.C], S2 = RI[In.D];
          check2(S1, S.Ext0, 1, In.B, In.Ctx);
          check2(S2, S.Ext1, 2, In.B, In.Ctx);
          size_t Idx = size_t(S1 - 1) * size_t(S.Ext1) + size_t(S2 - 1);
          if (In.K == Op::Ld2I)
            RI[In.A] = Slots[In.B].I[Idx];
          else
            RD[In.A] = Slots[In.B].D[Idx];
          break;
        }
        case Op::St2I:
        case Op::St2D: {
          const SlotInfo &S = Prog.Slots[In.A];
          int64_t S1 = RI[In.B], S2 = RI[In.C];
          check2(S1, S.Ext0, 1, In.A, In.Ctx);
          check2(S2, S.Ext1, 2, In.A, In.Ctx);
          size_t Idx = size_t(S1 - 1) * size_t(S.Ext1) + size_t(S2 - 1);
          if (In.K == Op::St2I)
            Slots[In.A].I[Idx] = RI[In.D];
          else
            Slots[In.A].D[Idx] = RD[In.D];
          break;
        }

        case Op::GthI:
        case Op::GthD: {
          int64_t Sub = RI[In.C];
          check1(Sub, In.E, In.Ctx);
          int64_t DataSub = Slots[In.E].I[Sub - 1] + In.Imm;
          check1(DataSub, In.B, In.Ctx + 1);
          if (In.K == Op::GthI)
            RI[In.A] = Slots[In.B].I[DataSub - 1];
          else
            RD[In.A] = Slots[In.B].D[DataSub - 1];
          break;
        }
        case Op::SctI:
        case Op::SctD: {
          int64_t Sub = RI[In.B];
          check1(Sub, In.E, In.Ctx);
          int64_t DataSub = Slots[In.E].I[Sub - 1] + In.Imm;
          check1(DataSub, In.A, In.Ctx + 1);
          if (In.K == Op::SctI)
            Slots[In.A].I[DataSub - 1] = RI[In.C];
          else
            Slots[In.A].D[DataSub - 1] = RD[In.C];
          break;
        }
        case Op::SctAddI:
        case Op::SctAddD: {
          int64_t Sub = RI[In.B];
          check1(Sub, In.E, In.Ctx);
          int64_t DataSub = Slots[In.E].I[Sub - 1] + In.Imm;
          check1(DataSub, In.A, In.Ctx + 1);
          if (In.K == Op::SctAddI)
            Slots[In.A].I[DataSub - 1] += RI[In.C];
          else
            Slots[In.A].D[DataSub - 1] += RD[In.C];
          break;
        }

        case Op::AddI:
          RI[In.A] = RI[In.B] + RI[In.C];
          break;
        case Op::SubI:
          RI[In.A] = RI[In.B] - RI[In.C];
          break;
        case Op::MulI:
          RI[In.A] = RI[In.B] * RI[In.C];
          break;
        case Op::DivI:
          if (RI[In.C] == 0)
            fault(In.Ctx, FaultKind::DivByZero, "integer division by zero");
          RI[In.A] = RI[In.B] / RI[In.C];
          break;
        case Op::ModI:
          if (RI[In.C] == 0)
            fault(In.Ctx, FaultKind::DivByZero, "mod by zero");
          RI[In.A] = RI[In.B] % RI[In.C];
          break;
        case Op::MinI:
          RI[In.A] = std::min(RI[In.B], RI[In.C]);
          break;
        case Op::MaxI:
          RI[In.A] = std::max(RI[In.B], RI[In.C]);
          break;
        case Op::NegI:
          RI[In.A] = -RI[In.B];
          break;
        case Op::NotI:
          RI[In.A] = RI[In.B] == 0;
          break;
        case Op::BoolI:
          RI[In.A] = RI[In.B] != 0;
          break;
        case Op::DNzI:
          RI[In.A] = RD[In.B] != 0;
          break;
        case Op::AddIImm:
          RI[In.A] = RI[In.B] + In.Imm;
          break;

        case Op::AddD:
          RD[In.A] = RD[In.B] + RD[In.C];
          break;
        case Op::SubD:
          RD[In.A] = RD[In.B] - RD[In.C];
          break;
        case Op::MulD:
          RD[In.A] = RD[In.B] * RD[In.C];
          break;
        case Op::DivD:
          RD[In.A] = RD[In.B] / RD[In.C];
          break;
        case Op::MinD:
          RD[In.A] = std::min(RD[In.B], RD[In.C]);
          break;
        case Op::MaxD:
          RD[In.A] = std::max(RD[In.B], RD[In.C]);
          break;
        case Op::NegD:
          RD[In.A] = -RD[In.B];
          break;

        case Op::EqI:
          RI[In.A] = RI[In.B] == RI[In.C];
          break;
        case Op::NeI:
          RI[In.A] = RI[In.B] != RI[In.C];
          break;
        case Op::LtI:
          RI[In.A] = RI[In.B] < RI[In.C];
          break;
        case Op::LeI:
          RI[In.A] = RI[In.B] <= RI[In.C];
          break;
        case Op::GtI:
          RI[In.A] = RI[In.B] > RI[In.C];
          break;
        case Op::GeI:
          RI[In.A] = RI[In.B] >= RI[In.C];
          break;
        case Op::EqD:
          RI[In.A] = RD[In.B] == RD[In.C];
          break;
        case Op::NeD:
          RI[In.A] = RD[In.B] != RD[In.C];
          break;
        case Op::LtD:
          RI[In.A] = RD[In.B] < RD[In.C];
          break;
        case Op::LeD:
          RI[In.A] = RD[In.B] <= RD[In.C];
          break;
        case Op::GtD:
          RI[In.A] = RD[In.B] > RD[In.C];
          break;
        case Op::GeD:
          RI[In.A] = RD[In.B] >= RD[In.C];
          break;

        case Op::Jmp:
          Pc = size_t(In.Imm);
          break;
        case Op::JmpZ:
          if (RI[In.B] == 0)
            Pc = size_t(In.Imm);
          break;
        case Op::JmpNZ:
          if (RI[In.B] != 0)
            Pc = size_t(In.Imm);
          break;
        case Op::LoopTest:
          if (RI[In.C] > 0 ? RI[In.A] > RI[In.B] : RI[In.A] < RI[In.B])
            Pc = size_t(In.Imm);
          break;
        case Op::LoopBack:
          RI[In.A] += RI[In.C];
          if (!(RI[In.C] > 0 ? RI[In.A] > RI[In.B] : RI[In.A] < RI[In.B])) {
            if (Cancel && Cancel->cancelled())
              fault(In.Ctx, FaultKind::DeadlineExceeded, DeadlineDetail);
            Pc = size_t(In.Imm);
          }
          break;
        case Op::FaultZeroStep:
          if (RI[In.B] == 0)
            fault(In.Ctx, FaultKind::BadStep, "do loop with zero step",
                  Prog.Slots[In.A].Sym, /*HasValue=*/true, /*Value=*/0);
          break;
        case Op::WhileBack:
          if (++RI[In.A] > WhileIterationGuard)
            fault(In.Ctx, FaultKind::IterationGuard,
                  "while loop exceeded the iteration guard", /*Sym=*/nullptr,
                  /*HasValue=*/true, RI[In.A], WhileIterationGuard);
          if (Cancel && Cancel->cancelled())
            fault(In.Ctx, FaultKind::DeadlineExceeded, DeadlineDetail);
          Pc = size_t(In.Imm);
          break;
        }
      }
    IterDone:;
    }
  }
};

} // namespace

void vm::runChunk(const LoopProgram &Prog, const ChunkContext &C) {
  Machine M(Prog, C);
  M.run();
}
