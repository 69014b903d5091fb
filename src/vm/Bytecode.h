//===- vm/Bytecode.h - Register bytecode for hot loop plans -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register-bytecode program format for certified loop plans. A
/// LoopProgram is the lowered body of ONE do loop iteration behind a
/// prologue that runs once per chunk: the compiler (vm/Compiler.h) flattens
/// the AST walk into a linear instruction stream over typed register files
/// (int64 and double) and moves loop-invariant constants and scalar loads
/// into the prologue; the VM (vm/Vm.h) runs the prologue, then the body once
/// per iteration of a dispensed chunk, with Halt as the iteration's back
/// edge. Everything around the chunk — scheduling, privatization,
/// reductions, fault rollback — stays in the interpreter's dispatch; the
/// bytecode runs every dispatched chunk, at every thread count.
///
/// Memory is addressed through *slots*: one per referenced symbol, resolved
/// once per chunk to a raw buffer pointer (the worker's private override or
/// the shared global), which removes the per-access buffer lookup and Value
/// boxing that dominate the tree walker's cost. The irregular access
/// patterns the paper analyzes get fused superinstructions: Gth/Sct/SctAdd
/// execute a whole a(ind(e)+c) gather, scatter, or scatter-accumulate —
/// index load, both bounds checks, and the element access — as one opcode.
///
/// Bounds checks are bit-faithful to the interpreter: the same subscript
/// check against the same declared extents, raising the same structured
/// RuntimeFault (kind, location, loop, iteration, worker) through a
/// per-instruction FaultCtx table.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_VM_BYTECODE_H
#define IAA_VM_BYTECODE_H

#include "mf/Symbol.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace iaa {
namespace mf {
class DoStmt;
} // namespace mf

namespace vm {

/// The opcode list, in dispatch-table order: X(Name, mnemonic, the register
/// file operand A writes). Op, opName(), writesOf() and the VM's label table
/// are all generated from it, so none of them can fall out of order with the
/// others. Suffix I/D = int64 / double register file; operand letters refer
/// to Instr fields; "slot" operands index LoopProgram::Slots.
#define IAA_VM_OPCODES(X)                                                      \
  /* The iteration's back edge: the next outer index, the deadline poll, */    \
  /* the injector test and the two index stores, then pc = BodyStart; */       \
  /* after the chunk's last iteration, return. */                              \
  X(Halt, "halt", None)                                                        \
  /* Constants and moves. */                                                   \
  X(MovI, "movi", I)           /* RI[A] = Imm */                               \
  X(MovD, "movd", D)           /* RD[A] = bit_cast<double>(Imm) */             \
  X(CopyI, "cpyi", I)          /* RI[A] = RI[B] */                             \
  X(CastID, "i2d", D)          /* RD[A] = double(RI[B]) */                     \
  X(CastDI, "d2i", I)          /* RI[A] = int64(RD[B]), truncating */          \
  /* Scalar slots (element 0 of a size-1 buffer). */                           \
  X(LdScaI, "ldsi", I)         /* RI[A] = slotB[0] */                          \
  X(LdScaD, "ldsd", D)         /* RD[A] = slotB[0] */                          \
  X(StScaI, "stsi", None)      /* slotA[0] = RI[B] */                          \
  X(StScaD, "stsd", None)      /* slotA[0] = RD[B] */                          \
  /* Rank-1 element access. Subscripts are 1-based Fortran values; every */    \
  /* access bounds-checks against the declared extent before touching */       \
  /* the buffer and faults through Ctx on violation. */                        \
  X(Ld1I, "ld1i", I)           /* RI[A] = slotB[RI[C]-1] */                    \
  X(Ld1D, "ld1d", D)           /* RD[A] = slotB[RI[C]-1] */                    \
  X(St1I, "st1i", None)        /* slotA[RI[B]-1] = RI[C] */                    \
  X(St1D, "st1d", None)        /* slotA[RI[B]-1] = RD[C] */                    \
  /* Rank-2 element access (row-major, both dimensions checked). */            \
  X(Ld2I, "ld2i", I)           /* RI[A] = slotB[(RI[C]-1)*ext1 + RI[D]-1] */   \
  X(Ld2D, "ld2d", D)           /* RD[A] = slotB[(RI[C]-1)*ext1 + RI[D]-1] */   \
  X(St2I, "st2i", None)        /* slotA[(RI[B]-1)*ext1 + RI[C]-1] = RI[D] */   \
  X(St2D, "st2d", None)        /* slotA[(RI[B]-1)*ext1 + RI[C]-1] = RD[D] */   \
  /* Fused irregular superinstructions: data(ind(sub) + Imm) in one */         \
  /* opcode. sub is checked against slot E (the index array), the loaded */    \
  /* index plus Imm against the data slot. Ctx is the first of TWO */          \
  /* consecutive fault contexts: [Ctx] attributes the index subscript */       \
  /* check, [Ctx+1] the data subscript check. */                               \
  X(GthI, "gthi", I)           /* RI[A] = dataB[indE[RI[C]-1] + Imm - 1] */    \
  X(GthD, "gthd", D)           /* RD[A] = dataB[indE[RI[C]-1] + Imm - 1] */    \
  X(SctI, "scti", None)        /* dataA[indE[RI[B]-1] + Imm - 1] = RI[C] */    \
  X(SctD, "sctd", None)        /* dataA[indE[RI[B]-1] + Imm - 1] = RD[C] */    \
  X(SctAddI, "sctaddi", None)  /* dataA[indE[RI[B]-1] + Imm - 1] += RI[C] */   \
  X(SctAddD, "sctaddd", None)  /* dataA[indE[RI[B]-1] + Imm - 1] += RD[C] */   \
  /* Integer arithmetic: RI[A] = RI[B] op RI[C] unless noted. DivI and */      \
  /* ModI fault DivByZero through Ctx when RI[C] == 0. */                      \
  X(AddI, "addi", I)                                                           \
  X(SubI, "subi", I)                                                           \
  X(MulI, "muli", I)                                                           \
  X(DivI, "divi", I)                                                           \
  X(ModI, "modi", I)                                                           \
  X(MinI, "mini", I)                                                           \
  X(MaxI, "maxi", I)                                                           \
  X(NegI, "negi", I)           /* RI[A] = -RI[B] */                            \
  X(NotI, "noti", I)           /* RI[A] = RI[B] == 0 */                        \
  X(BoolI, "booli", I)         /* RI[A] = RI[B] != 0 */                        \
  X(DNzI, "dnzi", I)           /* RI[A] = RD[B] != 0 (a real's truth) */       \
  X(AddIImm, "addiimm", I)     /* RI[A] = RI[B] + Imm */                       \
  /* Double arithmetic: RD[A] = RD[B] op RD[C] unless noted. */                \
  X(AddD, "addd", D)                                                           \
  X(SubD, "subd", D)                                                           \
  X(MulD, "muld", D)                                                           \
  X(DivD, "divd", D)                                                           \
  X(MinD, "mind", D)                                                           \
  X(MaxD, "maxd", D)                                                           \
  X(NegD, "negd", D)           /* RD[A] = -RD[B] */                            \
  /* Comparisons: RI[A] = B op C as 0/1, over RI (I) or RD (D). */             \
  X(EqI, "eqi", I)                                                             \
  X(NeI, "nei", I)                                                             \
  X(LtI, "lti", I)                                                             \
  X(LeI, "lei", I)                                                             \
  X(GtI, "gti", I)                                                             \
  X(GeI, "gei", I)                                                             \
  X(EqD, "eqd", I)                                                             \
  X(NeD, "ned", I)                                                             \
  X(LtD, "ltd", I)                                                             \
  X(LeD, "led", I)                                                             \
  X(GtD, "gtd", I)                                                             \
  X(GeD, "ged", I)                                                             \
  /* Control flow. Imm is an absolute instruction index. */                    \
  X(Jmp, "jmp", None)          /* pc = Imm */                                  \
  X(JmpZ, "jmpz", None)        /* if (RI[B] == 0) pc = Imm */                  \
  X(JmpNZ, "jmpnz", None)      /* if (RI[B] != 0) pc = Imm */                  \
  /* Nested do loops, step of either sign. LoopTest: if (RI[C] > 0 ? */        \
  /* RI[A] > RI[B] : RI[A] < RI[B]) pc = Imm. LoopBack: RI[A] += RI[C]; */     \
  /* unless that is past the bound as above, poll the deadline through Ctx */  \
  /* and set pc = Imm. FaultZeroStep faults BadStep through Ctx when */        \
  /* RI[B] == 0; A is the loop's index-variable slot, for attribution. */      \
  X(LoopTest, "looptest", None)                                                \
  X(LoopBack, "loopback", I)                                                   \
  X(FaultZeroStep, "ckstep", None)                                             \
  /* While back edge (the condition is an ordinary JmpZ past the loop): */     \
  /* if (++RI[A] > WhileIterationGuard) fault IterationGuard through Ctx; */   \
  /* poll the deadline through Ctx; pc = Imm. */                               \
  X(WhileBack, "whileback", I)

enum class Op : uint8_t {
#define IAA_VM_OP(Name, Mnemonic, Writes) Name,
  IAA_VM_OPCODES(IAA_VM_OP)
#undef IAA_VM_OP
};

/// Number of opcodes; Op values are 0 .. NumOps-1.
constexpr unsigned NumOps = 0
#define IAA_VM_OP(Name, Mnemonic, Writes) +1
    IAA_VM_OPCODES(IAA_VM_OP)
#undef IAA_VM_OP
    ;

/// The register file an instruction's A operand writes (None: A is a slot,
/// a read, or unused).
enum class RegFile : uint8_t { None, I, D };

const char *opName(Op K);
RegFile writesOf(Op K);

/// One instruction. Fields are operand slots whose meaning depends on the
/// opcode (see Op); Imm doubles as immediate constant, fused-access offset,
/// and jump target.
struct Instr {
  Op K = Op::Halt;
  uint16_t A = 0, B = 0, C = 0, D = 0, E = 0;
  /// Fault-context index for instructions that can fault (fused accesses
  /// use Ctx and Ctx+1).
  uint16_t Ctx = 0;
  int64_t Imm = 0;
};

/// Attribution for a fault raised by an instruction: where in the source,
/// inside which loop, and which register holds that loop's live iteration
/// number when the fault fires.
struct FaultCtx {
  SourceLoc Loc;
  std::string Loop; ///< Innermost enclosing loop label ("<unlabeled>").
  uint16_t IterReg = 0;
};

/// One referenced symbol: static shape, resolved to a raw buffer pointer
/// per chunk (worker override or shared global).
struct SlotInfo {
  const mf::Symbol *Sym = nullptr;
  mf::ScalarKind Kind = mf::ScalarKind::Int;
  unsigned Rank = 0;          ///< 0 = scalar.
  int64_t Ext0 = 0, Ext1 = 0; ///< Declared extents (run-resolved constants).
};

/// The lowered body of one loop iteration plus everything the VM needs to
/// run it: slot shapes, fault contexts, and register-file sizes.
struct LoopProgram {
  const mf::DoStmt *Loop = nullptr;
  /// The chunk prologue, Code[0, BodyStart), then one iteration's body,
  /// Code[BodyStart, end), which ends in Halt.
  std::vector<Instr> Code;
  /// First body instruction. The prologue holds only loop invariants —
  /// MovI/MovD constants and LdSca loads of scalars the loop never stores,
  /// each the only writer of its register — so running it once per chunk
  /// leaves every register the body reads as a per-iteration run would.
  size_t BodyStart = 0;
  std::vector<SlotInfo> Slots;
  std::vector<FaultCtx> Ctxs;
  unsigned NumIntRegs = 0;
  unsigned NumRealRegs = 0;
  /// Register the driver sets to the current outer iteration, and the slot
  /// of the outer index variable (stored per iteration, Fortran-style).
  uint16_t IterReg = 0;
  uint16_t IndexSlot = 0;
  /// Instruction-mix counters for stats and the disassembly.
  unsigned FusedGathers = 0;
  unsigned FusedScatters = 0;

  /// Human-readable disassembly (tests and --dump-bytecode style output);
  /// a "body:" line marks where the prologue ends.
  std::string str() const;
};

} // namespace vm
} // namespace iaa

#endif // IAA_VM_BYTECODE_H
