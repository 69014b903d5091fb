//===- vm/Bytecode.h - Register bytecode for hot loop plans -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register-bytecode program format for certified loop plans. A
/// LoopProgram is the lowered body of ONE do loop iteration: the compiler
/// (vm/Compiler.h) flattens the AST walk into a linear instruction stream
/// over typed register files (int64 and double), and the VM (vm/Vm.h)
/// executes the stream once per iteration of a dispensed chunk. Everything
/// around the body — scheduling, privatization, reductions, locality
/// reordering, fault rollback — stays in the interpreter's parallel
/// dispatch; the bytecode only replaces the per-iteration tree walk.
///
/// Memory is addressed through *slots*: one per referenced symbol, resolved
/// once per chunk to a raw buffer pointer (the worker's private override or
/// the shared global), which removes the per-access hash lookup and Value
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

/// Opcode set. Suffix I/D = int64 / double register file. Operand letters
/// refer to Instr fields; "slot" operands index LoopProgram::Slots.
enum class Op : uint8_t {
  Halt, ///< End of the iteration body.

  // Constants and moves.
  MovI,   ///< RI[A] = Imm
  MovD,   ///< RD[A] = bit_cast<double>(Imm)
  CopyI,  ///< RI[A] = RI[B]
  CopyD,  ///< RD[A] = RD[B]
  CastID, ///< RD[A] = double(RI[B])
  CastDI, ///< RI[A] = int64(RD[B]) (C truncation, as Value::asInt)

  // Scalar slots (element 0 of a size-1 buffer).
  LdScaI, ///< RI[A] = slotB[0]
  LdScaD, ///< RD[A] = slotB[0]
  StScaI, ///< slotA[0] = RI[B]
  StScaD, ///< slotA[0] = RD[B]

  // Rank-1 element access. Subscripts are 1-based Fortran values; every
  // access bounds-checks against the declared extent before touching the
  // buffer and faults through Ctx on violation.
  Ld1I, ///< RI[A] = slotB[RI[C]-1]
  Ld1D, ///< RD[A] = slotB[RI[C]-1]
  St1I, ///< slotA[RI[B]-1] = RI[C]
  St1D, ///< slotA[RI[B]-1] = RD[C]

  // Rank-2 element access (row-major, both dimensions checked).
  Ld2I, ///< RI[A] = slotB[(RI[C]-1)*ext1 + RI[D]-1]
  Ld2D, ///< RD[A] = slotB[(RI[C]-1)*ext1 + RI[D]-1]
  St2I, ///< slotA[(RI[B]-1)*ext1 + RI[C]-1] = RI[D]
  St2D, ///< slotA[(RI[B]-1)*ext1 + RI[C]-1] = RD[D]

  // Fused irregular superinstructions: data(ind(sub) + Imm) in one opcode.
  // sub = RI[C] is checked against slot E (the index array), the loaded
  // index plus Imm is checked against slot B/A (the data array). Ctx is the
  // first of TWO consecutive fault contexts: [Ctx] attributes the index
  // subscript check, [Ctx+1] the data subscript check.
  GthI,    ///< RI[A] = dataB[indE[RI[C]-1] + Imm - 1]
  GthD,    ///< RD[A] = dataB[indE[RI[C]-1] + Imm - 1]
  SctI,    ///< dataA[indE[RI[B]-1] + Imm - 1] = RI[C]
  SctD,    ///< dataA[indE[RI[B]-1] + Imm - 1] = RD[C]
  SctAddI, ///< dataA[indE[RI[B]-1] + Imm - 1] += RI[C]
  SctAddD, ///< dataA[indE[RI[B]-1] + Imm - 1] += RD[C]

  // Integer arithmetic (A = dst, B/C = operands).
  AddI, SubI, MulI,
  DivI, ///< Faults DivByZero through Ctx when RI[C] == 0.
  ModI, ///< Faults DivByZero through Ctx when RI[C] == 0.
  MinI, MaxI,
  NegI,    ///< RI[A] = -RI[B]
  NotI,    ///< RI[A] = RI[B] == 0
  BoolI,   ///< RI[A] = RI[B] != 0
  DNzI,    ///< RI[A] = RD[B] != 0  (truthiness of a real)
  AddIImm, ///< RI[A] = RI[B] + Imm

  // Double arithmetic.
  AddD, SubD, MulD, DivD, MinD, MaxD,
  NegD, ///< RD[A] = -RD[B]

  // Comparisons (int 0/1 result in RI[A]).
  EqI, NeI, LtI, LeI, GtI, GeI,
  EqD, NeD, LtD, LeD, GtD, GeD,

  // Control flow. Imm is an absolute instruction index.
  Jmp,   ///< pc = Imm
  JmpZ,  ///< if (RI[B] == 0) pc = Imm
  JmpNZ, ///< if (RI[B] != 0) pc = Imm

  // Counted-loop support for nested do loops (step of either sign).
  LoopTest, ///< if (RI[C] > 0 ? RI[A] > RI[B] : RI[A] < RI[B]) pc = Imm
  LoopBack, ///< RI[A] += RI[C]; if (!(done as above)) { poll the deadline
            ///< through Ctx; pc = Imm }
  FaultZeroStep, ///< Fault BadStep through Ctx when RI[B] == 0; A is the
                 ///< loop's index-variable slot, for fault attribution.

  // While-loop back-edge: the condition is an ordinary JmpZ past the loop.
  WhileBack, ///< if (++RI[A] > WhileIterationGuard) fault IterationGuard
             ///< through Ctx; poll the deadline through Ctx; pc = Imm
};

const char *opName(Op K);

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
  std::vector<Instr> Code; ///< One iteration's body; terminated by Halt.
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

  /// Human-readable disassembly (tests and --dump-bytecode style output).
  std::string str() const;
};

} // namespace vm
} // namespace iaa

#endif // IAA_VM_BYTECODE_H
