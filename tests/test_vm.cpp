//===- tests/test_vm.cpp - Register-bytecode VM differential tests --------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The bytecode engine end to end, with the plan-free serial tree walk as
/// the differential oracle: --engine=both runs every program twice and
/// demands bit-identical final-memory checksums (or matching fault kinds),
/// at every thread count, on the Fig. 16
/// benchmark reconstructions and Fig. 1(a)'s while loop, a program holding
/// every opcode, the recurrence-promoted kernels, conditional-dispatch
/// loops (inspection pass and fail), and a mid-chunk fault with rollback +
/// serial replay. Compiler-level tests pin the fusion and scalar
/// peepholes, the chunk prologue, while lowering and the bailout taxonomy;
/// fault tests pin serial tree-walk attribution inside while bodies and at
/// a zero inner step, and deadline polls inside long VM chunks.
///
/// Suite names here start with "Vm" so the CI ThreadSanitizer job's
/// --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "verify/FaultInjector.h"
#include "vm/Bytecode.h"
#include "vm/Compiler.h"
#include "xform/Parallelizer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

using namespace iaa;
using namespace iaa::interp;
using namespace iaa::mf;
using iaa::test::parseOrDie;

namespace {

const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// The recurrence-promoted kernels of test_recurrence.cpp: a fused CCS
/// build + segment scale, and a strictly-increasing prefix-sum scatter.
const char *FusedCcs = R"(program t
    integer i, j, n
    integer colptr(101), colcnt(100)
    real vals(800)
    n = 100
    colptr(1) = 1
    build: do i = 1, n
      colcnt(i) = mod(i * 5, 7) + 1
      colptr(i + 1) = colptr(i) + colcnt(i)
    end do
    fill: do i = 1, 800
      vals(i) = mod(i, 13) * 0.125
    end do
    scale: do i = 1, n
      do j = 1, colcnt(i)
        vals(colptr(i) + j - 1) = vals(colptr(i) + j - 1) * 1.5 + 0.25
      end do
    end do
  end)";

const char *PrefixSumScatter = R"(program t
    integer i, n, p
    integer pos(1000)
    real x(3100), y(1000)
    n = 1000
    p = 0
    build: do i = 1, n
      p = p + mod(i, 3) + 1
      pos(i) = p
    end do
    init: do i = 1, n
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(pos(i)) = x(pos(i)) + y(i) * 0.5
    end do
  end)";

/// Conditional-dispatch kernels of test_runtime_check.cpp: the permutation
/// index passes inspection (dispatched on the VM), the duplicate-heavy one
/// fails it (serial fallback) — the result must match the serial tree walk
/// either way.
const char *PermutationScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";

const char *DuplicateScatter = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, 500) + 1
      x(i) = i * 0.5
      y(i) = mod(i, 9) * 0.25
    end do
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + y(i) * 0.5
    end do
  end)";

struct Harness {
  std::unique_ptr<Program> P;
  xform::PipelineResult Plan;

  explicit Harness(const std::string &Source) : P(parseOrDie(Source)) {
    Plan = xform::parallelize(*P, xform::PipelineMode::Full);
  }

  double serialChecksum() {
    Interpreter I(*P);
    Memory Serial = I.run(ExecOptions{});
    EXPECT_FALSE(I.faultState().Faulted) << I.faultState().str();
    return Serial.checksumExcluding(deadPrivateIds(Plan));
  }

  /// The plan-free serial tree walk's fault: the reference attribution.
  RuntimeFault serialFault() {
    Interpreter I(*P);
    I.run(ExecOptions{});
    EXPECT_TRUE(I.faultState().Faulted);
    return I.faultState().Fault;
  }

  ExecOptions baseOptions(unsigned T, ExecEngine E) {
    ExecOptions Opts;
    Opts.Plans = &Plan;
    Opts.Threads = T;
    Opts.MinParallelWork = 0;
    Opts.RuntimeChecks = true;
    Opts.Engine = E;
    return Opts;
  }

  /// Runs under --engine=both and asserts the oracle saw no divergence.
  ExecStats runBoth(unsigned T, const std::string &Ctx) {
    Interpreter I(*P);
    ExecStats Stats;
    I.run(baseOptions(T, ExecEngine::Both), &Stats);
    EXPECT_FALSE(I.faultState().Faulted) << Ctx << ": "
                                         << I.faultState().str();
    EXPECT_EQ(Stats.BothComparisons, 1u) << Ctx;
    EXPECT_EQ(Stats.BothMismatches, 0u) << Ctx;
    return Stats;
  }
};

//===----------------------------------------------------------------------===//
// Compiler: lowering, fusion, bailouts
//===----------------------------------------------------------------------===//

/// Per-symbol-id dimension extents for direct compileLoop calls, derived
/// from an allocated Memory (rank-1 constant-extent test programs only).
std::vector<std::vector<int64_t>> extentsOf(const Program &P) {
  Memory M(P);
  std::vector<std::vector<int64_t>> Out(P.numSymbols());
  for (const Symbol *S : P.symbols())
    if (S->isArray() && S->rank() == 1)
      Out[S->id()] = {static_cast<int64_t>(M.buffer(S).size())};
  return Out;
}

TEST(VmCompile, GatherScatterFusesToSuperinstructions) {
  Harness H(PermutationScatter);
  const DoStmt *L = H.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*H.P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  // x(ind(i)) = x(ind(i)) + y(i)*0.5 must lower to one fused
  // gather-modify-scatter (sctadd) — the re-gather of x folds into the
  // superinstruction, so no standalone gather or address arithmetic
  // survives for it.
  EXPECT_EQ(R.Prog.FusedScatters, 1u) << R.Prog.str();
  EXPECT_EQ(R.Prog.FusedGathers, 1u) << R.Prog.str();
  std::string Dis = R.Prog.str();
  EXPECT_NE(Dis.find("sctaddd"), std::string::npos) << Dis;
}

TEST(VmCompile, PureGatherLowersToGth) {
  Harness H(R"(program t
    integer i, n
    integer ind(1000)
    real x(1000), y(1000)
    n = 1000
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.5
    end do
    gat: do i = 1, n
      y(i) = x(ind(i)) * 2.0
    end do
  end)");
  const DoStmt *L = H.P->findLoop("gat");
  ASSERT_NE(L, nullptr);
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*H.P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  EXPECT_EQ(R.Prog.FusedGathers, 1u) << R.Prog.str();
  EXPECT_NE(R.Prog.str().find("gthd"), std::string::npos) << R.Prog.str();
}

TEST(VmCompile, ScalarReloadsAndConstantAddsFold) {
  // Within straight-line code a scalar is loaded at most once: i comes from
  // the iteration register, k from the register just stored to it. e +- c
  // takes c as an immediate. After the if's join, k is loaded again.
  auto P = parseOrDie(R"(program t
    integer i, n, k
    real x(100)
    n = 100
    lp: do i = 1, n
      k = i + 1
      x(i) = k - 2 + k
      if (k > 50) then
        k = 0
      end if
      x(i) = x(i) + k
    end do
  end)");
  const DoStmt *L = P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  std::string Dis = R.Prog.str();
  auto Count = [&](const std::string &Op) {
    size_t N = 0;
    for (size_t At = Dis.find(": " + Op + " "); At != std::string::npos;
         At = Dis.find(": " + Op + " ", At + 1))
      ++N;
    return N;
  };
  EXPECT_EQ(Count("addiimm"), 2u) << Dis;
  EXPECT_EQ(Count("ldsi"), 2u) << Dis; // k and i after the join.
}

TEST(VmCompile, InvariantsHoistIntoChunkPrologue) {
  // scat's constant 0.5 is loaded once per chunk: the body is the load of
  // y(i), the multiply, the fused scatter-add and the back edge.
  Harness H(PermutationScatter);
  const DoStmt *Scat = H.P->findLoop("scat");
  ASSERT_NE(Scat, nullptr);
  vm::CompileResult R = vm::compileLoop(Scat, extentsOf(*H.P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  const vm::LoopProgram &Prog = R.Prog;
  std::string Dis = Prog.str();
  ASSERT_EQ(Prog.BodyStart, 1u) << Dis;
  EXPECT_EQ(Prog.Code[0].K, vm::Op::MovD) << Dis;
  double Half = 0;
  std::memcpy(&Half, &Prog.Code[0].Imm, sizeof(Half));
  EXPECT_EQ(Half, 0.5);
  std::vector<vm::Op> Body;
  for (size_t K = Prog.BodyStart; K < Prog.Code.size(); ++K)
    Body.push_back(Prog.Code[K].K);
  EXPECT_EQ(Body, (std::vector<vm::Op>{vm::Op::Ld1D, vm::Op::MulD,
                                        vm::Op::SctAddD, vm::Op::Halt}))
      << Dis;
  EXPECT_NE(Dis.find("\n  body:\n  1: ld1d "), std::string::npos) << Dis;

  // What stays per iteration: loads of a scalar the loop stores (k) and of
  // the index variable (i, reloaded after the if's join), a while guard's
  // reset, and an and/or result's default. n is never stored, so its load
  // moves.
  auto P = parseOrDie(R"(program t
    integer i, n, k, go
    real x(100)
    n = 100
    lp: do i = 1, n
      k = i + 1
      if (k > 50 and n > 3) then
        k = 0
      end if
      go = 0
      while (go < 2)
        go = go + 1
      end while
      x(i) = x(i) + k + i + n
    end do
  end)");
  const DoStmt *L = P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  R = vm::compileLoop(L, extentsOf(*P));
  ASSERT_TRUE(R.Ok) << R.Bailout;
  const vm::LoopProgram &Lp = R.Prog;
  Dis = Lp.str();
  auto InBody = [&](size_t At) { return At >= Lp.BodyStart; };
  std::map<std::string, unsigned> Loads;
  std::set<uint16_t> Guards, Results;
  for (size_t K = 0; K < Lp.Code.size(); ++K) {
    const vm::Instr &In = Lp.Code[K];
    if (In.K == vm::Op::LdScaI) {
      std::string Name = Lp.Slots[In.B].Sym->name();
      ++Loads[Name];
      EXPECT_EQ(InBody(K), Name != "n") << Name << " at " << K << "\n" << Dis;
    }
    if (In.K == vm::Op::WhileBack)
      Guards.insert(In.A);
    if (In.K == vm::Op::BoolI)
      Results.insert(In.A);
  }
  EXPECT_GE(Loads["k"], 1u) << Dis;
  EXPECT_GE(Loads["i"], 1u) << Dis;
  EXPECT_GE(Loads["n"], 1u) << Dis;
  ASSERT_EQ(Guards.size(), 1u) << Dis;
  ASSERT_EQ(Results.size(), 1u) << Dis;
  unsigned Resets = 0;
  for (size_t K = 0; K < Lp.Code.size(); ++K) {
    const vm::Instr &In = Lp.Code[K];
    if (In.K == vm::Op::MovI &&
        (Guards.count(In.A) || Results.count(In.A))) {
      ++Resets;
      EXPECT_TRUE(InBody(K)) << "movi at " << K << "\n" << Dis;
    }
  }
  EXPECT_EQ(Resets, 2u) << Dis;
}

TEST(VmCompile, BailoutTaxonomy) {
  // A call to an unresolved procedure is a structural bailout, found
  // inside a while body too; the xform pre-check and the compiler must
  // agree. The parser rejects undefined callees, so the call is detached
  // after parsing.
  auto P = parseOrDie(R"(program t
    integer i, n, k
    real x(100)
    procedure bump
      x(i) = x(i) + 1.0
    end
    n = 100
    lp: do i = 1, n
      k = 1
      while (k < 3)
        call bump
        k = k + 1
      end while
    end do
  end)");
  DoStmt *L = P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  auto *WS = cast<WhileStmt>(L->body()[1]);
  cast<CallStmt>(WS->body()[0])->setCallee(nullptr);
  const char *Why = vm::structuralBailout(L);
  ASSERT_NE(Why, nullptr);
  EXPECT_NE(std::string(Why).find("unresolved"), std::string::npos) << Why;
  vm::CompileResult R = vm::compileLoop(L, extentsOf(*P));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Bailout, Why);
}

TEST(VmCompile, WhileBodiesLower) {
  // TREE's array-stack walk (ACCEL/do10) and a while reached through an
  // inlined call both lower: the pre-check finds nothing to bail on, the
  // compiler agrees, and each while closes with one back-edge op.
  benchprogs::BenchmarkProgram Tree = benchprogs::tree(0.05);
  Harness TreeH(Tree.Source);
  Harness CallH(R"(program t
    integer i, n, k
    real s
    real x(100)
    procedure walk
      while (k < 3)
        k = k + 1
        s = s + k * 0.5
      end while
    end
    n = 100
    lp: do i = 1, n
      k = 0
      s = 0.0
      call walk
      x(i) = s
    end do
  end)");
  for (auto [H, Label] : {std::pair{&TreeH, "do10"}, std::pair{&CallH, "lp"}}) {
    const DoStmt *L = H->P->findLoop(Label);
    ASSERT_NE(L, nullptr) << Label;
    const char *Why = vm::structuralBailout(L);
    EXPECT_EQ(Why, nullptr) << Label << ": " << Why;
    const xform::LoopPlan *Plan = H->Plan.planFor(L);
    ASSERT_NE(Plan, nullptr) << Label;
    EXPECT_TRUE(Plan->VmEligible) << Label << ": " << Plan->VmBailout;
    vm::CompileResult R = vm::compileLoop(L, extentsOf(*H->P));
    ASSERT_TRUE(R.Ok) << Label << ": " << R.Bailout;
    std::string Dis = R.Prog.str();
    EXPECT_NE(Dis.find("whileback"), std::string::npos) << Dis;
  }
}

TEST(VmCompile, PlansMarkEligibility) {
  Harness H(PermutationScatter);
  const DoStmt *L = H.P->findLoop("scat");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Cond = H.Plan.conditionalPlanFor(L);
  ASSERT_NE(Cond, nullptr);
  EXPECT_TRUE(Cond->VmEligible) << Cond->VmBailout;
}

//===----------------------------------------------------------------------===//
// Differential oracle: benchmarks x thread counts
//===----------------------------------------------------------------------===//

TEST(VmDifferential, Fig16BenchmarksBitIdenticalEverywhere) {
  // Fig. 1(a)'s dok (a linked-list while inside the certified loop) joins
  // the five programs: every certified loop body lowers, while loops
  // included, so no program bails and every dispatch, T=1 included, runs
  // on the VM.
  std::vector<benchprogs::BenchmarkProgram> Programs =
      benchprogs::allBenchmarks(0.05);
  Programs.push_back({"fig1a", benchprogs::fig1aSource(), {"dok"}, {}});
  for (const auto &B : Programs) {
    Harness H(B.Source);
    for (unsigned T : ThreadCounts) {
      std::string Ctx = B.Name + "/T=" + std::to_string(T);
      ExecStats Stats = H.runBoth(T, Ctx);
      EXPECT_EQ(Stats.VmBailouts, 0u) << Ctx;
      EXPECT_GT(Stats.VmParallelLoopRuns, 0u)
          << Ctx << ": the VM engine never engaged";
      EXPECT_EQ(Stats.VmParallelLoopRuns, Stats.ParallelLoopRuns)
          << Ctx << ": a dispatched loop ran off the VM";
    }
  }
}

TEST(VmDifferential, RecurrencePromotedKernels) {
  for (const char *Source : {FusedCcs, PrefixSumScatter}) {
    Harness H(Source);
    for (unsigned T : ThreadCounts)
      H.runBoth(T, std::string(Source == FusedCcs ? "ccs" : "psum") +
                       "/T=" + std::to_string(T));
  }
}

TEST(VmDifferential, ConditionalDispatchPassAndFail) {
  {
    Harness H(PermutationScatter);
    for (unsigned T : ThreadCounts) {
      ExecStats Stats = H.runBoth(T, "perm/T=" + std::to_string(T));
      EXPECT_GT(Stats.VmParallelLoopRuns, 0u);
    }
  }
  {
    // Failed inspection: the scatter never dispatches, so it runs on the
    // tree walk — and must still agree bit for bit with the reference.
    Harness H(DuplicateScatter);
    ExecStats Stats = H.runBoth(4, "dup");
    EXPECT_GT(Stats.RuntimeCheckFails, 0u);
  }
}

/// Five certified loops whose bytecode together holds every opcode:
/// if/else and and/or/not, a real as a condition, real comparisons, integer
/// and real min/max/negation, a real stored into an integer array, rank-2
/// accesses, integer and real gathers and scatters through a permutation,
/// and an inner do with an explicit step beside a while. Every branch goes
/// both ways over the iteration space.
const char *EveryOpcode = R"(program t
    integer i, k, m, n
    integer ind(1000), ia(1000), ib(1000), ic(1000), id(1000), ie(1000)
    integer ia2(1000, 3)
    real s, t
    real x(1000), y(1000), z(1000), w(1000)
    real x2(1000, 3)
    n = 1000
    s = 0.75
    init: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      ia(i) = mod(i, 11) - 5
      y(i) = mod(i, 9) * 0.25 - 1.0
      x(i) = i * 0.5
    end do
    ops: do i = 1, n
      t = y(i) * s
      if (t) then
        z(i) = -t + min(t, 0.5) - max(t, -0.5)
      else
        z(i) = t / 2.0
      end if
      k = -ia(i)
      ib(i) = min(k, 3) * max(k, -2) - i / 3 + mod(i, 5) + (k + i) * 3
      if (t == 0.0 or t /= s and not (t < 0.25)) then
        ic(i) = 1
      else
        ic(i) = 2
      end if
      if (t <= 0.25 and t >= -s or t > 0.5) then
        w(i) = t
      else
        w(i) = 0.0
      end if
      if (k == 1 or k /= 2 and k < 3 and k <= 4 and k > -4 and k >= -3) then
        id(i) = k - i
      else
        id(i) = i + 1
      end if
      ie(i) = y(i) * 4.0
      x2(i, 1) = i * 0.25
      ia2(i, 2) = ib(i)
      m = 0
      do k = 1, 9, 2
        m = m + k
      end do
      while (m < 30)
        m = m + 4
      end while
      ib(i) = ib(i) + m
    end do
    rd: do i = 1, n
      z(i) = z(i) + x2(i, 1) + ia2(i, 2)
    end do
    gat: do i = 1, n
      y(i) = x(ind(i)) + ia(ind(i))
    end do
    sct: do i = 1, n
      ic(ind(i)) = i
      id(ind(i)) = id(ind(i)) + 1
      x(ind(i)) = y(i)
      w(ind(i)) = w(ind(i)) + 1.0
    end do
  end)";

TEST(VmDifferential, EveryOpcodeBitIdentical) {
  const char *const Loops[] = {"init", "ops", "rd", "gat", "sct"};
  Harness H(EveryOpcode);
  for (unsigned T : ThreadCounts) {
    std::string Ctx = "T=" + std::to_string(T);
    auto Store = std::make_shared<vm::BytecodeCache>();
    Interpreter I(*H.P);
    I.setBytecodeCache(Store);
    ExecStats Stats;
    I.run(H.baseOptions(T, ExecEngine::Both), &Stats);
    ASSERT_FALSE(I.faultState().Faulted) << Ctx << ": "
                                         << I.faultState().str();
    EXPECT_EQ(Stats.BothComparisons, 1u) << Ctx;
    EXPECT_EQ(Stats.BothMismatches, 0u) << Ctx;
    EXPECT_EQ(Stats.VmBailouts, 0u) << Ctx;
    EXPECT_EQ(Stats.ParallelLoopRuns, std::size(Loops))
        << Ctx << ": a loop did not dispatch";
    EXPECT_EQ(Stats.VmParallelLoopRuns, Stats.ParallelLoopRuns) << Ctx;

    // The programs that ran, read back from the store they were lowered
    // into: together they hold every opcode.
    std::set<vm::Op> Seen;
    for (const char *Label : Loops) {
      const DoStmt *L = H.P->findLoop(Label);
      ASSERT_NE(L, nullptr) << Label;
      const vm::CompileResult &R =
          Store->getOrCompile(L, [] { return vm::CompileResult{}; });
      ASSERT_TRUE(R.Ok) << Ctx << ": " << Label << " never lowered";
      for (const vm::Instr &In : R.Prog.Code)
        Seen.insert(In.K);
    }
    for (unsigned K = 0; K < vm::NumOps; ++K)
      EXPECT_TRUE(Seen.count(vm::Op(K)))
          << Ctx << ": no loop holds " << vm::opName(vm::Op(K));
  }
}

//===----------------------------------------------------------------------===//
// Engine selection, stats, and graceful bailout
//===----------------------------------------------------------------------===//

TEST(VmEngine, ParseAndNames) {
  ExecEngine E;
  EXPECT_FALSE(parseEngine("interp", E)) << "the interp engine was removed";
  EXPECT_TRUE(parseEngine("vm", E));
  EXPECT_EQ(E, ExecEngine::Vm);
  EXPECT_TRUE(parseEngine("both", E));
  EXPECT_EQ(E, ExecEngine::Both);
  EXPECT_FALSE(parseEngine("jit", E));
  EXPECT_STREQ(engineName(ExecEngine::Vm), "vm");
  EXPECT_STREQ(engineName(ExecEngine::Both), "both");
}

TEST(VmEngine, VmEngineCompilesOncePerLoop) {
  Harness H(PermutationScatter);
  Interpreter I(*H.P);
  ExecStats Stats;
  Memory M = I.run(H.baseOptions(4, ExecEngine::Vm), &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_GT(Stats.VmLoopsCompiled, 0u);
  EXPECT_GT(Stats.VmChunksRun, 0u);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), H.serialChecksum());
}

TEST(VmEngine, UnsupportedBodyFallsBackPerLoop) {
  // lp is certified parallel but calls through a 9-deep chain — past the
  // VM compiler's inline budget, so it bails and runs serially on the tree
  // walk; par is clean and runs on bytecode. The program result is
  // unchanged.
  Harness H(R"(program t
    integer i, n
    real t
    real x(2000), y(2000)
    procedure s9
      t = t * 2.0 + 1.0
    end
    procedure s8
      call s9
    end
    procedure s7
      call s8
    end
    procedure s6
      call s7
    end
    procedure s5
      call s6
    end
    procedure s4
      call s5
    end
    procedure s3
      call s4
    end
    procedure s2
      call s3
    end
    procedure s1
      call s2
    end
    n = 2000
    par: do i = 1, n
      y(i) = i * 0.5
    end do
    lp: do i = 1, n
      t = y(i)
      call s1
      x(i) = t
    end do
  end)");
  const xform::LoopReport *Rep = H.Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->Parallel) << Rep->WhyNot;
  const DoStmt *L = H.P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  const xform::LoopPlan *Plan = H.Plan.planFor(L);
  ASSERT_NE(Plan, nullptr);
  EXPECT_FALSE(Plan->VmEligible);
  EXPECT_NE(Plan->VmBailout.find("too deep"), std::string::npos)
      << Plan->VmBailout;

  double Want = H.serialChecksum();
  Interpreter I(*H.P);
  ExecStats Stats;
  Memory M = I.run(H.baseOptions(4, ExecEngine::Vm), &Stats);
  ASSERT_FALSE(I.faultState().Faulted) << I.faultState().str();
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want);
  EXPECT_GT(Stats.VmBailouts, 0u);
  EXPECT_GT(Stats.VmParallelLoopRuns, 0u) << "par must still run on the VM";
  EXPECT_EQ(Stats.VmParallelLoopRuns, Stats.ParallelLoopRuns)
      << "the bailed lp must not dispatch";
  EXPECT_EQ(Stats.DispatchStatic, 1u) << "par";
  EXPECT_EQ(Stats.DispatchSerial, 1u) << "lp runs serially, uninspected";
}

//===----------------------------------------------------------------------===//
// Fault containment on the VM path
//===----------------------------------------------------------------------===//

TEST(VmFault, MidChunkFaultRollsBackAndReplays) {
  // The injected fault fires inside a VM-executed parallel chunk; the
  // transaction must roll back and the serial replay (always on the tree
  // walk — the semantic reference) must recover bit-identically.
  Harness H(R"(program t
    integer i, n
    real x(2000)
    n = 2000
    init: do i = 1, n
      x(i) = i * 0.5
    end do
    lp: do i = 1, n
      x(i) = x(i) * 2.0 + 1.0
    end do
  end)");
  double Want = H.serialChecksum();
  verify::FaultInjector Inj;
  Inj.faultAt("lp", 1000, /*ParallelOnly=*/true);
  Interpreter I(*H.P);
  ExecOptions Opts = H.baseOptions(4, ExecEngine::Vm);
  Opts.Injector = &Inj;
  ExecStats Stats;
  Memory M = I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  EXPECT_FALSE(FS.Faulted) << FS.str();
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.ReplaysRecovered, 1u);
  EXPECT_EQ(M.checksumExcluding(deadPrivateIds(H.Plan)), Want);
  EXPECT_GT(Stats.VmParallelLoopRuns, 0u);
  EXPECT_EQ(Stats.DispatchReplay, 1u);
}

TEST(VmFault, GenuineFaultIdenticalAttributionAcrossEngines) {
  // A poisoned index dispatched past a lying inspector: the VM must trap
  // the out-of-bounds subscript, roll back, and reproduce it in the serial
  // replay with the plan-free serial tree walk's exact attribution.
  const char *Poisoned = R"(program t
    integer i, n
    integer ind(1000)
    real x(1000)
    n = 1000
    fill: do i = 1, n
      ind(i) = mod(i * 7, n) + 1
      x(i) = i * 0.25
    end do
    ind(500) = 2000
    scat: do i = 1, n
      x(ind(i)) = x(ind(i)) + 1.0
    end do
  end)";
  Harness H(Poisoned);
  RuntimeFault Want = H.serialFault(); // FaultSerial.* pins its fields.
  verify::FaultInjector Inj;
  Inj.skipInspectionOf("scat");
  Interpreter I(*H.P);
  ExecOptions Opts = H.baseOptions(4, ExecEngine::Vm);
  Opts.Injector = &Inj;
  ExecStats Stats;
  I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  ASSERT_TRUE(FS.Faulted);
  EXPECT_GT(Stats.VmParallelLoopRuns, 0u);
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_TRUE(FS.Fault.DuringReplay);
  EXPECT_EQ(FS.Fault.Kind, Want.Kind);
  EXPECT_EQ(FS.Fault.Loc.Line, Want.Loc.Line);
  EXPECT_EQ(FS.Fault.Loc.Col, Want.Loc.Col);
  EXPECT_EQ(FS.Fault.Loop, Want.Loop);
  EXPECT_EQ(FS.Fault.Iteration, Want.Iteration);
  EXPECT_EQ(FS.Fault.Var, Want.Var);
  EXPECT_EQ(FS.Fault.Value, Want.Value);
  EXPECT_EQ(FS.Fault.Bound, Want.Bound);
}

/// A certified loop whose while body reads y(k) for k = 1..lim(i): lim(700)
/// is poisoned past y's extent, so exactly one iteration faults inside the
/// while.
const char *WhileOutOfBounds = R"(program t
    integer i, n, k
    integer lim(1000)
    real s
    real x(1000), y(10)
    n = 1000
    init: do i = 1, n
      lim(i) = mod(i, 7) + 1
      x(i) = i * 0.5
    end do
    fill: do i = 1, 10
      y(i) = i * 0.25
    end do
    lim(700) = 11
    lp: do i = 1, n
      k = 0
      s = 0.0
      while (k < lim(i))
        k = k + 1
        s = s + y(k)
      end while
      x(i) = s
    end do
  end)";

/// Report-mode run of \p H's program on the VM at T=4: the faulting loop's
/// transaction rolls back and its first fault is returned without a serial
/// replay.
RuntimeFault reportedFault(Harness &H, ExecStats &Stats) {
  Interpreter I(*H.P);
  ExecOptions Opts = H.baseOptions(4, ExecEngine::Vm);
  Opts.OnFault = FaultAction::Report;
  I.run(Opts, &Stats);
  const FaultState &FS = I.faultState();
  EXPECT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 0u);
  return FS.Fault;
}

TEST(VmFault, WhileOutOfBoundsMatchesTreeWalk) {
  Harness H(WhileOutOfBounds);
  const xform::LoopReport *Rep = H.Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->Parallel) << Rep->WhyNot;
  RuntimeFault Tree = H.serialFault();
  ExecStats VmStats;
  RuntimeFault Vm = reportedFault(H, VmStats);
  EXPECT_GT(VmStats.VmParallelLoopRuns, 0u);
  EXPECT_EQ(VmStats.VmBailouts, 0u);

  EXPECT_EQ(Tree.Kind, FaultKind::OutOfBounds);
  EXPECT_EQ(Tree.Loop, "lp");
  EXPECT_EQ(Tree.Iteration, 700);
  EXPECT_EQ(Tree.Var, "y");
  EXPECT_EQ(Tree.Value, 11);
  EXPECT_EQ(Tree.Bound, 10);
  EXPECT_EQ(Vm.Kind, Tree.Kind);
  EXPECT_EQ(Vm.Loc.Line, Tree.Loc.Line);
  EXPECT_EQ(Vm.Loc.Col, Tree.Loc.Col);
  EXPECT_EQ(Vm.Loop, Tree.Loop);
  EXPECT_EQ(Vm.Iteration, Tree.Iteration);
  EXPECT_EQ(Vm.Var, Tree.Var);
  EXPECT_EQ(Vm.Value, Tree.Value);
  EXPECT_EQ(Vm.Bound, Tree.Bound);
  EXPECT_TRUE(Vm.InParallel);
  EXPECT_FALSE(Tree.InParallel);
}

TEST(VmFault, ZeroInnerStepMatchesTreeWalk) {
  // st(700) = 0 gives iteration 700's inner do a zero step: the VM's
  // ckstep must fault like the tree walk's step check.
  Harness H(R"(program t
    integer i, j, n
    integer st(1000)
    real s
    real x(1000), y(10)
    n = 1000
    init: do i = 1, n
      st(i) = 1
      x(i) = i * 0.5
    end do
    fill: do i = 1, 10
      y(i) = i * 0.25
    end do
    st(700) = 0
    lp: do i = 1, n
      s = 0.0
      do j = 1, 3, st(i)
        s = s + y(j)
      end do
      x(i) = s
    end do
  end)");
  const xform::LoopReport *Rep = H.Plan.reportFor("lp");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->Parallel) << Rep->WhyNot;
  RuntimeFault Tree = H.serialFault();
  ExecStats VmStats;
  RuntimeFault Vm = reportedFault(H, VmStats);
  EXPECT_GT(VmStats.VmParallelLoopRuns, 0u);
  EXPECT_EQ(VmStats.VmBailouts, 0u);

  EXPECT_EQ(Tree.Kind, FaultKind::BadStep);
  EXPECT_EQ(Tree.Loop, "lp");
  EXPECT_EQ(Tree.Iteration, 700);
  EXPECT_EQ(Tree.Var, "j");
  EXPECT_TRUE(Tree.HasValue);
  EXPECT_EQ(Tree.Value, 0);
  EXPECT_EQ(Vm.Kind, Tree.Kind);
  EXPECT_EQ(Vm.Loc.Line, Tree.Loc.Line);
  EXPECT_EQ(Vm.Loc.Col, Tree.Loc.Col);
  EXPECT_EQ(Vm.Loop, Tree.Loop);
  EXPECT_EQ(Vm.Iteration, Tree.Iteration);
  EXPECT_EQ(Vm.Var, Tree.Var);
  EXPECT_EQ(Vm.HasValue, Tree.HasValue);
  EXPECT_EQ(Vm.Value, Tree.Value);
  EXPECT_TRUE(Vm.InParallel);
}

TEST(VmFault, RunawayWhileTripsTheIterationGuard) {
  // Iteration 700's while never ends; the back-edge op faults once the
  // body has run WhileIterationGuard times, attributed exactly as the tree
  // walk's guard attributes it: the while's location, the enclosing do
  // loop and its iteration, the count reached and the limit. The tree walk
  // takes ~20 s to get there, so its side of the comparison is the shared
  // constant and the while's own location rather than a second run.
  Harness H(R"(program t
    integer i, n, go
    integer spin(1000)
    real x(1000)
    n = 1000
    spin(700) = 1
    lp: do i = 1, n
      go = spin(i)
      while (go)
      end while
      x(i) = i * 1.0
    end do
  end)");
  DoStmt *L = H.P->findLoop("lp");
  ASSERT_NE(L, nullptr);
  // The pipeline may rewrite the body (go forward-substitutes into the
  // condition), so find the while by kind.
  auto It = std::find_if(L->body().begin(), L->body().end(), [](Stmt *S) {
    return isa<WhileStmt>(S);
  });
  ASSERT_NE(It, L->body().end());
  const auto *WS = cast<WhileStmt>(*It);
  ExecStats Stats;
  RuntimeFault F = reportedFault(H, Stats);
  EXPECT_GT(Stats.VmParallelLoopRuns, 0u);
  EXPECT_EQ(F.Kind, FaultKind::IterationGuard);
  EXPECT_EQ(F.Loc.Line, WS->loc().Line);
  EXPECT_EQ(F.Loc.Col, WS->loc().Col);
  EXPECT_EQ(F.Loop, "lp");
  EXPECT_EQ(F.Iteration, 700);
  EXPECT_TRUE(F.HasValue);
  EXPECT_EQ(F.Value, WhileIterationGuard + 1);
  EXPECT_EQ(F.Bound, WhileIterationGuard);
  EXPECT_TRUE(F.Var.empty()) << F.Var;
}

//===----------------------------------------------------------------------===//
// Deadlines inside VM chunks
//===----------------------------------------------------------------------===//

/// Runs \p Source's certified loop lp on the VM at T=4 with a token fired
/// after DeadlineMs, and checks the run faults DeadlineExceeded within
/// OvershootBoundMs of the firing with x rolled back to its pre-loop bytes
/// (x(i) = i * 0.5 from init). Every outer iteration holds well over a
/// second of VM work, so only a poll inside the chunk body can meet the
/// bound. Returns the measured overshoot in milliseconds.
double deadlineOvershootMs(const char *Source) {
  constexpr int DeadlineMs = 20;
  constexpr double OvershootBoundMs = 250;
  Harness H(Source);
  const xform::LoopReport *Rep = H.Plan.reportFor("lp");
  EXPECT_TRUE(Rep && Rep->Parallel) << (Rep ? Rep->WhyNot : "no report");
  CancelToken Token;
  Interpreter I(*H.P);
  ExecOptions Opts = H.baseOptions(4, ExecEngine::Vm);
  Opts.Cancel = &Token;
  ExecStats Stats;
  std::chrono::steady_clock::time_point Fired;
  std::thread Timer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(DeadlineMs));
    Fired = std::chrono::steady_clock::now();
    Token.cancel();
  });
  Memory M = I.run(Opts, &Stats);
  auto Returned = std::chrono::steady_clock::now();
  Timer.join();
  double OvershootMs =
      std::chrono::duration<double, std::milli>(Returned - Fired).count();

  const FaultState &FS = I.faultState();
  EXPECT_TRUE(FS.Faulted);
  EXPECT_EQ(FS.Fault.Kind, FaultKind::DeadlineExceeded) << FS.str();
  EXPECT_TRUE(FS.Fault.InParallel) << FS.str();
  EXPECT_EQ(FS.Rollbacks, 1u);
  EXPECT_EQ(FS.Replays, 0u) << "a blown deadline is never replayed";
  EXPECT_GT(Stats.VmParallelLoopRuns, 0u);
  EXPECT_LT(OvershootMs, OvershootBoundMs);
  const Symbol *X = H.P->findSymbol("x");
  const Buffer &B = M.buffer(X);
  for (size_t E = 0; E < B.D.size(); ++E)
    EXPECT_EQ(B.D[E], (E + 1) * 0.5) << "element " << E;
  return OvershootMs;
}

TEST(VmDeadline, LongInnerDoPollsAtItsBackEdge) {
  double Ms = deadlineOvershootMs(R"(program t
    integer i, j, n
    real s
    real x(8)
    n = 8
    init: do i = 1, n
      x(i) = i * 0.5
    end do
    lp: do i = 1, n
      s = 0.0
      do j = 1, 200000000
        s = s + 1.0
      end do
      x(i) = s
    end do
  end)");
  RecordProperty("overshoot_ms", std::to_string(Ms));
}

TEST(VmDeadline, LongWhilePollsAtItsBackEdge) {
  double Ms = deadlineOvershootMs(R"(program t
    integer i, k, n
    real x(8)
    n = 8
    init: do i = 1, n
      x(i) = i * 0.5
    end do
    lp: do i = 1, n
      k = 0
      while (k < 90000000)
        k = k + 1
      end while
      x(i) = k * 1.0
    end do
  end)");
  RecordProperty("overshoot_ms", std::to_string(Ms));
}

} // namespace
