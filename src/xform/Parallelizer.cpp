//===- xform/Parallelizer.cpp - The Polaris-style pipeline ----------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "xform/Parallelizer.h"

#include "support/Statistic.h"
#include "support/Timer.h"
#include "support/TimerGroup.h"
#include "support/Trace.h"
#include "xform/Passes.h"

#include <optional>

using namespace iaa;
using namespace iaa::xform;
using namespace iaa::mf;

#define IAA_STAT_GROUP "pipeline"
IAA_STAT(pipeline_runs, "Pipeline invocations");
IAA_STAT(pipeline_loops_analyzed, "Loops analyzed by the pipeline");
IAA_STAT(pipeline_loops_parallel, "Loops marked parallel");
IAA_STAT(pipeline_loops_runtime_checked,
         "Loops emitted as parallel conditional on runtime checks");
IAA_STAT(pipeline_constants_propagated, "Constants propagated");
IAA_STAT(pipeline_forward_substitutions, "Forward substitutions performed");
IAA_STAT(pipeline_dead_removed, "Dead statements removed");
IAA_STAT(pipeline_inductions_substituted, "Induction variables substituted");

const char *iaa::xform::pipelineModeName(PipelineMode M) {
  switch (M) {
  case PipelineMode::Full:  return "Polaris+IAA";
  case PipelineMode::NoIAA: return "Polaris";
  case PipelineMode::Apo:   return "APO";
  }
  return "?";
}

std::string PipelineResult::str() const {
  std::string Out;
  for (const LoopReport &R : Loops) {
    Out += (R.Label.empty() ? std::string("<unlabeled>") : R.Label);
    Out += R.Parallel ? ": PARALLEL" : ": serial";
    if (!R.Parallel && !R.WhyNot.empty())
      Out += " (" + R.WhyNot + ")";
    if (R.RuntimeConditional)
      Out += " [parallel conditional on runtime checks]";
    for (const auto &D : R.DepOutcomes) {
      Out += "\n    dep " + D.Array->name() + ": " +
             (D.Independent ? "independent" : "dependent") + " [" +
             deptest::testKindName(D.Test) + "]";
      for (const std::string &Prop : D.PropertiesUsed)
        Out += " " + Prop;
    }
    for (const auto &Pv : R.PrivOutcomes) {
      Out += "\n    priv " + Pv.Array->name() + ": " +
             (Pv.Privatizable ? "private" : "exposed") + " [" + Pv.Reason +
             "]";
    }
    Out += "\n";
  }
  return Out;
}

namespace {

/// Builds the structured remark backing \p Rep's WhyNot string.
Remark remarkFor(const LoopReport &Rep, const LoopPlan &Plan) {
  Remark R;
  R.Loop = Rep.Label.empty() ? std::string("<unlabeled>") : Rep.Label;
  R.K = Rep.Parallel ? Remark::Kind::Parallelized : Remark::Kind::Missed;
  if (Rep.RuntimeConditional) {
    R.K = Remark::Kind::RuntimeCheck;
    R.Reason = "parallel conditional on " +
               std::to_string(Plan.RuntimeChecks.size()) +
               " runtime check(s); serial fallback when inspection fails";
    R.Evidence.emplace_back("static-reason", Rep.WhyNot);
    for (const auto &C : Plan.RuntimeChecks)
      R.Evidence.emplace_back("check", C.str());
  } else if (Rep.Parallel) {
    unsigned Privatized = 0;
    for (const auto &Pv : Rep.PrivOutcomes)
      if (Pv.Privatizable)
        ++Privatized;
    R.Reason = "all array references independent";
    if (Privatized)
      R.Reason += "; " + std::to_string(Privatized) + " array(s) privatized";
    if (!Rep.Reductions.empty())
      R.Reason +=
          "; " + std::to_string(Rep.Reductions.size()) + " reduction(s)";
    if (Rep.RecurrencePromoted) {
      R.K = Remark::Kind::Recurrence;
      R.Reason += "; recurrence facts proved the index-array properties "
                  "statically (" +
                  std::to_string(Plan.FallbackChecks.size()) +
                  " runtime inspection(s) deleted)";
      for (const auto &C : Plan.FallbackChecks)
        R.Evidence.emplace_back("deleted-check", C.str());
    }
  } else {
    R.Reason = Rep.WhyNot;
  }
  for (const auto &D : Rep.DepOutcomes) {
    std::string V = D.Independent ? "independent" : "dependent";
    V += std::string(" [") + deptest::testKindName(D.Test) + "]";
    for (const std::string &Prop : D.PropertiesUsed)
      V += " " + Prop;
    R.Evidence.emplace_back("dep:" + D.Array->name(), V);
  }
  for (const auto &Pv : Rep.PrivOutcomes) {
    std::string V = Pv.Privatizable ? "private" : "exposed";
    V += " [" + Pv.Reason + "]";
    if (Pv.LiveOut)
      V += " live-out";
    R.Evidence.emplace_back("priv:" + Pv.Array->name(), V);
  }
  for (const Symbol *S : Rep.Reductions)
    R.Evidence.emplace_back("reduction", S->name());
  R.Evidence.emplace_back("property-queries",
                          std::to_string(Rep.PropertyQueries));
  return R;
}

} // namespace

PipelineResult iaa::xform::parallelize(Program &P, PipelineMode Mode) {
  trace::TraceScope PipeSpan("parallelize", "pipeline");
  PipeSpan.arg("mode", pipelineModeName(Mode));
  ++pipeline_runs;

  PipelineResult Result;
  Timer Total;
  AccumulatingTimer PropTimer;
  TimerGroup Phases;

  // --- Normalization phases, ordered as Fig. 15(b).
  DiagnosticEngine Diags;
  {
    TimeRegion TR(Phases.timer("normalize"));
    trace::TraceScope Span("normalize", "pipeline");
    normalizeProgram(P, Diags);
  }
  {
    TimeRegion TR(Phases.timer("induction-subst"));
    trace::TraceScope Span("induction-subst", "pipeline");
    Result.InductionsSubstituted = substituteInductions(P);
  }
  {
    TimeRegion TR(Phases.timer("const-prop"));
    trace::TraceScope Span("const-prop", "pipeline");
    Result.ConstantsPropagated = propagateConstants(P);
  }
  {
    TimeRegion TR(Phases.timer("forward-subst"));
    trace::TraceScope Span("forward-subst", "pipeline");
    Result.ForwardSubstitutions = forwardSubstitute(P);
  }
  {
    TimeRegion TR(Phases.timer("dce"));
    trace::TraceScope Span("dce", "pipeline");
    Result.DeadRemoved = eliminateDeadCode(P);
  }
  pipeline_inductions_substituted += Result.InductionsSubstituted;
  pipeline_constants_propagated += Result.ConstantsPropagated;
  pipeline_forward_substitutions += Result.ForwardSubstitutions;
  pipeline_dead_removed += Result.DeadRemoved;

  // --- Analysis infrastructure (post-transformation AST).
  std::optional<analysis::SymbolUses> UsesOpt;
  std::optional<cfg::Hcg> GOpt;
  {
    TimeRegion TR(Phases.timer("hcg-build"));
    trace::TraceScope Span("hcg-build", "pipeline");
    UsesOpt.emplace(P);
    GOpt.emplace(P);
  }
  analysis::SymbolUses &Uses = *UsesOpt;
  cfg::Hcg &G = *GOpt;

  bool EnableIAA = Mode == PipelineMode::Full;
  bool EnableRangeTest = Mode != PipelineMode::Apo;
  bool EnableReductions = Mode != PipelineMode::Apo;
  bool EnablePrivatization = Mode != PipelineMode::Apo;

  Privatizer Priv(G, Uses, EnableIAA);
  Priv.setPropertyTimer(&PropTimer);
  deptest::DependenceTester Dep(G, Uses, EnableIAA, EnableRangeTest);
  Dep.setPropertyTimer(&PropTimer);

  // Collect every do loop (outermost first within each procedure).
  std::vector<DoStmt *> AllLoops;
  P.forEachStmt([&](Stmt *S) {
    if (auto *DS = dyn_cast<DoStmt>(S))
      AllLoops.push_back(DS);
  });

  AccumulatingTimer &LoopTimer = Phases.timer("loop-analysis");
  for (DoStmt *L : AllLoops) {
    TimeRegion TR(LoopTimer);
    trace::TraceScope LoopSpan("analyze-loop", "pipeline");
    ++pipeline_loops_analyzed;

    LoopReport Rep;
    Rep.Loop = L;
    Rep.Label = L->label();
    LoopSpan.arg("loop", Rep.Label.empty() ? "<unlabeled>" : Rep.Label);

    // 1. Dependence test without privatization to find the arrays that
    //    actually need it.
    deptest::LoopDepResult First = Dep.testLoop(L, {});
    Rep.PropertyQueries += First.PropertyQueries;

    std::set<const Symbol *> NeedPriv;
    for (const auto &O : First.Arrays)
      if (!O.Independent)
        NeedPriv.insert(O.Array);

    // 2. Privatization and scalar classification.
    PrivatizationResult Pv;
    bool PrivOk = true;
    LoopPlan Plan;
    Plan.Loop = L;
    if (EnablePrivatization) {
      Pv = Priv.analyze(L);
      Rep.PropertyQueries += Pv.PropertyQueries;
      for (const Symbol *X : NeedPriv) {
        bool Found = false;
        for (const auto &O : Pv.Outcomes)
          if (O.Array == X) {
            Found = true;
            if (!O.Privatizable) {
              PrivOk = false;
              Rep.WhyNot = "array " + X->name() + " carries a dependence";
            } else if (O.LiveOut && !O.LastValueOk) {
              // The array is read after the loop but no single iteration's
              // private copy reproduces the serial final contents; a
              // per-iteration copy-out is not representable, so stay serial.
              PrivOk = false;
              Rep.WhyNot = "array " + X->name() +
                           " needs privatization but is live after the loop";
            } else {
              Plan.PrivateArrays.insert(X);
              if (O.LiveOut)
                Plan.LiveOutArrays.insert(X);
            }
          }
        if (!Found) {
          PrivOk = false;
          Rep.WhyNot = "array " + X->name() + " not analyzable";
        }
      }
    } else {
      PrivOk = NeedPriv.empty();
      if (!PrivOk)
        Rep.WhyNot = "dependences on " +
                     (*NeedPriv.begin())->name();
    }

    // 3. Re-run the dependence test treating the private arrays as handled,
    //    so the report reflects the final story.
    deptest::LoopDepResult Final =
        Plan.PrivateArrays.empty()
            ? std::move(First)
            : Dep.testLoop(L, Plan.PrivateArrays);
    if (!Plan.PrivateArrays.empty())
      Rep.PropertyQueries += Final.PropertyQueries;
    Rep.DepOutcomes = Final.Arrays;
    Rep.PrivOutcomes = Pv.Outcomes;

    // 4. Scalars.
    bool ScalarsOk = true;
    if (EnablePrivatization) {
      if (!EnableReductions && !Pv.Scalars.Reductions.empty())
        ScalarsOk = false;
      if (!Pv.Scalars.Carried.empty()) {
        ScalarsOk = false;
        Rep.WhyNot = "scalar " + (*Pv.Scalars.Carried.begin())->name() +
                     " carries a value between iterations";
      }
      Plan.PrivateScalars = Pv.Scalars.Private;
      Plan.Reductions = Pv.Scalars.Reductions;
      Rep.Reductions = Pv.Scalars.Reductions;
    } else {
      // APO: conservative scalar handling — every scalar written in the
      // body must be provably private; reuse the classification but reject
      // reductions.
      PrivatizationResult ApoScalars = Priv.analyze(L);
      ScalarsOk = ApoScalars.Scalars.Carried.empty() &&
                  ApoScalars.Scalars.Reductions.empty();
      if (!ScalarsOk)
        Rep.WhyNot = "scalar recurrences (no reduction support)";
      Plan.PrivateScalars = ApoScalars.Scalars.Private;
    }

    Rep.Parallel = Final.Independent && PrivOk && ScalarsOk;
    if (!Rep.Parallel && Rep.WhyNot.empty())
      Rep.WhyNot = "unresolved array dependences";
    Plan.Parallel = Rep.Parallel;
    if (Rep.Parallel)
      ++pipeline_loops_parallel;

    // A proof that rests on recurrence facts marks the plan promoted and
    // keeps the runtime checks the loop would otherwise have carried, so a
    // strict audit can demote it back to conditional dispatch instead of
    // all the way to serial.
    if (Rep.Parallel) {
      for (const auto &O : Final.Arrays) {
        if (!O.RecurrenceBacked)
          continue;
        Plan.RecurrencePromoted = true;
        for (const auto &C : O.FallbackChecks) {
          bool Dup = false;
          for (const auto &Have : Plan.FallbackChecks)
            Dup |= Have.str() == C.str();
          if (!Dup)
            Plan.FallbackChecks.push_back(C);
        }
      }
      if (Plan.RecurrencePromoted) {
        Rep.RecurrencePromoted = true;
        analysis::countRecurrencePromotion();
      }
    }

    // 5. Runtime-check fallback (inspector/executor): when scalars are fine
    //    and every remaining array dependence came back Unknown with a
    //    recorded inspectable shape, emit the plan as runtime-conditional.
    //    The interpreter inspects the index arrays before the loop's first
    //    execution and dispatches parallel only when every check passes;
    //    Parallel stays false so nothing changes unless the consumer opts
    //    into runtime checks.
    if (!Rep.Parallel && ScalarsOk) {
      bool AnyDependent = false, AllCheckable = true;
      std::vector<deptest::RuntimeCheck> Checks;
      for (const auto &O : Final.Arrays) {
        if (O.Independent)
          continue;
        AnyDependent = true;
        if (O.RuntimeCandidates.empty()) {
          AllCheckable = false;
          break;
        }
        for (const auto &C : O.RuntimeCandidates) {
          bool Dup = false;
          for (const auto &Have : Checks)
            Dup |= Have.str() == C.str();
          if (!Dup)
            Checks.push_back(C);
        }
      }
      // Arrays that failed privatization for a reason other than the
      // dependence itself (live-out without a last value, not analyzable)
      // are dependent in Final and have no candidates, so AllCheckable
      // already excludes them.
      if (AnyDependent && AllCheckable) {
        Plan.RuntimeChecks = std::move(Checks);
        Plan.RuntimeConditional = true;
        Rep.RuntimeConditional = true;
        ++pipeline_loops_runtime_checked;
      }
    }
    LoopSpan.arg("parallel", Rep.Parallel          ? "yes"
                 : Rep.RuntimeConditional          ? "conditional"
                                                   : "no");

    Result.Remarks.push_back(remarkFor(Rep, Plan));
    Result.Plans.emplace(L, std::move(Plan));
    Result.Loops.push_back(std::move(Rep));
  }

  Result.TotalSeconds = Total.seconds();
  Result.ErrorCount = Diags.errorCount();
  Result.PropertySeconds = PropTimer.seconds();
  Result.PhaseSeconds = Phases.seconds();
  Result.PhaseSeconds.emplace_back("property-analysis", PropTimer.seconds());
  return Result;
}
