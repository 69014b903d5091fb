//===- analysis/ArrayProperty.h - Index-array property framework -*- C++ -*-=//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The property framework of Sec. 3: properties of index arrays (closed-form
/// value, closed-form distance, closed-form bound, injectivity) that make
/// indirect array accesses analyzable. The three roles of Fig. 4:
///
///  - the *demand generator* (a dependence test or the privatizer) builds a
///    PropertyChecker and a query section;
///  - the *query checker* (PropertySolver.h) propagates the query backward
///    through the HCG;
///  - the *property checker* (subclasses here) supplies per-statement and
///    per-loop (Kill, Gen) summaries by pattern matching (Sec. 3.2.8) and by
///    recognizing index gathering loops (Sec. 4), reusing the
///    single-indexed access analysis of Sec. 2 as Sec. 4 prescribes.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_ANALYSIS_ARRAYPROPERTY_H
#define IAA_ANALYSIS_ARRAYPROPERTY_H

#include "analysis/SymbolUses.h"
#include "mf/Program.h"
#include "section/Section.h"
#include "symbolic/SymRange.h"

#include <functional>
#include <optional>

namespace iaa {
namespace analysis {

class RecurrenceCatalog;

/// The effect of executing a node on a property, per Sec. 3.2.3: Kill is a
/// MAY over-approximation, Gen a MUST under-approximation.
struct Effect {
  sec::Section Kill;
  sec::Section Gen;

  static Effect none() { return {}; }
  static Effect killAll() {
    return {sec::Section::universe(), sec::Section::empty()};
  }
};

/// Context handed to whole-loop summarizers: lets a checker ask for the
/// value of a scalar immediately before the loop (e.g. the gather counter's
/// reset value).
struct LoopContext {
  std::function<std::optional<sym::SymExpr>(const mf::Symbol *)> ValueBefore;
  /// Recurrence facts derived from index-array-building loops
  /// (RecurrenceSolver.h); null when the solver runs without a catalog.
  /// Checkers consult it only for recurrences that are *beyond* the
  /// statement-level pattern matches, so the classic paths stay identical.
  const RecurrenceCatalog *Recurrences = nullptr;
};

/// The property kinds of Sec. 3 (Table 3 abbreviations in parentheses).
enum class PropertyKind {
  ClosedFormValue,    ///< CFV: a(i) = f(i) for a known f.
  ClosedFormDistance, ///< CFD: a(i+1) - a(i) = d(i) for a known d.
  ClosedFormBound,    ///< CFB: all values of a() lie in a known range.
  Injective,          ///< a(i) != a(j) for i != j within a section.
  Monotonic,          ///< a(i+1) >= a(i) (or > for the strict variant).
};

/// Printable name of \p K ("CFV", "CFD", "CFB", "INJ").
const char *propertyKindName(PropertyKind K);

/// Base class of the property checkers (Fig. 4's PropertyChecker).
///
/// Checkers are stateful: while the solver propagates a query they
/// accumulate the *facts* implied by the Gen sites encountered (e.g. value
/// bounds). After a successful verification the caller must cross-check
/// factDependencies() against the writes seen along the propagation path
/// (the solver reports them) — a fact expressed in terms of a symbol that
/// was overwritten between definition and use is stale.
class PropertyChecker {
public:
  explicit PropertyChecker(const mf::Symbol *Target, const SymbolUses &Uses)
      : Target(Target), Uses(Uses) {}
  virtual ~PropertyChecker() = default;

  const mf::Symbol *targetArray() const { return Target; }
  virtual PropertyKind kind() const = 0;

  /// (Kill, Gen) of one assignment (SummarizeSimpleNode of Sec. 3.2.4).
  virtual Effect summarizeAssign(const mf::AssignStmt *S) = 0;

  /// Whole-loop pattern match; std::nullopt lets the solver fall back to
  /// the generic aggregation of Sec. 3.2.5.
  virtual std::optional<Effect> summarizeLoop(const mf::DoStmt *L,
                                              const LoopContext &Ctx) {
    (void)L;
    (void)Ctx;
    return std::nullopt;
  }

  /// Symbols the accumulated facts depend on; a write to any of them along
  /// the propagation path invalidates the verification.
  virtual UseSet factDependencies() const { return {}; }

  /// Number of distinct sites whose Gen was nonempty during the solve.
  /// Injectivity consumers require exactly one (two separately injective
  /// sections are not jointly injective).
  unsigned genSites() const { return GenSites; }

  /// Number of recurrence-catalog facts this checker consumed during the
  /// solve. Nonzero marks the verification as recurrence-backed: the
  /// dependence tester records fallback runtime checks for it and the
  /// solver charges kill-shadow invalidations to the recurrence stats.
  virtual unsigned consumedRecurrenceFacts() const { return 0; }

protected:
  const mf::Symbol *Target;
  const SymbolUses &Uses;
  unsigned GenSites = 0;
};

/// Verifies a(pos+1) - a(pos) == Distance(pos) on the query section, where
/// Distance is expressed in terms of sym::placeholderSymbol(). Use
/// discoverDistance() to obtain the candidate from the program text.
class ClosedFormDistanceChecker : public PropertyChecker {
public:
  ClosedFormDistanceChecker(const mf::Symbol *Target, sym::SymExpr Distance,
                            const SymbolUses &Uses)
      : PropertyChecker(Target, Uses), Distance(std::move(Distance)) {}

  PropertyKind kind() const override {
    return PropertyKind::ClosedFormDistance;
  }
  Effect summarizeAssign(const mf::AssignStmt *S) override;
  std::optional<Effect> summarizeLoop(const mf::DoStmt *L,
                                      const LoopContext &Ctx) override;
  UseSet factDependencies() const override;
  unsigned consumedRecurrenceFacts() const override { return ConsumedFacts; }

  const sym::SymExpr &distance() const { return Distance; }

  /// Scans every assignment to \p Target for the recurrence pattern
  /// `x(e+1) = x(e) + d` (Sec. 3.2.8) and returns the common distance in
  /// terms of the placeholder, or nullopt when the defs disagree or no
  /// recurrence exists.
  static std::optional<sym::SymExpr>
  discoverDistance(const mf::Program &P, const mf::Symbol *Target);

  /// True when, additionally, a base definition `x(c) = const` exists, i.e.
  /// the array has a closed-form *value*, not just a distance (this is what
  /// distinguishes the CFV rows of Table 3 from the CFD rows).
  static bool hasConstantBase(const mf::Program &P, const mf::Symbol *Target);

private:
  /// Matches `x(e+1) = x(e) + d` for x = \p Target and returns (position e,
  /// distance at e).
  static std::optional<std::pair<sym::SymExpr, sym::SymExpr>>
  matchRecurrence(const mf::Symbol *Target, const mf::AssignStmt *S);

  sym::SymExpr Distance;
  UseSet ConsumedDeps;
  unsigned ConsumedFacts = 0;
};

/// Verifies a(pos) == Value(pos) on the query section (the Fig. 8 example);
/// Value is in terms of sym::placeholderSymbol().
class ClosedFormValueChecker : public PropertyChecker {
public:
  ClosedFormValueChecker(const mf::Symbol *Target, sym::SymExpr Value,
                         const SymbolUses &Uses)
      : PropertyChecker(Target, Uses), Value(std::move(Value)) {}

  PropertyKind kind() const override { return PropertyKind::ClosedFormValue; }
  Effect summarizeAssign(const mf::AssignStmt *S) override;
  UseSet factDependencies() const override;

private:
  sym::SymExpr Value;
};

/// Verifies that the values in the query section of the target array are
/// bounded, and *discovers* the bounds (accumulated as a hull over all Gen
/// sites: direct definitions and index gathering loops).
class ClosedFormBoundChecker : public PropertyChecker {
public:
  ClosedFormBoundChecker(const mf::Symbol *Target, const SymbolUses &Uses)
      : PropertyChecker(Target, Uses) {}

  PropertyKind kind() const override { return PropertyKind::ClosedFormBound; }
  Effect summarizeAssign(const mf::AssignStmt *S) override;
  std::optional<Effect> summarizeLoop(const mf::DoStmt *L,
                                      const LoopContext &Ctx) override;
  UseSet factDependencies() const override;

  /// The discovered value bounds (valid only after a successful solve).
  const sym::SymRange &valueBounds() const { return Bounds; }

private:
  void widen(const sym::SymRange &R);

  sym::SymRange Bounds = sym::SymRange::of(sym::SymExpr::constant(0),
                                           sym::SymExpr::constant(0));
  bool Sawany = false;
};

/// Verifies that the target array is monotonically non-decreasing (or
/// strictly increasing) across the query section. Sec. 3 lists
/// monotonicity among the useful index-array properties; a strictly
/// increasing subscript array makes accesses through it pairwise distinct,
/// which the dependence test uses as an alternative to injectivity (a
/// recurrence-built offset array is strictly increasing but is not the
/// product of a gather loop).
///
/// Generation sites: index gathering loops (gathered values are strictly
/// increasing by construction) and recurrences x(e+1) = x(e) + d with d
/// provably >= 1 (>= 0 for the non-strict variant) under the enclosing
/// loop bounds.
class MonotonicChecker : public PropertyChecker {
public:
  MonotonicChecker(const mf::Symbol *Target, bool Strict,
                   const SymbolUses &Uses)
      : PropertyChecker(Target, Uses), Strict(Strict) {}

  PropertyKind kind() const override { return PropertyKind::Monotonic; }
  Effect summarizeAssign(const mf::AssignStmt *S) override;
  std::optional<Effect> summarizeLoop(const mf::DoStmt *L,
                                      const LoopContext &Ctx) override;
  UseSet factDependencies() const override { return ConsumedDeps; }
  unsigned consumedRecurrenceFacts() const override { return ConsumedFacts; }

  bool strict() const { return Strict; }

private:
  bool Strict;
  UseSet ConsumedDeps;
  unsigned ConsumedFacts = 0;
};

/// Verifies that the values in the query section are pairwise distinct.
/// Only index gathering loops generate injectivity (Sec. 4).
class InjectivityChecker : public PropertyChecker {
public:
  InjectivityChecker(const mf::Symbol *Target, const SymbolUses &Uses)
      : PropertyChecker(Target, Uses) {}

  PropertyKind kind() const override { return PropertyKind::Injective; }
  Effect summarizeAssign(const mf::AssignStmt *S) override;
  std::optional<Effect> summarizeLoop(const mf::DoStmt *L,
                                      const LoopContext &Ctx) override;
  UseSet factDependencies() const override { return ConsumedDeps; }
  unsigned consumedRecurrenceFacts() const override { return ConsumedFacts; }

private:
  UseSet ConsumedDeps;
  unsigned ConsumedFacts = 0;
};

/// The symbolic value range of \p E at statement \p S, sweeping every
/// enclosing do-loop index over its bounds (innermost first). Used to bound
/// the right-hand sides of index-array definitions.
sym::SymRange valueRangeAt(const sym::SymExpr &E, const mf::Stmt *S);

/// A RangeEnv binding every do-loop index enclosing \p S to its bounds.
sym::RangeEnv envAt(const mf::Stmt *S);

} // namespace analysis
} // namespace iaa

#endif // IAA_ANALYSIS_ARRAYPROPERTY_H
