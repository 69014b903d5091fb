//===- analysis/SymbolUses.h - Read/write symbol summaries ------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheap flow-insensitive summaries of which symbols a statement subtree or
/// a procedure (transitively, through calls) reads and writes. Used to keep
/// conservative analyses conservative: a call or while loop that touches a
/// tracked symbol invalidates the more precise pattern-based reasoning.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_ANALYSIS_SYMBOLUSES_H
#define IAA_ANALYSIS_SYMBOLUSES_H

#include "mf/Program.h"

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

namespace iaa {
namespace analysis {

/// Sets of symbols read and written by some program fragment.
struct UseSet {
  std::set<const mf::Symbol *> Reads;
  std::set<const mf::Symbol *> Writes;

  bool reads(const mf::Symbol *S) const { return Reads.count(S) != 0; }
  bool writes(const mf::Symbol *S) const { return Writes.count(S) != 0; }
  bool touches(const mf::Symbol *S) const { return reads(S) || writes(S); }

  void merge(const UseSet &Other) {
    Reads.insert(Other.Reads.begin(), Other.Reads.end());
    Writes.insert(Other.Writes.begin(), Other.Writes.end());
  }
};

/// Computes and caches transitive read/write sets per procedure.
class SymbolUses {
public:
  explicit SymbolUses(const mf::Program &P);

  /// The transitive use set of procedure \p P (through nested calls).
  const UseSet &procedureUses(const mf::Procedure *P) const;

  /// The use set of one statement subtree (transitive through calls).
  UseSet stmtUses(const mf::Stmt *S) const;

  /// The use set of a statement list (transitive through calls).
  UseSet bodyUses(const mf::StmtList &Body) const;

  /// The symbols \p S itself reads or writes, without its nested
  /// statements: an assignment's target, subscripts and right-hand side; an
  /// if or while condition; a do's index, bounds and step; everything a
  /// call's callee touches.
  UseSet ownUses(const mf::Stmt *S) const;

  /// Collects symbols read by expression \p E (array symbols and all symbols
  /// inside subscripts) into \p Out.
  static void exprReads(const mf::Expr *E, UseSet &Out);

private:
  void accumulate(const mf::Stmt *S, UseSet &Out) const;

  std::unordered_map<const mf::Procedure *, UseSet> ProcUses;
};

/// The liveness index behind "is array X referenced outside loop L" (the
/// privatizer's live-out query, the auditor's and the race checker's): each
/// array's sites, the statements whose own uses (SymbolUses::ownUses)
/// reference it, so a query climbs only those statements' parent chains.
class ArraySites {
public:
  ArraySites(const mf::Program &P, const SymbolUses &Uses);

  /// True when array \p X is referenced by a statement outside \p L. Adds
  /// the number of sites examined to \p *Examined when given.
  bool referencedOutside(const mf::Symbol *X, const mf::DoStmt *L,
                         uint64_t *Examined = nullptr) const;

private:
  std::unordered_map<const mf::Symbol *, std::vector<const mf::Stmt *>>
      Sites;
};

} // namespace analysis
} // namespace iaa

#endif // IAA_ANALYSIS_SYMBOLUSES_H
