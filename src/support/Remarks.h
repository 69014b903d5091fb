//===- support/Remarks.h - Structured optimization remarks ------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured optimization remarks in the LLVM opt-remarks mould: one record
/// per analyzed loop stating what the pipeline decided (parallelized or
/// not), *why*, and the evidence (dependence-test outcomes, properties
/// verified, privatized arrays, recognized reductions). Remarks back the
/// old WhyNot string — human-readable rendering for terminals, JSONL for
/// machine consumption (`mfpar --remarks=out.jsonl`).
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SUPPORT_REMARKS_H
#define IAA_SUPPORT_REMARKS_H

#include <string>
#include <utility>
#include <vector>

namespace iaa {

/// One structured remark about one loop.
struct Remark {
  enum class Kind {
    Parallelized, ///< The loop was marked parallel.
    Missed,       ///< The loop stayed serial; Reason says why.
    Audit,        ///< Plan-auditor verdict for a parallel-marked loop.
    RuntimeCheck, ///< Statically serial, parallel conditional on runtime
                  ///< checks; Evidence lists the obligations.
    FaultReplay,  ///< A parallel loop trapped a worker fault, rolled its
                  ///< transaction back, and was replayed serially; Evidence
                  ///< records the fault and whether the replay recovered.
    Recurrence,   ///< Parallel thanks to recurrence facts about an index
                  ///< array's building loop; Evidence lists the runtime
                  ///< inspections the promotion deleted.
  };

  /// Loop label ("<unlabeled>" when the source gave none).
  std::string Loop;
  Kind K = Kind::Missed;
  /// One sentence: why the decision fell this way.
  std::string Reason;
  /// Supporting facts as ordered key/value pairs, e.g.
  /// {"dep:ia", "independent [offset-length] pptr:CFD,iblen:CFB"}.
  std::vector<std::pair<std::string, std::string>> Evidence;

  /// Human-readable multi-line rendering.
  std::string str() const;
  /// One JSON object (single line, no trailing newline) for JSONL output.
  std::string jsonLine() const;
};

const char *remarkKindName(Remark::Kind K);

/// Renders \p Remarks for a terminal.
std::string remarksText(const std::vector<Remark> &Remarks);

/// Renders \p Remarks as JSONL (one record per line).
std::string remarksJsonl(const std::vector<Remark> &Remarks);

} // namespace iaa

#endif // IAA_SUPPORT_REMARKS_H
