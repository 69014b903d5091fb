//===- bench/BenchUtil.h - Shared helpers for the benchmark harness -------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the experiment binaries: parsing a benchmark, running
/// the pipeline in a given mode, and executing with a given thread count.
/// Each bench binary regenerates one table or figure of the paper; it
/// prints the same rows/series the paper reports, then (for CI purposes)
/// runs a token google-benchmark suite so the binaries behave uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_BENCH_BENCHUTIL_H
#define IAA_BENCH_BENCHUTIL_H

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "mf/Parser.h"
#include "support/Json.h"
#include "xform/Parallelizer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace iaa {
namespace bench {

/// Parses MF source, aborting on errors (benchmark inputs are trusted).
inline std::unique_ptr<mf::Program> parseOrAbort(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<mf::Program> P = mf::parseProgram(Source, Diags);
  if (!P) {
    std::fprintf(stderr, "benchmark program failed to parse:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return P;
}

/// One compiled benchmark: program + pipeline result for a mode.
struct Compiled {
  std::unique_ptr<mf::Program> Program;
  xform::PipelineResult Pipeline;
};

inline Compiled compile(const benchprogs::BenchmarkProgram &B,
                        xform::PipelineMode Mode) {
  Compiled C;
  C.Program = parseOrAbort(B.Source);
  C.Pipeline = xform::parallelize(*C.Program, Mode);
  return C;
}

/// Executes \p C as the plan-free serial tree walk; returns wall seconds and
/// fills \p Stats when given.
inline double executeSerial(const Compiled &C,
                            interp::ExecStats *Stats = nullptr) {
  interp::Interpreter I(*C.Program);
  interp::ExecStats Local;
  if (!Stats)
    Stats = &Local;
  I.run({}, Stats);
  return Stats->TotalSeconds;
}

/// Reads the benchmark scale from IAA_BENCH_SCALE (default 1.0) so CI can
/// shrink runtimes.
inline double benchScale() {
  if (const char *Env = std::getenv("IAA_BENCH_SCALE"))
    return std::atof(Env);
  return 1.0;
}

/// Machine-readable mirror of a bench's printed table. Rows accumulate as
/// ordered (key, encoded-value) pairs — values must already be JSON-encoded
/// (json::str / json::num, or the literals true/false) — and write() emits
///
///   {"bench": "<name>", "rows": [{...}, ...]}
///
/// to BENCH_<name>.json in the working directory, so plots and CI checks
/// can consume the same numbers the text table shows.
class JsonReport {
public:
  explicit JsonReport(std::string Name) : Name(std::move(Name)) {}

  void row(const std::vector<std::pair<std::string, std::string>> &Fields) {
    std::string R = "{";
    for (size_t I = 0; I < Fields.size(); ++I) {
      if (I)
        R += ", ";
      R += json::str(Fields[I].first) + ": " + Fields[I].second;
    }
    Rows.push_back(R + "}");
  }

  /// Writes the report; prints the destination (or a warning on failure).
  void write() const {
    std::string Path = "BENCH_" + Name + ".json";
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return;
    }
    Out << "{\"bench\": " << json::str(Name) << ", \"rows\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I)
      Out << "  " << Rows[I] << (I + 1 < Rows.size() ? ",\n" : "\n");
    Out << "]}\n";
    std::printf("bench JSON written to %s (%zu rows)\n", Path.c_str(),
                Rows.size());
  }

private:
  std::string Name;
  std::vector<std::string> Rows;
};

} // namespace bench
} // namespace iaa

#endif // IAA_BENCH_BENCHUTIL_H
