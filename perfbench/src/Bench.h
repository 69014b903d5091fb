//===- perfbench/src/Bench.h - Shared pieces of the benchmark -------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark measures the stack from outside: every layer is timed by
/// wrapping the calls into its public functions with steady_clock, and the
/// traced run reads the iaa::trace spans the program already records. This
/// header holds what the workloads share: the fixed configuration, the
/// timed compile, the independent references, sample bookkeeping and the
/// final JSON line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "interp/Interpreter.h"
#include "interp/ThreadPool.h"
#include "mf/Program.h"
#include "xform/Parallelizer.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace interp = iaa::interp;
namespace mf = iaa::mf;
namespace xform = iaa::xform;

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Worker threads of the fixed configuration (real threads, never
/// simulated).
constexpr unsigned Threads = 4;

/// splitmix64: every generated input derives from the workload seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);

private:
  uint64_t State;
};

double median(std::vector<double> V);

/// The highest percentile of \p V that still has ten samples beyond it.
struct Tail {
  double Value = 0;
  double Percentile = 0;
  size_t Beyond = 0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Named per-operation samples; a layer metric is the median of its key.
class Samples {
public:
  void add(const std::string &Key, double X) { Values[Key].push_back(X); }
  /// Median of the samples under \p Key; 0 when none were taken.
  double median(const std::string &Key) const;
  const std::vector<double> &all(const std::string &Key) const;

private:
  std::map<std::string, std::vector<double>> Values;
};

/// The metrics printed as the last line of standard output.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Unit, Value});
  }
  std::string json(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Metric {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
};

/// One program a workload runs, with its reference checksum: the serial
/// tree walk with no plans, dead privates excluded.
struct Case {
  std::string Name;
  std::string Source;
  std::vector<std::string> IrregularLoops;
  double Reference = 0;
  /// Independent oracle: the final contents of array OracleArray, computed
  /// by hand-written native code. Null when the case has none.
  std::string OracleArray;
  std::shared_ptr<const std::vector<double>> Oracle;
};

/// A program through parse, parallelize and audit, with the time of each
/// public call.
struct Compiled {
  std::unique_ptr<mf::Program> Prog;
  xform::PipelineResult Plans;
  double ParseS = 0, ParallelizeS = 0, AuditS = 0;
  unsigned Certified = 0, Unknown = 0, Rejected = 0;
  std::string Error; ///< Non-empty when parse reported any diagnostic.
};

/// Parses, parallelizes (Full) and audits (warn) \p Source.
Compiled compile(const std::string &Source);

/// The fixed configuration: VM engine, runtime checks on, replay on fault,
/// four real threads on \p Pool.
interp::ExecOptions fixedOptions(const xform::PipelineResult &Plans,
                                 interp::WorkerPool &Pool);

/// Compiles \p C.Source and sets C.Reference from a serial tree-walk run
/// with no plans. False (with \p Err) on a diagnostic, a rejected plan or a
/// fault.
bool setReference(Case &C, std::string &Err);

/// Result of one in-process operation on one program.
struct RunRecord {
  double CompileS = 0, ExecS = 0;
  bool Ok = false;
};

/// Per-operation layer totals, keyed by metric name.
using LayerTotals = std::map<std::string, double>;

/// Compiles and runs \p C once in the fixed configuration (with \p OnFault
/// in place of replay when given), checks the outcome against the case's
/// reference and oracle, and adds each layer's time and counts into \p Acc.
/// With \p Inspect, also times direct inspectRuntimeCheck calls over the
/// final index arrays of every runtime-checked loop.
RunRecord runCase(const Case &C, interp::WorkerPool &Pool, LayerTotals &Acc,
                  interp::FaultAction OnFault = interp::FaultAction::Replay,
                  bool Inspect = false);

/// Adds one sample per key of \p Acc into \p L, plus the operation's chunk
/// imbalance (max chunk time x chunks / total chunk time).
void flush(const LayerTotals &Acc, Samples &L);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
