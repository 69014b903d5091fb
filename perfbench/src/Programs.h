//===- perfbench/src/Programs.h - Seeded MF inputs and the native twin ----===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the program under test is MF source
/// generated here from the workload seed; the same seed gives
/// byte-identical sources. The native scatter twin is the roofline and the
/// independent oracle of the scatter workload.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Shape of the permutation scatter-add: Phases times, the index array is
/// rewritten with a fresh permutation i -> mod(i*Mul + Add, N) + 1 and the
/// scatter runs Reps times over it.
struct ScatterShape {
  int64_t N = 0;
  int64_t Reps = 0;
  std::vector<int64_t> Mul, Add;
};

ScatterShape scatterShape(uint64_t Seed);
std::string scatterSource(const ScatterShape &S);

/// The hand-written C++ twin of scatterSource: returns the final x and
/// adds the seconds spent in the scatter repetitions (not the permutation
/// rewrites) to \p ScatterSeconds. \p Workers > 1 splits every loop into
/// contiguous blocks over that many std::threads.
std::vector<double> nativeScatter(const ScatterShape &S, unsigned Workers,
                                  double &ScatterSeconds);

/// A few thousand lines of the paper's patterns (Fig. 1(a) consecutively
/// written arrays, Fig. 1(b) array stacks, Fig. 3 CCS segments, Fig. 14
/// gathers, recurrence-built CCS and prefix-sum index arrays, permutation
/// scatters) on tiny inputs. Every seed yields the same kernels in the same
/// order and sizes; the seed picks their constants.
Case generatedProgram(uint64_t Seed, unsigned Index);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
