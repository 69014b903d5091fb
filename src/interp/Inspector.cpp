//===- interp/Inspector.cpp - Runtime-check inspector ---------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "interp/Inspector.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

using namespace iaa;
using namespace iaa::interp;
using iaa::deptest::RuntimeCheck;
using iaa::deptest::RuntimeCheckKind;

namespace {

/// Windows below this many positions are scanned on the calling thread:
/// fork/join latency would dominate the scan.
constexpr int64_t MinParallelWindow = 1 << 13;

/// Value ranges up to this size use the bitset duplicate detector; larger
/// (or overflowing) ranges fall back to sort + adjacent comparison.
constexpr int64_t MaxBitsetRange = int64_t(1) << 24;

/// Splits [0, N) into one contiguous block per worker and runs
/// Fn(Begin, End) for each, on the pool when it pays off.
void forEachBlock(int64_t N, WorkerPool *Pool, unsigned Threads,
                  const std::function<void(int64_t, int64_t)> &Fn) {
  unsigned T = 1;
  if (Pool && Threads > 1 && N >= MinParallelWindow)
    T = std::min(Threads, Pool->maxWorkers());
  if (T <= 1) {
    if (N > 0)
      Fn(0, N);
    return;
  }
  int64_t Block = (N + T - 1) / T;
  Pool->run(T, [&](unsigned W) {
    int64_t B = int64_t(W) * Block;
    int64_t E = std::min(N, B + Block);
    if (B < E)
      Fn(B, E);
  });
}

/// Lock-free "remember the smallest failing position" accumulator, so the
/// reported counterexample is deterministic regardless of worker timing.
void noteBad(std::atomic<int64_t> &A, int64_t P) {
  int64_t Cur = A.load(std::memory_order_relaxed);
  while (P < Cur &&
         !A.compare_exchange_weak(Cur, P, std::memory_order_relaxed)) {
  }
}

constexpr int64_t NoBad = INT64_MAX;

std::string elem(const RuntimeCheck &C, int64_t Pos) {
  return C.Index->name() + "(" + std::to_string(Pos) + ")";
}

InspectionOutcome pass() { return {true, ""}; }

InspectionOutcome fail(std::string Detail) {
  return {false, std::move(Detail)};
}

} // namespace

InspectionOutcome interp::inspectRuntimeCheck(const RuntimeCheck &C,
                                              const Memory &Mem, int64_t Lo,
                                              int64_t Up, WorkerPool *Pool,
                                              unsigned Threads) {
  const Buffer &B = Mem.buffer(C.Index);
  if (B.Kind != mf::ScalarKind::Int)
    return fail(C.Index->name() + " is not an integer array");

  // Inspected window in 1-based positions of the index array.
  int64_t A = Lo + C.LoAdjust;
  int64_t Z = Up + C.UpAdjust;
  if (A > Z)
    return pass(); // Zero-trip loop: nothing to check.
  if (A < 1 || Z > int64_t(B.I.size()))
    return fail("inspection window " + C.Index->name() + "(" +
                std::to_string(A) + ":" + std::to_string(Z) +
                ") exceeds the array extent");
  const int64_t *V = B.I.data() + (A - 1); // V[k] is Index(A + k).
  int64_t N = Z - A + 1;

  switch (C.Kind) {
  case RuntimeCheckKind::BoundsWithin: {
    int64_t LoB = C.LoBound;
    int64_t UpB = C.UpBound;
    if (C.BoundedArray)
      UpB = int64_t(Mem.buffer(C.BoundedArray).size());
    std::atomic<int64_t> Bad{NoBad};
    forEachBlock(N, Pool, Threads, [&](int64_t Begin, int64_t End) {
      for (int64_t K = Begin; K < End; ++K)
        if (V[K] < LoB || V[K] > UpB) {
          noteBad(Bad, K);
          return;
        }
    });
    if (int64_t K = Bad.load(); K != NoBad)
      return fail(elem(C, A + K) + " = " + std::to_string(V[K]) +
                  " outside [" + std::to_string(LoB) + ":" +
                  std::to_string(UpB) + "]");
    return pass();
  }

  case RuntimeCheckKind::MonotonicNonDecreasing: {
    std::atomic<int64_t> Bad{NoBad};
    // Adjacent pairs (K, K+1); block boundaries overlap by one pair.
    forEachBlock(N - 1, Pool, Threads, [&](int64_t Begin, int64_t End) {
      for (int64_t K = Begin; K < End; ++K)
        if (V[K] > V[K + 1]) {
          noteBad(Bad, K);
          return;
        }
    });
    if (int64_t K = Bad.load(); K != NoBad)
      return fail(elem(C, A + K) + " = " + std::to_string(V[K]) +
                  " decreases to " + elem(C, A + K + 1) + " = " +
                  std::to_string(V[K + 1]));
    return pass();
  }

  case RuntimeCheckKind::InjectiveOnRange: {
    // Pass 1: value range (also parallel).
    std::atomic<int64_t> MinV{INT64_MAX}, MaxV{INT64_MIN};
    forEachBlock(N, Pool, Threads, [&](int64_t Begin, int64_t End) {
      int64_t Lo2 = V[Begin], Hi2 = V[Begin];
      for (int64_t K = Begin + 1; K < End; ++K) {
        Lo2 = std::min(Lo2, V[K]);
        Hi2 = std::max(Hi2, V[K]);
      }
      noteBad(MinV, Lo2);
      int64_t Cur = MaxV.load(std::memory_order_relaxed);
      while (Hi2 > Cur &&
             !MaxV.compare_exchange_weak(Cur, Hi2, std::memory_order_relaxed)) {
      }
    });
    // Values spread across more than half the int64 range overflow the
    // subtraction; they take the sort path like any other sparse range.
    int64_t Range = 0;
    bool Overflow =
        __builtin_sub_overflow(MaxV.load(), MinV.load(), &Range) ||
        __builtin_add_overflow(Range, 1, &Range);
    if (!Overflow && Range <= std::max<int64_t>(MaxBitsetRange, 8 * N)) {
      // Pass 2: byte-per-value bitset; exchange marks and detects the
      // duplicate in one atomic op per element.
      std::unique_ptr<std::atomic<uint8_t>[]> Seen(
          new std::atomic<uint8_t>[size_t(Range)]());
      int64_t Base = MinV.load();
      std::atomic<int64_t> Bad{NoBad};
      forEachBlock(N, Pool, Threads, [&](int64_t Begin, int64_t End) {
        for (int64_t K = Begin; K < End; ++K)
          if (Seen[size_t(V[K] - Base)].exchange(1,
                                                 std::memory_order_relaxed)) {
            noteBad(Bad, K);
            return;
          }
      });
      if (int64_t K = Bad.load(); K != NoBad)
        return fail(elem(C, A + K) + " = " + std::to_string(V[K]) +
                    " duplicates an earlier index");
      return pass();
    }
    // Sparse values: sort a copy and look for an equal adjacent pair.
    std::vector<int64_t> Sorted(V, V + N);
    std::sort(Sorted.begin(), Sorted.end());
    auto It = std::adjacent_find(Sorted.begin(), Sorted.end());
    if (It != Sorted.end())
      return fail(C.Index->name() + " repeats the value " +
                  std::to_string(*It));
    return pass();
  }

  case RuntimeCheckKind::OffsetLengthDisjoint: {
    if (C.HasHiLen && !C.Length)
      return fail("malformed offset-length check: no length array");
    const int64_t *L = nullptr;
    if (C.Length) {
      const Buffer &LB = Mem.buffer(C.Length);
      if (LB.Kind != mf::ScalarKind::Int)
        return fail(C.Length->name() + " is not an integer array");
      if (A < 1 || Z > int64_t(LB.I.size()))
        return fail("inspection window exceeds " + C.Length->name() +
                    "'s extent");
      L = LB.I.data() + (A - 1);
    }
    // The failure reason is re-derived from the smallest failing position
    // after the join, so it always describes the reported position.
    auto NegativeLength = [&](int64_t K) {
      return L && C.HasHiLen && L[K] < 0;
    };
    auto Decreasing = [&](int64_t K) { return V[K] > V[K + 1]; };
    std::atomic<int64_t> Bad{NoBad};
    forEachBlock(N, Pool, Threads, [&](int64_t Begin, int64_t End) {
      for (int64_t K = Begin; K < End; ++K) {
        if (NegativeLength(K)) {
          noteBad(Bad, K);
          return;
        }
        if (K + 1 >= N)
          continue; // Last iteration has no successor segment.
        // Segment bounds in 128 bits: sums of three int64 terms cannot
        // overflow there, however extreme the offsets and lengths.
        __int128 NextStart = __int128(V[K + 1]) + C.AccessLo;
        if (Decreasing(K) ||
            (C.HasHiLen &&
             __int128(V[K]) + L[K] + C.AccessHiLen >= NextStart) ||
            (C.HasHiConst && __int128(V[K]) + C.AccessHiConst >= NextStart)) {
          noteBad(Bad, K);
          return;
        }
      }
    });
    int64_t K = Bad.load();
    if (K == NoBad)
      return pass();
    if (NegativeLength(K))
      return fail((C.Length ? C.Length->name() : std::string("len")) + "(" +
                  std::to_string(A + K) + ") = " + std::to_string(L[K]) +
                  " is negative");
    if (Decreasing(K))
      return fail(elem(C, A + K) + " = " + std::to_string(V[K]) +
                  " exceeds " + elem(C, A + K + 1) + " = " +
                  std::to_string(V[K + 1]));
    return fail("segment at " + elem(C, A + K) + " overlaps the next segment");
  }
  }
  return fail("unknown runtime check");
}
