//===- interp/ThreadPool.h - Persistent parallel-loop runtime ---*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling runtime behind parallel do loops: a persistent WorkerPool
/// whose threads park on a condition variable between loops (fork/join at
/// loop granularity, as on the paper's SGI Origin runs, but without paying a
/// thread spawn per invocation), and a ChunkDispenser that hands out
/// guided iteration chunks from one shared cursor.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_INTERP_THREADPOOL_H
#define IAA_INTERP_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iaa {
namespace interp {

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

/// A fork/join pool whose worker threads are spawned once and sleep between
/// loops. run(T, Fn) wakes workers 1..T-1, runs Fn(0) on the calling thread,
/// and returns when every woken worker finished — the join synchronizes, so
/// results written by workers are visible to the caller without extra
/// fences. Concurrent run() calls from different threads (the mfpard daemon
/// shares one pool across requests) serialize on an internal mutex, so each
/// fork/join generation belongs to exactly one caller; parallel loops never
/// nest within a single interpreter.
///
/// Workers run Fn with no per-session context: the VM chunks and
/// inspection scans they execute increment no statistic, and their trace
/// spans land in the one process-wide trace buffer.
class WorkerPool {
public:
  /// Spawns \p MaxWorkers - 1 parked threads (worker 0 is the caller).
  explicit WorkerPool(unsigned MaxWorkers);
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  unsigned maxWorkers() const { return MaxWorkers; }

  /// Runs \p Fn(W) for W in [0, Workers); Workers must not exceed
  /// maxWorkers(). Worker 0 executes on the calling thread. Blocks while
  /// another thread's run() is in flight.
  void run(unsigned Workers, const std::function<void(unsigned)> &Fn);

  /// Fork/join generations completed so far (one per run() call).
  uint64_t generation() const { return Generation; }

private:
  void workerLoop(unsigned Id);

  unsigned MaxWorkers;
  std::vector<std::thread> Threads;

  /// Serializes whole run() calls across requester threads.
  std::mutex RunM;
  std::mutex M;
  std::condition_variable WakeCv; ///< Signals a new generation or shutdown.
  std::condition_variable DoneCv; ///< Signals Outstanding reached zero.
  const std::function<void(unsigned)> *Job = nullptr;
  unsigned ActiveWorkers = 0; ///< Workers participating in this generation.
  unsigned Outstanding = 0;   ///< Woken workers that have not finished.
  uint64_t Generation = 0;
  bool Shutdown = false;
};

//===----------------------------------------------------------------------===//
// Loop scheduling
//===----------------------------------------------------------------------===//

/// Hands out chunks of the inclusive iteration space [Lo, Up] (step 1) to
/// \p Workers workers under one rule, guided self-scheduling: each grab
/// takes max(1, remaining / Workers) iterations from a shared atomic
/// cursor, so chunks shrink as the loop drains and a worker that finishes
/// early takes more of what is left. Uneven iterations (triangular loops,
/// run-time segment lengths) balance without a tuning knob. Every iteration
/// is dispensed exactly once; chunks are dispensed in increasing iteration
/// order, so the chunks a given worker receives are increasing too — the
/// worker holding the chunk that contains Up is the one that executed the
/// loop's final iteration (the last-value owner). Which worker runs which
/// chunk depends on timing; the sequence of chunk ranges does not. next()
/// is thread-safe; empty chunks are never handed out, so chunksDispensed()
/// counts only chunks that ran iterations.
class ChunkDispenser {
public:
  ChunkDispenser(int64_t Lo, int64_t Up, unsigned Workers);

  /// Grabs the next chunk; false when the space is exhausted or the
  /// dispenser was cancelled.
  /// \p ChunkId is the dispense-order id (0-based), used by trace spans.
  bool next(int64_t &First, int64_t &Last, unsigned &ChunkId);

  /// Cooperative cancellation: after cancel(), next() returns false for
  /// every worker, so a fork/join whose workers loop on next() drains at
  /// chunk granularity. Used by the fault-containment path — the worker
  /// that traps a fault cancels the dispenser so its siblings stop taking
  /// new work instead of racing a dying loop. Thread-safe; idempotent.
  void cancel() { Cancelled.store(true, std::memory_order_release); }

  /// True once cancel() was called.
  bool cancelled() const {
    return Cancelled.load(std::memory_order_acquire);
  }

  /// Non-empty chunks dispensed so far.
  unsigned chunksDispensed() const {
    return Dispensed.load(std::memory_order_relaxed);
  }

private:
  int64_t Up;
  int64_t Workers;
  std::atomic<int64_t> Cursor; ///< Next undispensed iteration.
  std::atomic<bool> Cancelled{false};
  std::atomic<unsigned> Dispensed{0};
};

} // namespace interp
} // namespace iaa

#endif // IAA_INTERP_THREADPOOL_H
