//===- interp/ThreadPool.cpp - Persistent parallel-loop runtime -----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "interp/ThreadPool.h"

#include "support/Trace.h"

#include <algorithm>
#include <string>

using namespace iaa;
using namespace iaa::interp;

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

WorkerPool::WorkerPool(unsigned MaxWorkers)
    : MaxWorkers(std::max(1u, MaxWorkers)) {
  Threads.reserve(this->MaxWorkers - 1);
  for (unsigned W = 1; W < this->MaxWorkers; ++W)
    Threads.emplace_back([this, W] { workerLoop(W); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Shutdown = true;
  }
  WakeCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void WorkerPool::workerLoop(unsigned Id) {
  uint64_t SeenGen = 0;
  while (true) {
    const std::function<void(unsigned)> *MyJob = nullptr;
    {
      std::unique_lock<std::mutex> Lock(M);
      WakeCv.wait(Lock, [&] { return Shutdown || Generation != SeenGen; });
      if (Shutdown)
        return;
      SeenGen = Generation;
      if (Id < ActiveWorkers)
        MyJob = Job;
    }
    if (!MyJob)
      continue; // Parked out of this generation's worker set.
    (*MyJob)(Id);
    {
      std::lock_guard<std::mutex> Lock(M);
      if (--Outstanding == 0)
        DoneCv.notify_all();
    }
  }
}

void WorkerPool::run(unsigned Workers,
                     const std::function<void(unsigned)> &Fn) {
  Workers = std::min(Workers, MaxWorkers);
  if (Workers <= 1) {
    Fn(0);
    return;
  }
  // One fork/join at a time: concurrent requester threads (shared daemon
  // pool) queue here, so the Job/Generation handshake below never sees two
  // callers at once.
  std::lock_guard<std::mutex> RunLock(RunM);
  trace::TraceScope Span("fork-join", "interp");
  Span.arg("workers", std::to_string(Workers));
  {
    std::lock_guard<std::mutex> Lock(M);
    Job = &Fn;
    ActiveWorkers = Workers;
    Outstanding = Workers - 1;
    ++Generation;
  }
  WakeCv.notify_all();
  Fn(0);
  std::unique_lock<std::mutex> Lock(M);
  DoneCv.wait(Lock, [&] { return Outstanding == 0; });
  Job = nullptr;
}

//===----------------------------------------------------------------------===//
// Loop scheduling
//===----------------------------------------------------------------------===//

ChunkDispenser::ChunkDispenser(int64_t Lo, int64_t Up, unsigned Workers)
    : Up(Up), Workers(std::max(1u, Workers)), Cursor(Lo) {}

bool ChunkDispenser::next(int64_t &First, int64_t &Last, unsigned &ChunkId) {
  // A cancelled dispenser dispenses nothing more, so faulting loops drain
  // at chunk granularity.
  if (Cancelled.load(std::memory_order_acquire))
    return false;
  // Claim by compare-exchange rather than an unconditional fetch_add: an
  // exhausted (or zero-trip, Up < Lo) space leaves the cursor untouched
  // however often it is polled.
  int64_t Cur = Cursor.load(std::memory_order_relaxed);
  int64_t Size;
  do {
    if (Cur > Up)
      return false;
    Size = std::max<int64_t>(1, (Up - Cur + 1) / Workers);
  } while (!Cursor.compare_exchange_weak(Cur, Cur + Size,
                                         std::memory_order_relaxed));
  First = Cur;
  Last = Cur + Size - 1;
  ChunkId = Dispensed.fetch_add(1, std::memory_order_relaxed);
  return true;
}
