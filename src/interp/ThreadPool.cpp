//===- interp/ThreadPool.cpp - Persistent parallel-loop runtime -----------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "interp/ThreadPool.h"

#include "support/Statistic.h"
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
  // Workers run with the forking thread's session context installed, so a
  // shared pool attributes counters and spans to the right session.
  stat::Collector *SessionStats = stat::currentCollector();
  trace::Buffer *SessionTrace = trace::currentBuffer();
  const std::function<void(unsigned)> Wrapped =
      [&Fn, SessionStats, SessionTrace](unsigned W) {
        stat::CollectorScope StatScope(SessionStats);
        trace::BufferScope TraceScope(SessionTrace);
        Fn(W);
      };
  {
    std::lock_guard<std::mutex> Lock(M);
    Job = &Wrapped;
    ActiveWorkers = Workers;
    Outstanding = Workers - 1;
    ++Generation;
  }
  WakeCv.notify_all();
  Fn(0); // The caller already holds its own context.
  std::unique_lock<std::mutex> Lock(M);
  DoneCv.wait(Lock, [&] { return Outstanding == 0; });
  Job = nullptr;
}

//===----------------------------------------------------------------------===//
// Loop scheduling
//===----------------------------------------------------------------------===//

const char *interp::scheduleName(Schedule S) {
  switch (S) {
  case Schedule::Static: return "static";
  case Schedule::Dynamic: return "dynamic";
  case Schedule::Guided: return "guided";
  }
  return "?";
}

bool interp::parseSchedule(const std::string &Name, Schedule &Out) {
  if (Name == "static")
    Out = Schedule::Static;
  else if (Name == "dynamic")
    Out = Schedule::Dynamic;
  else if (Name == "guided")
    Out = Schedule::Guided;
  else
    return false;
  return true;
}

ChunkDispenser::ChunkDispenser(int64_t Lo, int64_t Up, unsigned Workers,
                               Schedule Sched, int64_t ChunkSize)
    : Lo(Lo), Up(Up), Workers(std::max(1u, Workers)), Sched(Sched),
      Iterations(Up >= Lo ? Up - Lo + 1 : 0), Cursor(Lo) {
  int64_t NIter = Iterations;
  switch (Sched) {
  case Schedule::Static:
    // Default: one contiguous block per worker (ceil split), the classic
    // parallel-do decomposition; an explicit chunk deals blocks round-robin.
    Chunk = ChunkSize > 0
                ? ChunkSize
                : std::max<int64_t>(1, (NIter + this->Workers - 1) /
                                           this->Workers);
    StaticBlock.resize(this->Workers);
    for (unsigned W = 0; W < this->Workers; ++W)
      StaticBlock[W] = W;
    break;
  case Schedule::Dynamic:
    Chunk = ChunkSize > 0 ? ChunkSize : 1;
    break;
  case Schedule::Guided:
    Chunk = ChunkSize > 0 ? ChunkSize : 1; // Minimum grab size.
    break;
  }
}

bool ChunkDispenser::next(unsigned W, int64_t &First, int64_t &Last,
                          unsigned &ChunkId) {
  // Zero-trip guard (Up < Lo): nothing to dispense under any policy, and
  // the per-policy cursors below must stay untouched so arbitrarily many
  // polls of an empty space stay safe. A cancelled dispenser likewise
  // dispenses nothing more, so faulting loops drain at chunk granularity.
  if (Iterations == 0 || Cancelled.load(std::memory_order_acquire))
    return false;
  switch (Sched) {
  case Schedule::Static: {
    // Per-worker cursor: worker W owns blocks W, W+Workers, W+2*Workers...
    // No cross-thread state is touched besides the dispense counter.
    int64_t Block = StaticBlock[W];
    First = Lo + Block * Chunk;
    if (First > Up)
      return false;
    StaticBlock[W] = Block + Workers;
    Last = std::min(Up, First + Chunk - 1);
    break;
  }
  case Schedule::Dynamic: {
    // Claim by compare-exchange rather than an unconditional fetch_add:
    // exhausted polls must not keep advancing the cursor (a worker spinning
    // on an empty dispenser would eventually overflow it).
    int64_t Cur = Cursor.load(std::memory_order_relaxed);
    do {
      if (Cur > Up)
        return false;
    } while (!Cursor.compare_exchange_weak(Cur, Cur + Chunk,
                                           std::memory_order_relaxed));
    First = Cur;
    Last = std::min(Up, First + Chunk - 1);
    break;
  }
  case Schedule::Guided: {
    int64_t Cur = Cursor.load(std::memory_order_relaxed);
    int64_t Size;
    do {
      if (Cur > Up)
        return false;
      int64_t Remaining = Up - Cur + 1;
      Size = std::max(Chunk, Remaining / static_cast<int64_t>(Workers));
      // Clamp after applying the floor: a floor larger than what remains
      // must not overshoot Up.
      Size = std::min(Size, Remaining);
    } while (!Cursor.compare_exchange_weak(Cur, Cur + Size,
                                           std::memory_order_relaxed));
    First = Cur;
    Last = Cur + Size - 1;
    break;
  }
  }
  ChunkId = Dispensed.fetch_add(1, std::memory_order_relaxed);
  return true;
}
