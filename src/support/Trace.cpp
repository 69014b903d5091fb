//===- support/Trace.cpp - Hierarchical scoped tracing --------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/Statistic.h"

#include <chrono>
#include <deque>
#include <fstream>
#include <mutex>

using namespace iaa;
using namespace iaa::trace;

#define IAA_STAT_GROUP "trace"
IAA_STAT(trace_dropped, "Trace events discarded by the buffer cap");

std::atomic<bool> iaa::trace::detail::Enabled{false};

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t DefaultMaxEvents = size_t(1) << 18;

/// Dense thread ids: assigned once per thread on first traced span.
uint32_t currentTid() {
  static std::atomic<uint32_t> NextTid{0};
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

/// The process-wide span buffer: a bounded deque of events with its time
/// origin and drop counter. Spans close on whichever thread opened them,
/// pool workers included, so every access takes the mutex.
struct Buffer {
  std::mutex Mutex;
  std::deque<Event> Events;
  size_t MaxEvents = DefaultMaxEvents;
  size_t Dropped = 0;
  Clock::time_point Origin = Clock::now();

  /// Microseconds since the time origin.
  double nowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
        .count();
  }

  /// Appends under the cap, discarding the oldest event when full.
  void append(Event E) {
    bool DroppedOne = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Events.size() >= MaxEvents) {
        Events.pop_front();
        ++Dropped;
        DroppedOne = true;
      }
      Events.push_back(std::move(E));
    }
    if (DroppedOne)
      ++trace_dropped;
  }
};

Buffer &buffer() {
  static Buffer B;
  return B;
}

} // namespace

void iaa::trace::enable(bool On) {
  detail::Enabled.store(On, std::memory_order_relaxed);
}

void iaa::trace::clear() {
  Buffer &B = buffer();
  std::lock_guard<std::mutex> Lock(B.Mutex);
  B.Events.clear();
  B.Dropped = 0;
  B.Origin = Clock::now();
}

size_t iaa::trace::eventCount() {
  Buffer &B = buffer();
  std::lock_guard<std::mutex> Lock(B.Mutex);
  return B.Events.size();
}

void iaa::trace::setMaxEvents(size_t Max) {
  Buffer &B = buffer();
  size_t DroppedNow = 0;
  {
    std::lock_guard<std::mutex> Lock(B.Mutex);
    B.MaxEvents = Max == 0 ? DefaultMaxEvents : Max;
    while (B.Events.size() > B.MaxEvents) {
      B.Events.pop_front();
      ++B.Dropped;
      ++DroppedNow;
    }
  }
  if (DroppedNow)
    trace_dropped += DroppedNow;
}

size_t iaa::trace::droppedCount() {
  Buffer &B = buffer();
  std::lock_guard<std::mutex> Lock(B.Mutex);
  return B.Dropped;
}

std::vector<Event> iaa::trace::events() {
  Buffer &B = buffer();
  std::lock_guard<std::mutex> Lock(B.Mutex);
  return std::vector<Event>(B.Events.begin(), B.Events.end());
}

void iaa::trace::counter(const std::string &Name, double Value) {
  if (!enabled())
    return;
  Buffer &B = buffer();
  Event E;
  E.Name = Name;
  E.Cat = "counter";
  E.Ph = 'C';
  E.TsMicros = B.nowMicros();
  E.Value = Value;
  E.Tid = currentTid();
  B.append(std::move(E));
}

void TraceScope::begin(const char *N, const char *C) {
  Active = true;
  Name = N;
  Cat = C;
  (void)currentTid(); // Assign the tid before timing starts.
  StartMicros = buffer().nowMicros();
}

void TraceScope::end() {
  Buffer &B = buffer();
  double End = B.nowMicros();
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsMicros = StartMicros;
  E.DurMicros = End - StartMicros;
  E.Tid = currentTid();
  E.Args = std::move(Args);
  B.append(std::move(E));
}

std::string iaa::trace::json() {
  std::vector<Event> Evs = events();
  size_t Dropped = droppedCount();
  std::string Out = "{\"traceEvents\": [";
  bool First = true;
  for (const Event &E : Evs) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  {\"name\": " + json::str(E.Name) +
           ", \"cat\": " + json::str(E.Cat);
    if (E.Ph == 'C') {
      Out += ", \"ph\": \"C\", \"ts\": " + json::num(E.TsMicros) +
             ", \"pid\": 1, \"tid\": " + std::to_string(E.Tid) +
             ", \"args\": {\"value\": " + json::num(E.Value) + "}";
    } else {
      Out += ", \"ph\": \"X\", \"ts\": " + json::num(E.TsMicros) +
             ", \"dur\": " + json::num(E.DurMicros) +
             ", \"pid\": 1, \"tid\": " + std::to_string(E.Tid);
      if (!E.Args.empty()) {
        Out += ", \"args\": {";
        bool FirstArg = true;
        for (const auto &[K, V] : E.Args) {
          if (!FirstArg)
            Out += ", ";
          FirstArg = false;
          Out += json::str(K) + ": " + json::str(V);
        }
        Out += "}";
      }
    }
    Out += "}";
  }
  Out += "\n], \"droppedEvents\": " + std::to_string(Dropped) +
         ", \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

bool iaa::trace::writeJson(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << json();
  return static_cast<bool>(Out);
}
