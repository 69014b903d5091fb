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

/// The buffer receiving this thread's spans, or null for the process-wide
/// one. File-local for the reason given at Statistic.cpp's TlsCollector.
thread_local Buffer *TlsBuffer = nullptr;

using Clock = std::chrono::steady_clock;

constexpr size_t DefaultMaxEvents = size_t(1) << 18;

/// Dense thread ids: assigned once per thread on first traced span, from a
/// process-wide counter so ids stay unique across per-session buffers.
uint32_t currentTid() {
  static std::atomic<uint32_t> NextTid{0};
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

} // namespace

struct Buffer::Impl {
  mutable std::mutex Mutex;
  std::deque<Event> Events;
  size_t MaxEvents = DefaultMaxEvents;
  size_t Dropped = 0;
  Clock::time_point Origin = Clock::now();
};

Buffer::Buffer() : I(new Impl) {}
Buffer::~Buffer() { delete I; }

void Buffer::append(Event E) {
  bool DroppedOne = false;
  {
    std::lock_guard<std::mutex> Lock(I->Mutex);
    if (I->Events.size() >= I->MaxEvents) {
      I->Events.pop_front();
      ++I->Dropped;
      DroppedOne = true;
    }
    I->Events.push_back(std::move(E));
  }
  if (DroppedOne)
    ++trace_dropped;
}

void Buffer::clear() {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  I->Events.clear();
  I->Dropped = 0;
  I->Origin = Clock::now();
}

size_t Buffer::eventCount() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->Events.size();
}

void Buffer::setMaxEvents(size_t Max) {
  size_t DroppedNow = 0;
  {
    std::lock_guard<std::mutex> Lock(I->Mutex);
    I->MaxEvents = Max == 0 ? DefaultMaxEvents : Max;
    while (I->Events.size() > I->MaxEvents) {
      I->Events.pop_front();
      ++I->Dropped;
      ++DroppedNow;
    }
  }
  if (DroppedNow)
    trace_dropped += DroppedNow;
}

size_t Buffer::droppedCount() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return I->Dropped;
}

double Buffer::nowMicros() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - I->Origin)
      .count();
}

std::vector<Event> Buffer::events() const {
  std::lock_guard<std::mutex> Lock(I->Mutex);
  return std::vector<Event>(I->Events.begin(), I->Events.end());
}

std::string Buffer::json() const {
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

bool Buffer::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << json();
  return static_cast<bool>(Out);
}

namespace {

Buffer &globalBuffer() {
  static Buffer B;
  return B;
}

/// The buffer this thread's spans land in: the installed per-session one,
/// else the process-wide one.
Buffer &targetBuffer() { return TlsBuffer ? *TlsBuffer : globalBuffer(); }

} // namespace

Buffer *iaa::trace::currentBuffer() { return TlsBuffer; }

BufferScope::BufferScope(Buffer *B) : Prev(TlsBuffer) { TlsBuffer = B; }

BufferScope::~BufferScope() { TlsBuffer = Prev; }

void iaa::trace::enable(bool On) {
  detail::Enabled.store(On, std::memory_order_relaxed);
}

void iaa::trace::clear() { targetBuffer().clear(); }

size_t iaa::trace::eventCount() { return targetBuffer().eventCount(); }

void iaa::trace::setMaxEvents(size_t Max) { targetBuffer().setMaxEvents(Max); }

size_t iaa::trace::droppedCount() { return targetBuffer().droppedCount(); }

std::vector<Event> iaa::trace::events() { return targetBuffer().events(); }

void iaa::trace::counter(const std::string &Name, double Value) {
  if (!enabled())
    return;
  Buffer &B = targetBuffer();
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
  StartMicros = targetBuffer().nowMicros();
}

void TraceScope::end() {
  Buffer &B = targetBuffer();
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

std::string iaa::trace::json() { return targetBuffer().json(); }

bool iaa::trace::writeJson(const std::string &Path) {
  return targetBuffer().writeJson(Path);
}
