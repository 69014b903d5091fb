//===- support/Trace.h - Hierarchical scoped tracing ------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide tracer emitting Chrome trace-event JSON (the format
/// chrome://tracing and Perfetto load). Instrumentation sites open RAII
/// TraceScope spans:
///
/// \code
///   trace::TraceScope Span("dep-test", "deptest");
///   Span.arg("loop", L->label());
///   ... // span closes at scope exit
/// \endcode
///
/// Tracing is off by default and every span begins with a single relaxed
/// atomic load, so instrumented hot paths (the interpreter, the property
/// solver) pay one predictable branch when disabled — the bench JSON
/// tracks that interpreter timings are unchanged vs. the untraced baseline.
///
/// Spans record wall-clock microseconds from a common origin plus a small
/// dense thread id, so fork/join parallel loops render as per-thread
/// swimlanes exposing work imbalance and fork/join overhead.
///
/// Events land in a trace::Buffer. One process-wide buffer backs the free
/// functions below (the mfpar --trace flag); a multi-tenant process (the
/// mfpard daemon) instead installs a per-session Buffer thread-locally via
/// BufferScope so concurrent requests never interleave spans — the
/// WorkerPool propagates the installing thread's buffer to its workers for
/// the duration of each parallel region.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SUPPORT_TRACE_H
#define IAA_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace iaa {
namespace trace {

class Buffer;

namespace detail {
extern std::atomic<bool> Enabled;
} // namespace detail

/// The per-session buffer installed on this thread, or null when spans go
/// to the process-wide buffer. The thread-local behind it is private to
/// Trace.cpp, which does every read and write (as Statistic.cpp does for
/// its collector, and for the same reason).
Buffer *currentBuffer();

/// True when span collection is on: either globally (trace::enable) or
/// because a per-session buffer is installed on this thread. One relaxed
/// atomic load plus one call — still the only cost instrumented code pays
/// when tracing is disabled.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed) ||
         currentBuffer() != nullptr;
}

/// Turns collection on or off. Enabling does not clear prior events.
void enable(bool On);

/// Drops all collected events (and resets the time origin and the dropped
/// count).
void clear();

/// Number of events currently buffered.
size_t eventCount();

/// Caps the in-memory event buffer: once full, the oldest events are
/// discarded (counted by droppedCount() and the trace_dropped statistic)
/// so long profiled runs cannot grow memory without limit. The default is
/// 1<<18 events; \p Max = 0 restores it.
void setMaxEvents(size_t Max);

/// Events discarded by the buffer cap since the last clear().
size_t droppedCount();

/// One completed span ("ph":"X") or counter sample ("ph":"C") in the
/// trace-event format.
struct Event {
  std::string Name;
  std::string Cat;
  char Ph = 'X';        ///< 'X' duration span, 'C' counter sample.
  double TsMicros = 0;  ///< Start, microseconds from the trace origin.
  double DurMicros = 0; ///< Duration in microseconds (spans only).
  double Value = 0;     ///< Counter value ('C' events only).
  uint32_t Tid = 0;     ///< Dense per-process thread id.
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Records a counter sample ("ph":"C"): \p Name becomes a counter track in
/// the viewer with \p Value at the current timestamp. No-op when tracing
/// is disabled.
void counter(const std::string &Name, double Value);

/// Snapshot of the events collected so far.
std::vector<Event> events();

/// The whole trace as a Chrome trace-event JSON document
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}).
std::string json();

/// Writes json() to \p Path; false on I/O failure.
bool writeJson(const std::string &Path);

/// One span buffer: a bounded deque of events with its own time origin and
/// drop counter. The free functions above operate on the current thread's
/// buffer (the process-wide instance when none is installed); sessions own
/// private instances and install them with BufferScope. All methods are
/// thread-safe.
class Buffer {
public:
  Buffer();
  ~Buffer();

  Buffer(const Buffer &) = delete;
  Buffer &operator=(const Buffer &) = delete;

  /// Appends under the buffer cap, discarding the oldest event when full
  /// (counted by droppedCount() and the trace_dropped statistic).
  void append(Event E);

  /// Drops all events and resets the time origin and the dropped count.
  void clear();

  size_t eventCount() const;

  /// Caps the buffer; \p Max = 0 restores the default (1<<18 events).
  void setMaxEvents(size_t Max);

  size_t droppedCount() const;

  /// Microseconds since this buffer's time origin.
  double nowMicros() const;

  std::vector<Event> events() const;

  /// Chrome trace-event JSON document over this buffer's events.
  std::string json() const;

  /// Writes json() to \p Path; false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  struct Impl;
  Impl *I;
};

/// RAII installation of a per-session buffer on the current thread. Nests;
/// installing null routes spans back to the process-wide buffer, which lets
/// context propagation be unconditional.
class BufferScope {
public:
  explicit BufferScope(Buffer *B);
  ~BufferScope();

  BufferScope(const BufferScope &) = delete;
  BufferScope &operator=(const BufferScope &) = delete;

private:
  Buffer *Prev;
};

/// RAII span. Inactive (a no-op) when tracing is disabled at construction.
class TraceScope {
public:
  TraceScope(const char *Name, const char *Cat) {
    if (enabled())
      begin(Name, Cat);
  }
  ~TraceScope() {
    if (Active)
      end();
  }

  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

  bool active() const { return Active; }

  /// Attaches a key/value annotation (e.g. the property being verified and
  /// its verdict). No-op when inactive.
  void arg(const std::string &Key, const std::string &Val) {
    if (Active)
      Args.emplace_back(Key, Val);
  }

private:
  void begin(const char *Name, const char *Cat);
  void end();

  bool Active = false;
  const char *Name = nullptr;
  const char *Cat = nullptr;
  double StartMicros = 0;
  std::vector<std::pair<std::string, std::string>> Args;
};

} // namespace trace
} // namespace iaa

#endif // IAA_SUPPORT_TRACE_H
