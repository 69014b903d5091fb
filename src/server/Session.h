//===- server/Session.h - Per-connection compile-service state --*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Session per client connection, owning every piece of state a request
/// used to find in process-wide globals:
///
///   | state                    | pre-daemon home      | session home       |
///   |--------------------------|----------------------|--------------------|
///   | statistic counters       | static registry      | stat::Collector    |
///   | trace events             | process ring buffer  | trace::Buffer      |
///   | optimization remarks     | stdout / files       | RemarkSink         |
///   | loop profile             | caller's Session     | per-request        |
///   | interpreter caches       | per-run Exec         | per-Interpreter    |
///   | compiled bytecode        | per-run Exec         | per-artifact store |
///
/// handle() installs the session's collector and (when tracing) trace
/// buffer for the duration of the request; the WorkerPool re-installs them
/// inside its workers per fork/join generation, so even runs sharing the
/// daemon's pool attribute observability to the right session. Two
/// concurrent sessions therefore never see each other's counters, spans,
/// remarks, verdict caches, or memory — the zero-cross-contamination
/// guarantee the SessionIsolation tests pin down.
///
/// Sessions are not thread-safe; the daemon drives each from exactly one
/// service thread. Different sessions run fully concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SERVER_SESSION_H
#define IAA_SERVER_SESSION_H

#include "interp/Interpreter.h"
#include "server/ArtifactCache.h"
#include "server/Protocol.h"
#include "server/Watchdog.h"
#include "support/Remarks.h"
#include "support/Statistic.h"
#include "support/Trace.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>

namespace iaa {
namespace server {

/// Process-wide request accounting, shared by every session.
struct ServiceCounters {
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Faults{0};
  std::atomic<uint64_t> Errors{0};
  std::atomic<uint64_t> Shed{0};
};

/// Everything a session borrows from its host (daemon or test harness).
/// All pointers may be null except Artifacts and Deadlines.
struct SessionEnv {
  ArtifactCache *Artifacts = nullptr;
  Watchdog *Deadlines = nullptr;
  /// Shared fork/join pool; a session-owned pool is created per program
  /// when absent (or too small for a request's thread count).
  interp::WorkerPool *SharedPool = nullptr;
  ServiceCounters *Counters = nullptr;
  /// Set by a shutdown request; the daemon's accept loop watches it.
  std::atomic<bool> *ShutdownFlag = nullptr;
  uint64_t DefaultDeadlineMs = 0; ///< Applied when a request sends none.
  uint64_t DefaultMemLimitMb = 0; ///< Applied when a request sends none.
  size_t MaxRequestBytes = 1 << 20;
};

class Session {
public:
  explicit Session(SessionEnv Env);

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Handles one validated request.
  Response handle(const Request &R);

  /// The full request cycle for one wire frame: parse (hostile input),
  /// dispatch, serialize. Never throws; every malformed frame becomes a
  /// structured error response. This is the fuzz-test entry point.
  std::string handleLine(const std::string &Line);

  /// Session-cumulative statistic counters (what "counters": true inlines).
  const stat::Collector &counters() const { return Stats; }

  /// Session-cumulative remark sink (pipeline + fault remarks).
  const RemarkSink &remarks() const { return Remarks; }

  /// Requests this session has handled.
  uint64_t requestsHandled() const { return Handled; }

  /// Resident per-program states (bounded by MaxPrograms).
  size_t programCount() const { return Programs.size(); }

private:
  Response handleRun(const Request &R);
  Response handleCompile(const Request &R);
  Response handleStats(const Request &R);

  /// Per-program execution state, kept across requests so repeat
  /// submissions reuse inspector verdicts and the artifact's shared
  /// bytecode. Content-keyed (flags + full source) and bounded: past
  /// MaxPrograms entries the least-recently-used state is recycled —
  /// releasing its artifact pin and interpreter (with any private pool) —
  /// so a long-lived connection cycling through distinct programs cannot
  /// grow daemon memory without bound, mirroring the bounded trace ring.
  struct ProgramState {
    std::shared_ptr<const Artifact> Art; ///< Pins the Program + plans.
    std::unique_ptr<interp::Interpreter> Interp;
    uint64_t LastUse = 0; ///< Session-local LRU clock tick.
  };
  static constexpr size_t MaxPrograms = 16;
  ProgramState &stateFor(const Request &R, bool &CacheHit);

  SessionEnv Env;
  stat::Collector Stats;
  trace::Buffer Trace;
  RemarkSink Remarks;
  std::map<std::string, ProgramState> Programs;
  uint64_t ProgramClock = 0;
  uint64_t Handled = 0;
};

} // namespace server
} // namespace iaa

#endif // IAA_SERVER_SESSION_H
