//===- server/Daemon.h - mfpard Unix-socket compile service -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mfpard daemon: a Unix-domain stream socket accepting line-delimited
/// JSON requests (server/Protocol.h). One accept thread feeds a *bounded*
/// connection queue drained by a fixed set of service threads, each running
/// one Session per connection; when the queue is full the daemon sheds the
/// connection with {"status":"shed","retry_after_ms":N} instead of letting
/// load build unbounded — graceful degradation, not collapse.
///
/// Shared across every request: the fork/join WorkerPool (forks serialize;
/// workers count nothing, so they need no session context), the artifact
/// cache, and the deadline watchdog. Faults, blown deadlines, and over-budget
/// allocations are contained per request by the interpreter's transaction
/// machinery; the daemon itself never dies with a tenant.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SERVER_DAEMON_H
#define IAA_SERVER_DAEMON_H

#include "interp/ThreadPool.h"
#include "server/ArtifactCache.h"
#include "server/Session.h"
#include "server/Watchdog.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace iaa {
namespace server {

struct DaemonConfig {
  std::string SocketPath;
  unsigned PoolThreads = 4;    ///< Shared fork/join WorkerPool width.
  unsigned ServiceThreads = 4; ///< Connections served concurrently.
  size_t QueueCap = 16;        ///< Accepted-but-unserved connection bound.
  uint64_t RetryAfterMs = 50;  ///< Backoff hint on a shed response.
  uint64_t DefaultDeadlineMs = 0; ///< Per-request default; 0 = untimed.
  uint64_t DefaultMemLimitMb = 0; ///< Per-request default; 0 = unlimited.
  size_t MaxRequestBytes = 1 << 20;
  size_t CacheEntries = 64;
};

class Daemon {
public:
  explicit Daemon(DaemonConfig C);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds the socket and starts the accept + service threads. False (with
  /// \p Err set) when the socket cannot be created or bound.
  bool start(std::string *Err);

  /// Stops accepting, unblocks every service thread, joins them, and
  /// removes the socket file. Idempotent; also run by the destructor.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// Blocks until a shutdown request arrives or stop() is called. The timed
  /// overload returns after at most \p TimeoutMs; true when shutdown was
  /// requested or the daemon stopped (callers polling for signals use it).
  void waitForShutdown();
  bool waitForShutdown(uint64_t TimeoutMs);

  const DaemonConfig &config() const { return Config; }
  ServiceCounters &counters() { return Counters; }
  ArtifactCache &artifacts() { return Artifacts; }
  Watchdog &watchdog() { return Deadlines; }

private:
  void acceptLoop();
  void serviceLoop();
  void serveConnection(int Fd);

  DaemonConfig Config;
  ArtifactCache Artifacts;
  Watchdog Deadlines;
  std::unique_ptr<interp::WorkerPool> Pool;
  ServiceCounters Counters;
  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};
  int ListenFd = -1;

  std::mutex QueueM;
  std::condition_variable QueueCv;
  /// Shutdown waiters get their own cv: if waitForShutdown() waited on
  /// QueueCv, the acceptor's notify_one for a freshly queued connection
  /// could wake it instead of a service thread — it would re-check its
  /// predicate, go back to sleep, and the connection would sit in
  /// PendingFds until the next notify (a lost wakeup the mfpard binary,
  /// whose main thread parks in waitForShutdown, actually hit).
  std::condition_variable ShutdownCv;
  std::deque<int> PendingFds;

  std::thread Acceptor;
  std::vector<std::thread> Services;
};

} // namespace server
} // namespace iaa

#endif // IAA_SERVER_DAEMON_H
