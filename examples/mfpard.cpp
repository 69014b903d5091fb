//===- examples/mfpard.cpp - Persistent compile-service daemon ------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
//
// mfpard: the long-running counterpart to mfpar. Listens on a Unix-domain
// socket for line-delimited JSON requests (see src/server/Protocol.h),
// shares one worker pool and one artifact cache across all clients, and
// contains tenant faults, blown deadlines, and over-budget allocations per
// request — the daemon itself survives them all.
//
//   mfpard --socket=/tmp/mfpard.sock
//   SRC='program p\nreal x(4)\ndo i = 1, 4\n  x(i) = i\nend do\nend\n'
//   printf '{"op":"run","source":"%s"}\n' "$SRC" | nc -U /tmp/mfpard.sock
//
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace iaa;

namespace {

volatile std::sig_atomic_t GotSignal = 0;

void onSignal(int) { GotSignal = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: mfpard --socket=PATH [options]\n"
      "\n"
      "Persistent compile-and-execute service for mf programs. Accepts\n"
      "line-delimited JSON requests on a Unix-domain stream socket; one\n"
      "response line per request. See DESIGN.md \"Compile service\".\n"
      "\n"
      "options:\n"
      "  --socket=PATH          Unix socket path to listen on (required)\n"
      "  --pool-threads=N       shared worker pool width (default 4)\n"
      "  --service-threads=N    concurrent connections served (default 4)\n"
      "  --queue-cap=N          pending-connection bound; beyond it new\n"
      "                         connections are shed with retry_after_ms\n"
      "                         (default 16)\n"
      "  --deadline-ms=N        default per-request wall-clock deadline\n"
      "                         (0 = untimed; requests may override)\n"
      "  --mem-limit-mb=N       default per-request array-memory budget\n"
      "                         (0 = unlimited; requests may override)\n"
      "  --cache-entries=N      artifact cache capacity (default 64)\n");
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

int badValue(const std::string &Flag, const std::string &Value,
             const char *Expected) {
  std::fprintf(stderr, "mfpard: bad value '%s' for %s (expected %s)\n\n",
               Value.c_str(), Flag.c_str(), Expected);
  usage();
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  server::DaemonConfig Config;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto numFlag = [&](const char *Prefix, uint64_t &Out,
                       const char *Expected) -> int {
      std::string Value = Arg.substr(std::strlen(Prefix));
      uint64_t V;
      if (!parseUnsigned(Value.c_str(), V))
        return badValue(std::string(Prefix, std::strlen(Prefix) - 1), Value,
                        Expected);
      Out = V;
      return -1;
    };
    uint64_t Tmp;
    int Rc;
    if (Arg.rfind("--socket=", 0) == 0) {
      Config.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--pool-threads=", 0) == 0) {
      if ((Rc = numFlag("--pool-threads=", Tmp, "a positive integer")) >= 0)
        return Rc;
      if (Tmp == 0 || Tmp > 256)
        return badValue("--pool-threads", std::to_string(Tmp), "1..256");
      Config.PoolThreads = static_cast<unsigned>(Tmp);
    } else if (Arg.rfind("--service-threads=", 0) == 0) {
      if ((Rc = numFlag("--service-threads=", Tmp, "a positive integer")) >=
          0)
        return Rc;
      if (Tmp == 0 || Tmp > 256)
        return badValue("--service-threads", std::to_string(Tmp), "1..256");
      Config.ServiceThreads = static_cast<unsigned>(Tmp);
    } else if (Arg.rfind("--queue-cap=", 0) == 0) {
      if ((Rc = numFlag("--queue-cap=", Tmp, "a non-negative integer")) >= 0)
        return Rc;
      Config.QueueCap = static_cast<size_t>(Tmp);
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if ((Rc = numFlag("--deadline-ms=", Tmp, "milliseconds")) >= 0)
        return Rc;
      Config.DefaultDeadlineMs = Tmp;
    } else if (Arg.rfind("--mem-limit-mb=", 0) == 0) {
      if ((Rc = numFlag("--mem-limit-mb=", Tmp, "megabytes")) >= 0)
        return Rc;
      Config.DefaultMemLimitMb = Tmp;
    } else if (Arg.rfind("--cache-entries=", 0) == 0) {
      if ((Rc = numFlag("--cache-entries=", Tmp, "a positive integer")) >= 0)
        return Rc;
      if (Tmp == 0)
        return badValue("--cache-entries", "0", "a positive integer");
      Config.CacheEntries = static_cast<size_t>(Tmp);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "mfpard: unknown flag '%s'\n\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  if (Config.SocketPath.empty()) {
    std::fprintf(stderr, "mfpard: --socket=PATH is required\n\n");
    usage();
    return 2;
  }

  server::Daemon D(Config);
  std::string Err;
  if (!D.start(&Err)) {
    std::fprintf(stderr, "mfpard: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "mfpard: listening on %s (%u service threads, pool %u)\n",
               Config.SocketPath.c_str(), Config.ServiceThreads,
               Config.PoolThreads);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // Block until a client sends {"op":"shutdown"} or a signal arrives. A
  // signal cannot wake a condition-variable wait, so poll in short slices.
  while (!GotSignal) {
    if (D.waitForShutdown(200))
      break;
  }

  std::fprintf(stderr, "mfpard: shutting down\n");
  D.stop();
  return 0;
}
