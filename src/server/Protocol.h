//===- server/Protocol.h - mfpard request/response protocol -----*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the mfpard compile service: line-delimited JSON over
/// a Unix stream socket, one request object per line, one response object
/// per line, in order. The grammar (see DESIGN.md "Compile service"):
///
///   request  := { "id"?: string|number, "op": "run" | "compile" | "ping"
///                 | "stats" | "shutdown",
///                 "source"?: string,            // run/compile
///                 "mode"?: "full"|"noiaa"|"apo",
///                 "threads"?: int, "engine"?: "vm"|"both",
///                 "audit"?: "off"|"warn"|"strict",
///                 "runtime_checks"?: bool, "on_fault"?: "report"|"replay",
///                 "simulate"?: bool, "profile"?: bool, "counters"?: bool,
///                 "remarks"?: bool,
///                 "deadline_ms"?: int, "mem_limit_mb"?: int }
///   response := { "id": string, "status": "ok" | "pong" | "bye" | "error"
///                 | "fault" | "shed", ... }
///
/// parseRequest() is the hostile-input boundary: it must map every
/// malformed, truncated, oversized, or type-confused frame — and every
/// member the grammar does not define — to a structured error; never
/// crash, never accept an out-of-range value. The fuzz tests
/// (DaemonProtocol.*) hold it to that.
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SERVER_PROTOCOL_H
#define IAA_SERVER_PROTOCOL_H

#include "interp/Interpreter.h"
#include "interp/ThreadPool.h"
#include "verify/PlanAudit.h"
#include "xform/Parallelizer.h"

#include <cstdint>
#include <optional>
#include <string>

namespace iaa {
namespace server {

/// What one request asks the service to do.
enum class Op {
  Run,      ///< Compile (or fetch from the artifact cache) and execute.
  Compile,  ///< Compile only; respond with the plan summary.
  Ping,     ///< Liveness probe; responds "pong".
  Stats,    ///< Service health: request/fault/shed/cache counters.
  Shutdown, ///< Ask the daemon to stop accepting and drain.
};

const char *opName(Op O);

/// One parsed, validated request. Defaults mirror mfpar's flag defaults.
struct Request {
  std::string Id;  ///< Echoed verbatim in the response ("" when absent).
  Op Kind = Op::Run;
  std::string Source;
  xform::PipelineMode Mode = xform::PipelineMode::Full;
  unsigned Threads = 4;
  interp::ExecEngine Engine = interp::ExecEngine::Vm;
  verify::AuditMode Audit = verify::AuditMode::Off;
  bool RuntimeChecks = false;
  /// Abort is refused at parse time: a tenant must never be able to ask
  /// the shared daemon process to skip fault containment.
  interp::FaultAction OnFault = interp::FaultAction::Replay;
  bool Simulate = false;
  bool Profile = false;  ///< Inline the per-loop profile JSONL in the reply.
  bool Counters = false; ///< Inline the session's statistic counters.
  bool Remarks = false;  ///< Inline optimization remarks JSONL.
  uint64_t DeadlineMs = 0;  ///< 0 = use the server default.
  uint64_t MemLimitMb = 0;  ///< 0 = use the server default.

  /// Fingerprint of the flags that shape the compile *artifact* (pipeline
  /// mode and audit mode — execution flags do not participate, so runs
  /// that differ only in threads or engine share one artifact).
  std::string flagKey() const;
};

/// Parses and validates one request line. On failure returns nullopt and
/// sets \p Err to a human-readable reason (always safe to echo back).
/// \p MaxBytes > 0 rejects frames longer than the bound before parsing.
std::optional<Request> parseRequest(const std::string &Line, std::string &Err,
                                    size_t MaxBytes = 0);

/// One response, serialized as a single JSON line by toJsonLine().
struct Response {
  enum class Status { Ok, Pong, Bye, Error, Fault, Shed };

  std::string Id;
  Status St = Status::Ok;
  std::string Error; ///< Status::Error: what was wrong with the request.

  // Status::Fault — the structured runtime fault of the tenant program.
  std::string FaultKind;
  std::string FaultDetail;
  /// The mfpar exit code this outcome maps to: 4 runtime fault, 5
  /// deadline exceeded, 6 resource exhausted (0 otherwise).
  int ExitEquivalent = 0;

  uint64_t RetryAfterMs = 0; ///< Status::Shed: suggested client backoff.

  bool HasCache = false; ///< Run/compile: whether Cache below is valid.
  bool CacheHit = false; ///< Artifact came from the cache.
  bool HasChecksum = false;
  double Checksum = 0; ///< Final-memory digest (dead privates excluded).
  double Seconds = 0;  ///< Tenant execution seconds (run only).
  std::string PlanSummary;   ///< Compile: pipeline + audit summary text.
  std::string RemarksJsonl;  ///< When requested: remarks, one per line.
  std::string ProfileJsonl;  ///< When requested: per-loop profile records.
  std::string CountersJson;  ///< When requested: session counters object.
  std::string StatsJson;     ///< Op::Stats: service health object.

  std::string toJsonLine() const;
};

const char *statusName(Response::Status S);

/// Builds the error response every malformed frame gets.
Response errorResponse(const std::string &Id, const std::string &Why);

} // namespace server
} // namespace iaa

#endif // IAA_SERVER_PROTOCOL_H
