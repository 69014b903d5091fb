//===- server/Protocol.cpp - mfpard request/response protocol -------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <iterator>

using namespace iaa;
using namespace iaa::server;

const char *server::opName(Op O) {
  switch (O) {
  case Op::Run:      return "run";
  case Op::Compile:  return "compile";
  case Op::Ping:     return "ping";
  case Op::Stats:    return "stats";
  case Op::Shutdown: return "shutdown";
  }
  return "?";
}

const char *server::statusName(Response::Status S) {
  switch (S) {
  case Response::Status::Ok:    return "ok";
  case Response::Status::Pong:  return "pong";
  case Response::Status::Bye:   return "bye";
  case Response::Status::Error: return "error";
  case Response::Status::Fault: return "fault";
  case Response::Status::Shed:  return "shed";
  }
  return "?";
}

std::string Request::flagKey() const {
  return std::string(xform::pipelineModeName(Mode)) + "|" +
         verify::auditModeName(Audit);
}

namespace {

/// Reads a JSON number as a bounded non-negative integer; false on
/// fractions, negatives, NaN, or anything past \p Max.
bool asBoundedU64(const json::Value &V, uint64_t Max, uint64_t &Out) {
  if (!V.isNumber() || !(V.N >= 0) || V.N != std::floor(V.N) ||
      V.N > static_cast<double>(Max))
    return false;
  Out = static_cast<uint64_t>(V.N);
  return true;
}

bool asBool(const json::Value &V, bool &Out) {
  if (V.K != json::Value::Kind::Bool)
    return false;
  Out = V.B;
  return true;
}

/// Every top-level request member the grammar (Protocol.h) defines.
constexpr const char *RequestFields[] = {
    "id", "op", "source", "mode", "threads", "engine", "audit",
    "runtime_checks", "on_fault", "simulate", "profile", "counters",
    "remarks", "deadline_ms", "mem_limit_mb"};

bool isRequestField(const std::string &Name) {
  return std::find(std::begin(RequestFields), std::end(RequestFields),
                   Name) != std::end(RequestFields);
}

} // namespace

std::optional<Request> server::parseRequest(const std::string &Line,
                                            std::string &Err,
                                            size_t MaxBytes) {
  if (MaxBytes && Line.size() > MaxBytes) {
    Err = "request frame exceeds " + std::to_string(MaxBytes) + " bytes";
    return std::nullopt;
  }
  std::optional<json::Value> Doc = json::parse(Line);
  if (!Doc) {
    Err = "malformed JSON request frame";
    return std::nullopt;
  }
  if (!Doc->isObject()) {
    Err = "request must be a JSON object";
    return std::nullopt;
  }
  // A misspelled or retired field would otherwise be ignored silently,
  // running the request without the option the client thinks it set.
  for (const auto &Member : Doc->Members)
    if (!isRequestField(Member.first)) {
      Err = "unknown field '" + Member.first + "'";
      return std::nullopt;
    }

  Request R;
  if (const json::Value *Id = Doc->member("id")) {
    if (Id->isString())
      R.Id = Id->S;
    else if (Id->isNumber())
      R.Id = json::num(Id->N);
    else {
      Err = "'id' must be a string or number";
      return std::nullopt;
    }
  }

  const json::Value *OpV = Doc->member("op");
  if (!OpV || !OpV->isString()) {
    Err = "missing or non-string 'op'";
    return std::nullopt;
  }
  if (OpV->S == "run")
    R.Kind = Op::Run;
  else if (OpV->S == "compile")
    R.Kind = Op::Compile;
  else if (OpV->S == "ping")
    R.Kind = Op::Ping;
  else if (OpV->S == "stats")
    R.Kind = Op::Stats;
  else if (OpV->S == "shutdown")
    R.Kind = Op::Shutdown;
  else {
    Err = "unknown op '" + OpV->S + "'";
    return std::nullopt;
  }

  if (const json::Value *V = Doc->member("source")) {
    if (!V->isString()) {
      Err = "'source' must be a string";
      return std::nullopt;
    }
    R.Source = V->S;
  }
  if ((R.Kind == Op::Run || R.Kind == Op::Compile) && R.Source.empty()) {
    Err = std::string("op '") + opName(R.Kind) + "' requires 'source'";
    return std::nullopt;
  }

  if (const json::Value *V = Doc->member("mode")) {
    if (V->isString() && V->S == "full")
      R.Mode = xform::PipelineMode::Full;
    else if (V->isString() && V->S == "noiaa")
      R.Mode = xform::PipelineMode::NoIAA;
    else if (V->isString() && V->S == "apo")
      R.Mode = xform::PipelineMode::Apo;
    else {
      Err = "'mode' must be full, noiaa, or apo";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("threads")) {
    uint64_t T = 0;
    if (!asBoundedU64(*V, 256, T) || T == 0) {
      Err = "'threads' must be an integer between 1 and 256";
      return std::nullopt;
    }
    R.Threads = static_cast<unsigned>(T);
  }
  if (const json::Value *V = Doc->member("engine")) {
    if (!V->isString() || !interp::parseEngine(V->S, R.Engine)) {
      Err = "'engine' must be vm or both";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("audit")) {
    if (!V->isString() || !verify::parseAuditMode(V->S, R.Audit)) {
      Err = "'audit' must be off, warn, or strict";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("runtime_checks")) {
    if (!asBool(*V, R.RuntimeChecks)) {
      Err = "'runtime_checks' must be a boolean";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("on_fault")) {
    if (!V->isString() || !interp::parseFaultAction(V->S, R.OnFault)) {
      Err = "'on_fault' must be report or replay";
      return std::nullopt;
    }
    // A tenant must not disable the shared process's fault containment:
    // abort skips the rollback snapshot and kills the daemon on a fault.
    if (R.OnFault == interp::FaultAction::Abort) {
      Err = "'on_fault' abort is not allowed in the compile service";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("simulate")) {
    if (!asBool(*V, R.Simulate)) {
      Err = "'simulate' must be a boolean";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("profile")) {
    if (!asBool(*V, R.Profile)) {
      Err = "'profile' must be a boolean";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("counters")) {
    if (!asBool(*V, R.Counters)) {
      Err = "'counters' must be a boolean";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("remarks")) {
    if (!asBool(*V, R.Remarks)) {
      Err = "'remarks' must be a boolean";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("deadline_ms")) {
    if (!asBoundedU64(*V, 86400000, R.DeadlineMs)) {
      Err = "'deadline_ms' must be an integer between 0 and 86400000";
      return std::nullopt;
    }
  }
  if (const json::Value *V = Doc->member("mem_limit_mb")) {
    if (!asBoundedU64(*V, uint64_t(1) << 30, R.MemLimitMb)) {
      Err = "'mem_limit_mb' must be a non-negative integer";
      return std::nullopt;
    }
  }
  return R;
}

std::string Response::toJsonLine() const {
  std::string Out = "{\"id\": " + json::str(Id) +
                    ", \"status\": " + json::str(statusName(St));
  switch (St) {
  case Status::Error:
    Out += ", \"error\": " + json::str(Error);
    break;
  case Status::Fault:
    Out += ", \"fault\": " + json::str(FaultKind) +
           ", \"detail\": " + json::str(FaultDetail) +
           ", \"exit_equivalent\": " + std::to_string(ExitEquivalent);
    break;
  case Status::Shed:
    Out += ", \"retry_after_ms\": " + std::to_string(RetryAfterMs);
    break;
  case Status::Ok:
  case Status::Pong:
  case Status::Bye:
    break;
  }
  if (HasCache)
    Out += std::string(", \"cache\": ") + (CacheHit ? "\"hit\"" : "\"miss\"");
  if (HasChecksum)
    Out += ", \"checksum\": " + json::num(Checksum) +
           ", \"seconds\": " + json::num(Seconds);
  if (!PlanSummary.empty())
    Out += ", \"plan\": " + json::str(PlanSummary);
  if (!RemarksJsonl.empty())
    Out += ", \"remarks_jsonl\": " + json::str(RemarksJsonl);
  if (!ProfileJsonl.empty())
    Out += ", \"profile_jsonl\": " + json::str(ProfileJsonl);
  if (!CountersJson.empty())
    Out += ", \"counters\": " + CountersJson;
  if (!StatsJson.empty())
    Out += ", \"service\": " + StatsJson;
  Out += "}";
  return Out;
}

Response server::errorResponse(const std::string &Id,
                               const std::string &Why) {
  Response R;
  R.Id = Id;
  R.St = Response::Status::Error;
  R.Error = Why;
  return R;
}
