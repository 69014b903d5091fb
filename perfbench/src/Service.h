//===- perfbench/src/Service.h - Load generator for the mfpard daemon -----===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an in-process server::Daemon over its Unix socket through one
/// server::Client connection in an open loop: each request is sent when it
/// is due, and how late it went out is recorded. Every response is checked
/// against the request's Case.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVICE_H
#define PERFBENCH_SERVICE_H

#include "Bench.h"

#include "server/Client.h"

#include <string>
#include <vector>

namespace perfbench {

/// One request: its wire frame and the case that says what must come back.
struct WireRequest {
  std::string Frame;
  const Case *Expect = nullptr;
};

/// The outcome of one request.
struct Outcome {
  double RoundTrip = 0; ///< From send to response.
  double Late = 0;      ///< Send time minus due time.
  double ServerS = 0;   ///< The response's "seconds".
  bool Ok = false;      ///< "ok" with the reference checksum.
  bool Healthy = false; ///< An "ok" response with a checksum.
  bool HasCache = false, Hit = false;
  bool Fault = false, Shed = false, Error = false;
};

/// The run request for \p Source in the fixed configuration.
std::string runFrame(const std::string &Id, const std::string &Source);

/// Checks one response line against \p Expect.
Outcome checkResponse(const std::string &Line, const Case &Expect);

/// Sends \p Requests in order over \p Conn, request K due \p Interval * K
/// seconds after the start, and returns their outcomes.
std::vector<Outcome> drive(iaa::server::Client &Conn,
                           const std::vector<WireRequest> &Requests,
                           double Interval);

} // namespace perfbench

#endif // PERFBENCH_SERVICE_H
