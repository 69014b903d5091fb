//===- perfbench/src/Service.cpp - Load generator for the mfpard daemon ---===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "Service.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace iaa;

namespace perfbench {

std::string runFrame(const std::string &Id, const std::string &Source) {
  return "{\"id\": " + json::str(Id) +
         ", \"op\": \"run\", \"mode\": \"full\", \"audit\": \"warn\", "
         "\"engine\": \"vm\", \"runtime_checks\": true, \"on_fault\": "
         "\"replay\", \"threads\": " +
         std::to_string(Threads) +
         ", \"simulate\": false, \"source\": " + json::str(Source) + "}";
}

Outcome checkResponse(const std::string &Line, const Case &Expect) {
  Outcome O;
  std::optional<json::Value> Doc = json::parse(Line);
  const json::Value *Status = Doc ? Doc->member("status") : nullptr;
  if (!Status || !Status->isString()) {
    O.Error = true;
    return O;
  }
  if (const json::Value *Cache = Doc->member("cache"); Cache && Cache->isString()) {
    O.HasCache = true;
    O.Hit = Cache->S == "hit";
  }
  if (Status->S == "shed") {
    O.Shed = true;
  } else if (Status->S == "fault") {
    O.Fault = true;
  } else if (Status->S == "ok") {
    const json::Value *Sum = Doc->member("checksum");
    const json::Value *Secs = Doc->member("seconds");
    O.Healthy = Sum && Sum->isNumber() && Secs && Secs->isNumber();
    if (O.Healthy) {
      O.ServerS = Secs->N;
      // The wire carries nine significant digits; round the reference the
      // same way before comparing.
      O.Ok = std::strtod(json::num(Expect.Reference).c_str(), nullptr) ==
             Sum->N;
    }
  } else {
    O.Error = true;
  }
  return O;
}

std::vector<Outcome> drive(server::Client &Conn,
                           const std::vector<WireRequest> &Requests,
                           double Interval) {
  std::vector<Outcome> All;
  const Clock::time_point Start = Clock::now();
  for (size_t K = 0; K < Requests.size(); ++K) {
    const WireRequest &R = Requests[K];
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(double(K) * Interval));
    std::this_thread::sleep_until(Due);
    Clock::time_point Sent = Clock::now();
    std::string Line;
    bool Io = Conn.roundTrip(R.Frame, Line);
    Clock::time_point Done = Clock::now();
    Outcome O = Io ? checkResponse(Line, *R.Expect) : Outcome{};
    O.Error = O.Error || !Io;
    if (!O.Ok)
      std::fprintf(stderr, "perfbench: %s gave %s\n", R.Expect->Name.c_str(),
                   Io ? Line.substr(0, 300).c_str() : "no response");
    O.RoundTrip = std::chrono::duration<double>(Done - Sent).count();
    O.Late = std::chrono::duration<double>(Sent - Due).count();
    All.push_back(O);
    if (!Io)
      break; // The connection is gone; later requests would fail too.
  }
  return All;
}

} // namespace perfbench
