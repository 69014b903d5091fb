//===- support/Remarks.cpp - Structured optimization remarks --------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "support/Remarks.h"

#include "support/Json.h"

using namespace iaa;

const char *iaa::remarkKindName(Remark::Kind K) {
  switch (K) {
  case Remark::Kind::Parallelized: return "parallelized";
  case Remark::Kind::Missed:       return "missed";
  case Remark::Kind::Audit:        return "audit";
  case Remark::Kind::RuntimeCheck: return "runtime-check";
  case Remark::Kind::FaultReplay:  return "fault-replay";
  case Remark::Kind::Recurrence:   return "recurrence";
  }
  return "?";
}

std::string Remark::str() const {
  std::string Out = Loop + ": " + remarkKindName(K);
  if (!Reason.empty())
    Out += " — " + Reason;
  for (const auto &[Key, Val] : Evidence)
    Out += "\n    " + Key + ": " + Val;
  return Out;
}

std::string Remark::jsonLine() const {
  std::string Out = "{\"loop\": " + json::str(Loop) +
                    ", \"kind\": " + json::str(remarkKindName(K)) +
                    ", \"reason\": " + json::str(Reason) +
                    ", \"evidence\": {";
  bool First = true;
  for (const auto &[Key, Val] : Evidence) {
    if (!First)
      Out += ", ";
    First = false;
    Out += json::str(Key) + ": " + json::str(Val);
  }
  Out += "}}";
  return Out;
}

std::string iaa::remarksText(const std::vector<Remark> &Remarks) {
  std::string Out;
  for (const Remark &R : Remarks)
    Out += R.str() + "\n";
  return Out;
}

std::string iaa::remarksJsonl(const std::vector<Remark> &Remarks) {
  std::string Out;
  for (const Remark &R : Remarks)
    Out += R.jsonLine() + "\n";
  return Out;
}
