//===- support/Statistic.cpp - Named global counters ----------------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "support/Statistic.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>

using namespace iaa;
using namespace iaa::stat;

namespace {

/// Function-local statics sidestep static-initialization-order issues:
/// Statistic constructors run during static init of arbitrary TUs.
std::vector<Statistic *> &registry() {
  static std::vector<Statistic *> R;
  return R;
}

std::mutex &registryMutex() {
  static std::mutex M;
  return M;
}

/// Registration order depends on TU link order and static-init sequencing,
/// so dumps sort by (group, name) to diff cleanly across runs and builds.
/// Caller must hold the registry mutex.
std::vector<Statistic *> sortedRegistry() {
  std::vector<Statistic *> Sorted = registry();
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Statistic *A, const Statistic *B) {
              if (int C = std::strcmp(A->group(), B->group()))
                return C < 0;
              return std::strcmp(A->name(), B->name()) < 0;
            });
  return Sorted;
}

/// The collector receiving this thread's increments, or null. It is
/// file-local on purpose: an `extern thread_local` read from another
/// translation unit goes through GCC's TLS wrapper, and under
/// -fsanitize=undefined GCC 12 branches on the flags of an access the
/// linker relaxes into a flag-free `lea`, so UBSan reports a null load at
/// every increment. Reads here need no wrapper. Increments are per loop,
/// query or parse, never per element, so the out-of-line call is free.
thread_local Collector *TlsCollector = nullptr;

} // namespace

Collector *iaa::stat::currentCollector() { return TlsCollector; }

CollectorScope::CollectorScope(Collector *C) : Prev(TlsCollector) {
  TlsCollector = C;
}

CollectorScope::~CollectorScope() { TlsCollector = Prev; }

void Collector::note(const Statistic *S, uint64_t N) {
  std::lock_guard<std::mutex> Lock(M);
  Counts[S] += N;
}

uint64_t Collector::value(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &[S, N] : Counts)
    if (Name == S->name())
      return N;
  return 0;
}

std::map<std::string, uint64_t> Collector::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::string, uint64_t> Out;
  for (const auto &[S, N] : Counts)
    if (N != 0)
      Out[std::string(S->group()) + "." + S->name()] = N;
  return Out;
}

std::string Collector::json() const {
  std::map<std::string, uint64_t> Snap = snapshot();
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, N] : Snap) {
    if (!First)
      Out += ",";
    First = false;
    Out += json::str(Name) + ":" + std::to_string(N);
  }
  Out += "}";
  return Out;
}

void Collector::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Counts.clear();
}

Statistic::Statistic(const char *Group, const char *Name, const char *Desc)
    : Group(Group), Name(Name), Desc(Desc) {
  std::lock_guard<std::mutex> Lock(registryMutex());
  registry().push_back(this);
}

const std::vector<Statistic *> &iaa::stat::all() { return registry(); }

Statistic *iaa::stat::find(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(registryMutex());
  for (Statistic *S : registry())
    if (Name == S->name())
      return S;
  return nullptr;
}

void iaa::stat::resetAll() {
  std::lock_guard<std::mutex> Lock(registryMutex());
  for (Statistic *S : registry())
    S->reset();
}

std::string iaa::stat::table(bool IncludeZero) {
  std::lock_guard<std::mutex> Lock(registryMutex());
  std::string Out = "=== Statistics ===\n";
  for (const Statistic *S : sortedRegistry()) {
    if (!IncludeZero && S->value() == 0)
      continue;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%12llu %-10s %-32s %s\n",
                  static_cast<unsigned long long>(S->value()), S->group(),
                  S->name(), S->desc());
    Out += Buf;
  }
  return Out;
}

std::string iaa::stat::json() {
  std::lock_guard<std::mutex> Lock(registryMutex());
  std::string Out = "{";
  bool First = true;
  for (const Statistic *S : sortedRegistry()) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  " +
           json::str(std::string(S->group()) + "." + S->name()) + ": " +
           std::to_string(S->value());
  }
  Out += "\n}";
  return Out;
}
