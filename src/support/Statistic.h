//===- support/Statistic.h - Named global counters --------------*- C++ -*-===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style named statistics: cheap, thread-safe counters registered in a
/// global registry and dumpable as a table or JSON. A translation unit
/// defines its group once and declares counters at namespace scope:
///
/// \code
///   #define IAA_STAT_GROUP "bdfs"
///   IAA_STAT(bdfs_nodes_visited, "Nodes visited by the bounded DFS");
///   ...
///   ++bdfs_nodes_visited;
/// \endcode
///
/// Increments are relaxed atomics, safe from interpreter worker threads.
/// stat::resetAll() zeroes every counter so per-pipeline-run deltas can be
/// measured (the mfpar --stats flag and the observability tests rely on
/// this).
///
/// Multi-tenant processes (the mfpard daemon) cannot share one registry of
/// process-wide counters: request A's inspections would show up in request
/// B's report. A stat::Collector is the per-session overlay — installed
/// thread-locally via CollectorScope, it additionally receives every
/// increment made on the installing thread, so a session can report
/// exactly the counter deltas its own requests produced while the global
/// registry keeps its process-wide totals. Pool workers install no
/// collector: the VM chunks and inspection scans they run increment no
/// statistic (a traced process's trace_dropped aside).
///
//===----------------------------------------------------------------------===//

#ifndef IAA_SUPPORT_STATISTIC_H
#define IAA_SUPPORT_STATISTIC_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace iaa {
namespace stat {

class Statistic;

/// Per-session counter overlay: accumulates the deltas of every increment
/// made while the collector is installed (CollectorScope / currentCollector)
/// on the incrementing thread. Thread-safe, so a reader may snapshot it
/// while its session increments.
class Collector {
public:
  /// Adds \p N to this collector's delta for \p S.
  void note(const Statistic *S, uint64_t N);

  /// This collector's delta for the statistic named \p Name (0 when never
  /// incremented here).
  uint64_t value(const std::string &Name) const;

  /// All nonzero deltas as "group.name" -> delta, sorted.
  std::map<std::string, uint64_t> snapshot() const;

  /// One JSON object {"group.name": delta, ...} over the nonzero deltas.
  std::string json() const;

  /// Drops every delta.
  void clear();

private:
  mutable std::mutex M;
  std::unordered_map<const Statistic *, uint64_t> Counts;
};

/// The collector installed on this thread, or null. The thread-local
/// behind it is private to Statistic.cpp, which does every read and write
/// (see there for why).
Collector *currentCollector();

/// RAII installation of a per-session collector on the current thread.
/// Nests: the previous collector is restored on destruction. Installing
/// null is a no-op overlay (increments go only to the global registry).
class CollectorScope {
public:
  explicit CollectorScope(Collector *C);
  ~CollectorScope();

  CollectorScope(const CollectorScope &) = delete;
  CollectorScope &operator=(const CollectorScope &) = delete;

private:
  Collector *Prev;
};

/// One named counter. Construction registers it globally; instances must
/// have static storage duration (the registry keeps raw pointers).
class Statistic {
public:
  Statistic(const char *Group, const char *Name, const char *Desc);

  const char *group() const { return Group; }
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }

  uint64_t value() const { return Count.load(std::memory_order_relaxed); }
  void reset() { Count.store(0, std::memory_order_relaxed); }

  Statistic &operator++() { return *this += 1; }
  Statistic &operator+=(uint64_t N) {
    Count.fetch_add(N, std::memory_order_relaxed);
    if (Collector *C = currentCollector())
      C->note(this, N);
    return *this;
  }

private:
  const char *Group;
  const char *Name;
  const char *Desc;
  std::atomic<uint64_t> Count{0};
};

/// Every registered statistic, in registration order.
const std::vector<Statistic *> &all();

/// The statistic named \p Name (unique across groups by convention), or
/// null.
Statistic *find(const std::string &Name);

/// Zeroes every registered counter.
void resetAll();

/// Human-readable table of all nonzero counters (all counters when
/// \p IncludeZero), sorted by (group, name) so dumps diff cleanly.
std::string table(bool IncludeZero = false);

/// One JSON object {"group.name": value, ...} over all counters, sorted by
/// (group, name).
std::string json();

} // namespace stat
} // namespace iaa

/// Declares a namespace-scope counter registered under IAA_STAT_GROUP.
#define IAA_STAT(VAR, DESC)                                                    \
  static ::iaa::stat::Statistic VAR(IAA_STAT_GROUP, #VAR, DESC)

#endif // IAA_SUPPORT_STATISTIC_H
