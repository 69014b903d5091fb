//===- tests/test_observability.cpp - Stats, trace, and remark tests ------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the observability layer: statistic counters register and
/// accumulate across pipeline runs and reset to zero; the tracer emits
/// well-formed Chrome trace-event JSON (parsed back here) whose spans nest
/// correctly per thread under real multi-threaded interpretation; and the
/// optimization remarks match golden expectations for a known-parallel and
/// a known-serial loop, both as text and as JSONL.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "benchprogs/Benchmarks.h"
#include "interp/Interpreter.h"
#include "support/Json.h"
#include "support/Remarks.h"
#include "support/Statistic.h"
#include "support/Trace.h"
#include "xform/Parallelizer.h"

#include <map>
#include <set>
#include <sstream>
#include <vector>

using namespace iaa;
using namespace iaa::xform;
using iaa::test::parseOrDie;

namespace {

// The paper's Fig. 1(a): x() is consecutively written (established by the
// bounded DFS) and privatizing it parallelizes loop "dok" — the repo's
// known-parallel case.
std::string parallelSource() { return benchprogs::fig1aSource(); }

// A loop-carried flow dependence: provably serial.
const char *SerialSource = R"(program t
  integer i, n
  real x(100)
  n = 100
  ls: do i = 2, n
    x(i) = x(i - 1) + 1.0
  end do
end)";

const Remark *remarkFor(const PipelineResult &R, const std::string &Loop) {
  for (const Remark &M : R.Remarks)
    if (M.Loop == Loop)
      return &M;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(Observability, StatsRegisterIncrementAndReset) {
  stat::resetAll();

  // The acceptance-relevant counters must be registered even before any
  // work runs (namespace-scope constructors).
  ASSERT_NE(stat::find("bdfs_nodes_visited"), nullptr);
  ASSERT_NE(stat::find("prop_cache_hits"), nullptr);
  ASSERT_NE(stat::find("prop_cache_misses"), nullptr);
  ASSERT_NE(stat::find("pipeline_loops_analyzed"), nullptr);
  EXPECT_EQ(stat::find("no_such_counter"), nullptr);

  auto P = parseOrDie(parallelSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  ASSERT_TRUE(R.reportFor("dok") != nullptr);

  stat::Statistic *Loops = stat::find("pipeline_loops_analyzed");
  EXPECT_GT(Loops->value(), 0u);
  EXPECT_GT(stat::find("bdfs_searches")->value(), 0u)
      << "consecutively-written detection runs the bounded DFS";
  EXPECT_GT(stat::find("bdfs_nodes_visited")->value(), 0u);

  // A second run accumulates on top of the first.
  uint64_t After1 = Loops->value();
  auto P2 = parseOrDie(parallelSource());
  parallelize(*P2, PipelineMode::Full);
  EXPECT_EQ(Loops->value(), 2 * After1);

  // DYFESM's indirect accesses (pptr:CFD, iblen:CFB) go through the
  // demand-driven property solver.
  auto P3 = parseOrDie(benchprogs::dyfesm(0.05).Source);
  parallelize(*P3, PipelineMode::Full);
  stat::Statistic *Queries = stat::find("prop_queries");
  ASSERT_NE(Queries, nullptr);
  EXPECT_GT(Queries->value(), 0u);

  // The table shows nonzero counters, and all counters with IncludeZero.
  std::string Table = stat::table();
  EXPECT_NE(Table.find("pipeline_loops_analyzed"), std::string::npos);
  std::string Full = stat::table(/*IncludeZero=*/true);
  EXPECT_NE(Full.find("bdfs_nodes_visited"), std::string::npos);
  EXPECT_NE(Full.find("prop_cache_hits"), std::string::npos);
  EXPECT_NE(Full.find("prop_cache_misses"), std::string::npos);

  // The JSON dump is well-formed and carries the same value.
  auto Doc = json::parse(stat::json());
  ASSERT_TRUE(Doc.has_value());
  ASSERT_TRUE(Doc->isObject());
  const json::Value *V = Doc->member("pipeline.pipeline_loops_analyzed");
  ASSERT_NE(V, nullptr);
  EXPECT_TRUE(V->isNumber());
  EXPECT_EQ(static_cast<uint64_t>(V->N), Loops->value());

  stat::resetAll();
  for (const stat::Statistic *S : stat::all())
    EXPECT_EQ(S->value(), 0u) << S->name();
}

TEST(Observability, StatsDumpsAreSortedByGroupThenName) {
  // --stats output must be deterministic regardless of static-initializer
  // registration order (which varies across link order and toolchains),
  // so dumps from two builds diff cleanly. Both the table and the JSON
  // emit counters sorted by (group, name).
  std::string Full = stat::table(/*IncludeZero=*/true);
  std::vector<std::pair<std::string, std::string>> Seen;
  std::istringstream Rows(Full);
  std::string Line;
  while (std::getline(Rows, Line)) {
    // Counter rows are "<value> <group> <name> <description...>" columns.
    std::istringstream Cols(Line);
    std::string Value, Group, Name;
    if (!(Cols >> Value >> Group >> Name))
      continue;
    if (Value.find_first_not_of("0123456789") != std::string::npos)
      continue; // Header line.
    Seen.emplace_back(Group, Name);
  }
  ASSERT_GT(Seen.size(), 5u) << "expected many registered counters";
  for (size_t I = 1; I < Seen.size(); ++I)
    EXPECT_LT(Seen[I - 1], Seen[I])
        << "table out of order at " << Seen[I - 1].first << "."
        << Seen[I - 1].second << " vs " << Seen[I].first << "."
        << Seen[I].second;

  // JSON object keys "group.name" in document order.
  std::string Json = stat::json();
  std::vector<std::string> Keys;
  for (size_t At = Json.find('"'); At != std::string::npos;
       At = Json.find('"', At + 1)) {
    size_t End = Json.find('"', At + 1);
    ASSERT_NE(End, std::string::npos);
    Keys.push_back(Json.substr(At + 1, End - At - 1));
    At = End;
  }
  ASSERT_GT(Keys.size(), 5u);
  for (size_t I = 1; I < Keys.size(); ++I)
    EXPECT_LT(Keys[I - 1], Keys[I]) << "json keys out of order";
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST(Observability, TraceJsonWellFormedAndNested) {
  trace::clear();
  trace::enable(true);

  auto P = parseOrDie(parallelSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  const LoopReport *Rep = R.reportFor("dok");
  ASSERT_NE(Rep, nullptr);
  ASSERT_TRUE(Rep->Parallel) << Rep->WhyNot;

  // A DYFESM compile adds demand-driven property-query spans to the trace.
  auto PDyfesm = parseOrDie(benchprogs::dyfesm(0.05).Source);
  parallelize(*PDyfesm, PipelineMode::Full);

  // Real threaded execution (not simulated): two workers, no profitability
  // guard, so the parallel loop genuinely forks.
  interp::Interpreter I(*P);
  interp::ExecOptions Opts;
  Opts.Plans = &R;
  Opts.Threads = 2;
  Opts.MinParallelWork = 0;
  I.run(Opts);

  trace::enable(false);
  ASSERT_GT(trace::eventCount(), 0u);

  auto Doc = json::parse(trace::json());
  ASSERT_TRUE(Doc.has_value()) << "trace JSON must parse";
  ASSERT_TRUE(Doc->isObject());
  const json::Value *Events = Doc->member("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->Elems.size(), trace::eventCount());

  struct Span {
    std::string Name;
    double Ts, Dur;
  };
  std::map<double, std::vector<Span>> ByTid;
  std::set<std::string> Names;
  std::set<double> ChunkTids;
  for (const json::Value &E : Events->Elems) {
    ASSERT_TRUE(E.isObject());
    const json::Value *Ph = E.member("ph");
    ASSERT_NE(Ph, nullptr);
    EXPECT_EQ(Ph->S, "X") << "complete events only";
    const json::Value *Name = E.member("name");
    ASSERT_NE(Name, nullptr);
    ASSERT_TRUE(Name->isString());
    const json::Value *Ts = E.member("ts");
    const json::Value *Dur = E.member("dur");
    const json::Value *Pid = E.member("pid");
    const json::Value *Tid = E.member("tid");
    ASSERT_TRUE(Ts && Ts->isNumber());
    ASSERT_TRUE(Dur && Dur->isNumber());
    ASSERT_TRUE(Pid && Pid->isNumber());
    ASSERT_TRUE(Tid && Tid->isNumber());
    EXPECT_GE(Ts->N, 0.0);
    EXPECT_GE(Dur->N, 0.0);
    Names.insert(Name->S);
    ByTid[Tid->N].push_back({Name->S, Ts->N, Dur->N});
    if (Name->S == "chunk")
      ChunkTids.insert(Tid->N);
  }

  // The pipeline, the loop analysis, and the threaded run all left spans.
  EXPECT_TRUE(Names.count("parallelize"));
  EXPECT_TRUE(Names.count("analyze-loop"));
  EXPECT_TRUE(Names.count("dep-test"));
  EXPECT_TRUE(Names.count("property-query"));
  EXPECT_TRUE(Names.count("interp-run"));
  EXPECT_TRUE(Names.count("parallel-loop"));
  EXPECT_TRUE(Names.count("fork-join"));
  EXPECT_TRUE(Names.count("chunk"));
  // The two chunks ran on distinct threads.
  EXPECT_GE(ChunkTids.size(), 2u);

  // Within a thread, RAII spans must nest: any two either disjoint or one
  // containing the other (tolerance for double rounding in the JSON).
  const double Eps = 1e-3;
  for (auto &[Tid, Spans] : ByTid) {
    for (size_t A = 0; A < Spans.size(); ++A)
      for (size_t B = A + 1; B < Spans.size(); ++B) {
        const Span &X = Spans[A], &Y = Spans[B];
        bool Disjoint = X.Ts + X.Dur <= Y.Ts + Eps || Y.Ts + Y.Dur <= X.Ts + Eps;
        bool XInY = Y.Ts <= X.Ts + Eps && X.Ts + X.Dur <= Y.Ts + Y.Dur + Eps;
        bool YInX = X.Ts <= Y.Ts + Eps && Y.Ts + Y.Dur <= X.Ts + X.Dur + Eps;
        EXPECT_TRUE(Disjoint || XInY || YInX)
            << X.Name << " [" << X.Ts << "," << X.Ts + X.Dur << ") vs "
            << Y.Name << " [" << Y.Ts << "," << Y.Ts + Y.Dur << ") on tid "
            << Tid;
      }
  }
  trace::clear();
}

TEST(Observability, TraceDisabledCollectsNothing) {
  trace::clear();
  ASSERT_FALSE(trace::enabled());
  auto P = parseOrDie(SerialSource);
  parallelize(*P, PipelineMode::Full);
  EXPECT_EQ(trace::eventCount(), 0u);

  // A span constructed while disabled stays inactive even if tracing is
  // enabled before it closes (no unbalanced events).
  {
    trace::TraceScope Span("late", "test");
    EXPECT_FALSE(Span.active());
    trace::enable(true);
  }
  trace::enable(false);
  EXPECT_EQ(trace::eventCount(), 0u);
  trace::clear();
}

TEST(Observability, TraceBufferDropsOldestWhenCapped) {
  trace::clear();
  stat::resetAll();
  trace::setMaxEvents(8);
  trace::enable(true);

  for (int I = 0; I < 20; ++I) {
    trace::TraceScope Span("span", "test");
    Span.arg("i", std::to_string(I));
  }
  trace::enable(false);

  // The buffer holds the *newest* 8 events; the 12 oldest were dropped
  // and counted both by the query API and the trace_dropped statistic.
  EXPECT_EQ(trace::eventCount(), 8u);
  EXPECT_EQ(trace::droppedCount(), 12u);
  stat::Statistic *Dropped = stat::find("trace_dropped");
  ASSERT_NE(Dropped, nullptr);
  EXPECT_EQ(Dropped->value(), 12u);
  std::vector<trace::Event> Events = trace::events();
  ASSERT_EQ(Events.size(), 8u);
  EXPECT_EQ(Events.front().Args.at(0).second, "12");
  EXPECT_EQ(Events.back().Args.at(0).second, "19");

  // The JSON document stays well-formed and reports the drop count.
  auto Doc = json::parse(trace::json());
  ASSERT_TRUE(Doc.has_value());
  const json::Value *DroppedField = Doc->member("droppedEvents");
  ASSERT_NE(DroppedField, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(DroppedField->N), 12u);

  // Counter samples ('C' events) flow through the same capped buffer.
  trace::clear();
  trace::enable(true);
  trace::counter("loop-wall-us demo", 0.75);
  trace::enable(false);
  Events = trace::events();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Ph, 'C');
  EXPECT_DOUBLE_EQ(Events[0].Value, 0.75);
  std::string Json = trace::json();
  EXPECT_NE(Json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(Json.find("\"value\""), std::string::npos);

  trace::setMaxEvents(0); // Restore the default cap.
  trace::clear();
  stat::resetAll();
}

//===----------------------------------------------------------------------===//
// Remarks
//===----------------------------------------------------------------------===//

TEST(Observability, RemarksForParallelAndSerialLoops) {
  auto P = parseOrDie(parallelSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  ASSERT_EQ(R.Remarks.size(), R.Loops.size());

  const Remark *Par = remarkFor(R, "dok");
  ASSERT_NE(Par, nullptr);
  EXPECT_EQ(Par->K, Remark::Kind::Parallelized);
  EXPECT_NE(Par->Reason.find("privatized"), std::string::npos)
      << "dok parallelizes by privatizing x: " << Par->Reason;
  // Evidence records the privatization outcome and the property queries.
  bool SawPriv = false, SawQueries = false;
  for (const auto &[Key, Val] : Par->Evidence) {
    if (Key == "priv:x") {
      SawPriv = true;
      EXPECT_NE(Val.find("private"), std::string::npos);
    }
    if (Key == "property-queries")
      SawQueries = true;
  }
  EXPECT_TRUE(SawPriv);
  EXPECT_TRUE(SawQueries);

  auto P2 = parseOrDie(SerialSource);
  PipelineResult R2 = parallelize(*P2, PipelineMode::Full);
  const Remark *Ser = remarkFor(R2, "ls");
  ASSERT_NE(Ser, nullptr);
  EXPECT_EQ(Ser->K, Remark::Kind::Missed);
  const LoopReport *Rep = R2.reportFor("ls");
  ASSERT_NE(Rep, nullptr);
  EXPECT_FALSE(Rep->Parallel);
  EXPECT_EQ(Ser->Reason, Rep->WhyNot) << "remark backs the WhyNot string";
  EXPECT_NE(Ser->Reason.find("x"), std::string::npos)
      << "reason names the offending array";

  // Human-readable rendering mentions both verdicts.
  std::string Text = remarksText(R.Remarks) + remarksText(R2.Remarks);
  EXPECT_NE(Text.find("parallelized"), std::string::npos);
  EXPECT_NE(Text.find("missed"), std::string::npos);
  EXPECT_NE(Text.find("dok"), std::string::npos);
  EXPECT_NE(Text.find("ls"), std::string::npos);
}

TEST(Observability, RemarksJsonlParsesLineByLine) {
  auto P = parseOrDie(parallelSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  std::string Jsonl = remarksJsonl(R.Remarks);

  size_t Lines = 0, Pos = 0;
  while (Pos < Jsonl.size()) {
    size_t End = Jsonl.find('\n', Pos);
    ASSERT_NE(End, std::string::npos) << "every record is newline-terminated";
    std::string Line = Jsonl.substr(Pos, End - Pos);
    Pos = End + 1;
    ++Lines;
    auto Doc = json::parse(Line);
    ASSERT_TRUE(Doc.has_value()) << Line;
    ASSERT_TRUE(Doc->isObject());
    const json::Value *Loop = Doc->member("loop");
    const json::Value *Kind = Doc->member("kind");
    const json::Value *Reason = Doc->member("reason");
    const json::Value *Evidence = Doc->member("evidence");
    ASSERT_TRUE(Loop && Loop->isString());
    ASSERT_TRUE(Kind && Kind->isString());
    EXPECT_TRUE(Kind->S == "parallelized" || Kind->S == "missed");
    ASSERT_TRUE(Reason && Reason->isString());
    ASSERT_TRUE(Evidence && Evidence->isObject());
  }
  EXPECT_EQ(Lines, R.Remarks.size());
}

//===----------------------------------------------------------------------===//
// Phase timings
//===----------------------------------------------------------------------===//

TEST(Observability, PipelinePhaseSeconds) {
  auto P = parseOrDie(parallelSource());
  PipelineResult R = parallelize(*P, PipelineMode::Full);
  std::set<std::string> Phases;
  for (const auto &[Name, Secs] : R.PhaseSeconds) {
    EXPECT_GE(Secs, 0.0) << Name;
    EXPECT_TRUE(Phases.insert(Name).second) << "duplicate phase " << Name;
  }
  for (const char *Expected :
       {"normalize", "induction-subst", "const-prop", "forward-subst", "dce",
        "hcg-build", "loop-analysis", "property-analysis"})
    EXPECT_TRUE(Phases.count(Expected)) << Expected;
}

} // namespace
