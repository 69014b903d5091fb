//===- tests/test_daemon.cpp - Compile-service daemon tests ---------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//
///
/// The mfpard compile service end to end: protocol fuzzing (malformed,
/// truncated, oversized, and type-confused frames must come back as
/// structured errors, never a crash), artifact-cache key correctness (same
/// program under different flags must miss; an edited program must not
/// reuse stale plans), per-session state isolation, and a concurrent soak
/// that interleaves healthy, faulting, deadline-blowing, and over-budget
/// requests across many clients — the daemon must survive all of it and
/// healthy results must be bit-identical to a one-shot in-process run.
///
/// Suite names here start with "Daemon" or "Session" so the CI
/// ThreadSanitizer job's --gtest_filter picks them up.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Interpreter.h"
#include "server/ArtifactCache.h"
#include "server/Client.h"
#include "server/Daemon.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "server/Watchdog.h"
#include "support/Json.h"
#include "xform/Parallelizer.h"

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace iaa;
using namespace iaa::server;

namespace {

/// A parallelizable irregular scatter with a deterministic result. The
/// \p Label lands in a comment, so differently-labeled copies hash to
/// different artifacts while computing the same values.
std::string healthySource(const std::string &Label = "t") {
  return "program p\n"
         "  ! " + Label + "\n"
         "  integer i, idx(2000)\n"
         "  real x(2000), y(2000)\n"
         "  fill: do i = 1, 2000\n"
         "    idx(i) = 2001 - i\n"
         "    y(i) = i * 0.5\n"
         "  end do\n"
         "  sc: do i = 1, 2000\n"
         "    x(idx(i)) = y(i) * 2.0 + 1.0\n"
         "  end do\n"
         "end\n";
}

/// 8M iterations over a 64 MB array: always outlives a small deadline and
/// always overflows a 1 MB memory budget (at allocation, before any
/// iteration runs).
const char *bigSource() {
  return "program p\n"
         "  integer i\n"
         "  real x(8000000)\n"
         "  lp: do i = 1, 8000000\n"
         "    x(i) = i * 1.0\n"
         "  end do\n"
         "end\n";
}

/// Scatters through an index array poisoned past the bound: a genuine
/// program bug that faults under any fault policy.
const char *oobSource() {
  return "program p\n"
         "  integer i, idx(100)\n"
         "  real x(100)\n"
         "  fill: do i = 1, 100\n"
         "    idx(i) = i\n"
         "  end do\n"
         "  idx(50) = 400\n"
         "  sc: do i = 1, 100\n"
         "    x(idx(i)) = i * 1.0\n"
         "  end do\n"
         "end\n";
}

/// An affine loop the pipeline certifies parallel that still runs out of
/// bounds at runtime: the fault is trapped mid-chunk, rolled back, and
/// replayed — producing a FaultReplay containment remark. Big enough
/// (100k iterations) to clear the MinParallelWork serial-dispatch cutoff.
const char *parallelOobSource() {
  return "program p\n"
         "  integer i\n"
         "  real x(100000)\n"
         "  sc: do i = 1, 100000\n"
         "    x(i + 50000) = i * 1.0\n"
         "  end do\n"
         "end\n";
}

std::string requestLine(const std::string &Id, const std::string &Op,
                        const std::string &Source,
                        const std::string &Extra = "") {
  std::string L = "{\"id\": " + json::str(Id) + ", \"op\": " + json::str(Op);
  if (!Source.empty())
    L += ", \"source\": " + json::str(Source);
  if (!Extra.empty())
    L += ", " + Extra;
  return L + "}";
}

/// The checksum a one-shot in-process run (the mfpar code path) produces
/// for \p Source under the daemon's default request options.
double referenceChecksum(const std::string &Source) {
  std::unique_ptr<mf::Program> P = test::parseOrDie(Source);
  xform::PipelineResult R = xform::parallelize(*P, xform::PipelineMode::Full);
  interp::Interpreter I(*P);
  interp::ExecOptions Opts;
  Opts.Plans = &R;
  Opts.Threads = 4;
  Opts.Simulate = true;
  interp::Memory Mem = I.run(Opts);
  EXPECT_FALSE(I.faultState().Faulted);
  return Mem.checksumExcluding(interp::deadPrivateIds(R));
}

std::string uniqueSocketPath(const char *Tag) {
  return "/tmp/iaa_daemon_test_" + std::to_string(::getpid()) + "_" + Tag +
         ".sock";
}

/// A Session wired to freshly-owned service machinery, for tests that
/// exercise sessions without a socket.
struct SessionHarness {
  ArtifactCache Artifacts;
  Watchdog Deadlines;
  interp::WorkerPool Pool{2};
  ServiceCounters Counters;
  std::atomic<bool> ShutdownFlag{false};

  SessionEnv env(size_t MaxRequestBytes = 1 << 20) {
    SessionEnv E;
    E.Artifacts = &Artifacts;
    E.Deadlines = &Deadlines;
    E.SharedPool = &Pool;
    E.Counters = &Counters;
    E.ShutdownFlag = &ShutdownFlag;
    E.MaxRequestBytes = MaxRequestBytes;
    return E;
  }
};

/// Feeds \p Line through a session and demands a well-formed single-line
/// JSON object with the given status in response.
void expectStatus(Session &S, const std::string &Line,
                  const std::string &Status) {
  std::string Out = S.handleLine(Line);
  ASSERT_EQ(Out.find('\n'), std::string::npos) << Out;
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value()) << "unparseable response: " << Out;
  ASSERT_TRUE(V->isObject()) << Out;
  const json::Value *St = V->member("status");
  ASSERT_NE(St, nullptr) << Out;
  EXPECT_EQ(St->S, Status) << "for request: " << Line << "\nresponse: "
                           << Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol fuzzing
//===----------------------------------------------------------------------===//

TEST(DaemonProtocol, MalformedFramesAreStructuredErrors) {
  SessionHarness H;
  Session S(H.env());
  const char *Bad[] = {
      "",
      "{",
      "}",
      "not json at all",
      "123",
      "\"just a string\"",
      "[1, 2, 3]",
      "null",
      "true",
      "{}",
      "{\"op\": 42}",
      "{\"op\": \"frobnicate\"}",
      "{\"op\": \"run\"}",
      "{\"op\": \"compile\"}",
      "{\"op\": \"run\", \"source\": 17}",
      "{\"op\": \"run\", \"source\": [\"a\"]}",
      "{\"op\": \"run\", \"source\": \"program p\\nend\\n\", \"id\": []}",
      "{\"op\": \"run\", \"source\": \"x\", \"threads\": 0}",
      "{\"op\": \"run\", \"source\": \"x\", \"threads\": 100000}",
      "{\"op\": \"run\", \"source\": \"x\", \"threads\": 2.5}",
      "{\"op\": \"run\", \"source\": \"x\", \"threads\": -4}",
      "{\"op\": \"run\", \"source\": \"x\", \"mode\": \"bogus\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"schedule\": \"gided\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"engine\": \"jit\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"engine\": \"interp\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"locality\": \"maybe\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"audit\": \"sometimes\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"deadline_ms\": -1}",
      "{\"op\": \"run\", \"source\": \"x\", \"deadline_ms\": 1e300}",
      "{\"op\": \"run\", \"source\": \"x\", \"deadline_ms\": \"soon\"}",
      "{\"op\": \"run\", \"source\": \"x\", \"mem_limit_mb\": -9}",
      "{\"op\": \"run\", \"source\": \"x\", \"profile\": \"yes\"}",
      "{\"op\": \"run\", \"source\": \"x\"} trailing garbage",
  };
  for (const char *Line : Bad)
    expectStatus(S, Line, "error");
  // The session stayed usable through all of it.
  expectStatus(S, "{\"op\": \"ping\"}", "pong");
}

TEST(DaemonProtocol, AbortFaultActionIsRefused) {
  // A tenant must not be able to bring the whole service down; the abort
  // policy is rejected at the protocol boundary, not deep in the run.
  SessionHarness H;
  Session S(H.env());
  expectStatus(S,
               requestLine("a", "run", healthySource(),
                           "\"on_fault\": \"abort\""),
               "error");
  expectStatus(S,
               requestLine("a", "run", healthySource(),
                           "\"on_fault\": \"report\""),
               "ok");
}

TEST(DaemonProtocol, UnknownFieldsAreRejected) {
  // A member outside the grammar is an error, never silently ignored: a
  // misspelled deadline would otherwise run with no deadline at all, and
  // a retired field would quietly stop meaning anything.
  SessionHarness H;
  Session S(H.env());
  const std::pair<const char *, const char *> Cases[] = {
      {"deadline_m", "\"deadline_m\": 50"},
      {"locality", "\"locality\": \"off\""},
      {"schedule", "\"schedule\": \"static\""},
      {"chunk", "\"chunk\": 4"},
      {"trace", "\"trace\": true"},
  };
  for (const auto &[Field, Extra] : Cases) {
    std::string Out =
        S.handleLine(requestLine("u", "run", healthySource(), Extra));
    std::optional<json::Value> V = json::parse(Out);
    ASSERT_TRUE(V.has_value()) << Out;
    EXPECT_EQ(V->member("status")->S, "error") << Out;
    const json::Value *Error = V->member("error");
    ASSERT_NE(Error, nullptr) << Field << " was accepted: " << Out;
    EXPECT_EQ(Error->S, "unknown field '" + std::string(Field) + "'") << Out;
  }
  // The same source with only grammar fields runs, and so does a frame
  // with exactly the field set perfbench's daemon pass sends.
  expectStatus(S, requestLine("u", "run", healthySource(),
                              "\"deadline_ms\": 60000"),
               "ok");
  expectStatus(S, requestLine("p", "run", healthySource(),
                              "\"mode\": \"full\", \"audit\": \"warn\", "
                              "\"engine\": \"vm\", \"runtime_checks\": true, "
                              "\"on_fault\": \"replay\", \"threads\": 4, "
                              "\"simulate\": false"),
               "ok");
}

TEST(DaemonProtocol, TruncatedFramesNeverCrash) {
  SessionHarness H;
  Session S(H.env());
  std::string Full = requestLine("t", "run", healthySource(),
                                 "\"counters\": true, \"remarks\": true");
  // Every prefix of a valid frame: either a structured error or (for the
  // rare prefix that is itself valid JSON) a normal response.
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    std::string Out = S.handleLine(Full.substr(0, Len));
    std::optional<json::Value> V = json::parse(Out);
    ASSERT_TRUE(V.has_value()) << Out;
    ASSERT_NE(V->member("status"), nullptr) << Out;
  }
  expectStatus(S, Full, "ok");
}

TEST(DaemonProtocol, OversizedFrameIsBounded) {
  SessionHarness H;
  Session S(H.env(/*MaxRequestBytes=*/256));
  std::string Huge = requestLine("h", "run", std::string(4096, 'x'));
  std::string Out = S.handleLine(Huge);
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->member("status")->S, "error");
  EXPECT_NE(V->member("error")->S.find("exceeds"), std::string::npos)
      << Out;
  // A frame just under the bound goes through normally.
  expectStatus(S, "{\"op\": \"ping\"}", "pong");
}

TEST(DaemonProtocol, OversizedStreamIsDiscardedUntilResync) {
  // A client streaming past the frame bound with no newline gets exactly
  // one structured error when the bound is crossed; everything after that
  // is discarded (not buffered — the daemon's memory stays bounded) until
  // the newline resynchronizes the stream, after which the connection
  // serves normally again.
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath("stream");
  Config.ServiceThreads = 1;
  Config.MaxRequestBytes = 512;
  Daemon D(Config);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connect(Config.SocketPath, &Err)) << Err;
  std::string Junk(1024, 'x');
  ASSERT_TRUE(Cl.sendRaw(Junk, &Err)) << Err;
  std::string Out;
  ASSERT_TRUE(Cl.readLine(Out, &Err)) << Err;
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  EXPECT_EQ(V->member("status")->S, "error");
  EXPECT_NE(V->member("error")->S.find("exceeds"), std::string::npos)
      << Out;

  // 64 KB more of the same frame: were the daemon still buffering (or
  // re-answering), these sends would eventually stall against a reader
  // that stopped draining, and the ping below would see stale errors.
  for (int I = 0; I < 64; ++I)
    ASSERT_TRUE(Cl.sendRaw(Junk, &Err)) << Err;
  ASSERT_TRUE(Cl.sendRaw("\n", &Err)) << Err;
  ASSERT_TRUE(Cl.roundTrip("{\"op\": \"ping\", \"id\": \"after\"}", Out,
                           &Err))
      << Err;
  V = json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  EXPECT_EQ(V->member("id")->S, "after");
  EXPECT_EQ(V->member("status")->S, "pong");
  D.stop();
}

TEST(DaemonProtocol, ResponsesEchoTheRequestId) {
  SessionHarness H;
  Session S(H.env());
  std::string Out =
      S.handleLine(requestLine("req-123", "compile", healthySource()));
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->member("id")->S, "req-123");
  // Numeric ids are accepted and echoed as their decimal spelling.
  Out = S.handleLine("{\"op\": \"ping\", \"id\": 7}");
  V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->member("id")->S, "7");
}

TEST(DaemonProtocol, ProfileReplyCarriesParsableJsonl) {
  // A "profile": true run answers with the profiler's JSONL: every line
  // parses, session, loop and health records are all present, and each
  // health record's dispatch tiers sum to its invocations.
  SessionHarness H;
  Session S(H.env());
  std::string Out = S.handleLine(
      requestLine("p", "run", healthySource(), "\"profile\": true"));
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  ASSERT_NE(V->member("status"), nullptr) << Out;
  EXPECT_EQ(V->member("status")->S, "ok") << Out;
  const json::Value *Profile = V->member("profile_jsonl");
  ASSERT_NE(Profile, nullptr) << Out;

  std::set<std::string> Types;
  size_t HealthRecords = 0;
  std::istringstream Lines(Profile->S);
  for (std::string Line; std::getline(Lines, Line);) {
    std::optional<json::Value> R = json::parse(Line);
    ASSERT_TRUE(R.has_value() && R->isObject()) << "unparsable: " << Line;
    const json::Value *Type = R->member("type");
    ASSERT_NE(Type, nullptr) << Line;
    Types.insert(Type->S);
    if (Type->S != "health")
      continue;
    ++HealthRecords;
    const json::Value *Dispatch = R->member("dispatch");
    const json::Value *Invocations = R->member("invocations");
    ASSERT_NE(Dispatch, nullptr) << Line;
    ASSERT_NE(Invocations, nullptr) << Line;
    double Tiers = 0;
    for (const char *Tier : {"static", "conditional", "serial", "replay"}) {
      const json::Value *N = Dispatch->member(Tier);
      ASSERT_NE(N, nullptr) << Tier << " in " << Line;
      Tiers += N->N;
    }
    EXPECT_EQ(Tiers, Invocations->N) << Line;
  }
  EXPECT_EQ(Types, (std::set<std::string>{"session", "loop", "health"}));
  EXPECT_EQ(HealthRecords, 2u) << "one per labeled loop (fill, sc)";
}

//===----------------------------------------------------------------------===//
// Artifact-cache correctness
//===----------------------------------------------------------------------===//

TEST(DaemonCache, SameSourceDifferentFlagsMiss) {
  ArtifactCache Cache;
  std::string Src = healthySource();
  bool Hit = true;
  auto Full = Cache.get(Src, xform::PipelineMode::Full,
                        verify::AuditMode::Off, Hit);
  EXPECT_FALSE(Hit);
  ASSERT_TRUE(Full->ok());

  // Identical key: hit, same artifact object.
  auto Again = Cache.get(Src, xform::PipelineMode::Full,
                         verify::AuditMode::Off, Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(Full.get(), Again.get());

  // Same hash, different pipeline mode: must be a distinct artifact — the
  // NoIAA pipeline produces different plans for the same program.
  auto NoIaa = Cache.get(Src, xform::PipelineMode::NoIAA,
                         verify::AuditMode::Off, Hit);
  EXPECT_FALSE(Hit);
  EXPECT_NE(Full.get(), NoIaa.get());

  // Same hash, different audit mode: also distinct (audits can demote).
  auto Audited = Cache.get(Src, xform::PipelineMode::Full,
                           verify::AuditMode::Strict, Hit);
  EXPECT_FALSE(Hit);
  EXPECT_NE(Full.get(), Audited.get());

  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 3u);
}

TEST(DaemonCache, EditedProgramDoesNotReuseStalePlans) {
  ArtifactCache Cache;
  bool Hit = false;
  auto A = Cache.get(healthySource("v1"), xform::PipelineMode::Full,
                     verify::AuditMode::Off, Hit);
  auto B = Cache.get(healthySource("v2"), xform::PipelineMode::Full,
                     verify::AuditMode::Off, Hit);
  EXPECT_FALSE(Hit);
  ASSERT_TRUE(A->ok());
  ASSERT_TRUE(B->ok());
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(A->Prog.get(), B->Prog.get());
  // Each artifact's plans point into its own program, not the other's.
  EXPECT_NE(&A->Plans, &B->Plans);
}

TEST(DaemonCache, EditedProgramChangesTheResult) {
  // The same session running an edited program must see the new program's
  // values; a stale plan or memory image would reproduce the old checksum.
  SessionHarness H;
  Session S(H.env());
  std::string V1 = "program p\n  integer i\n  real x(10)\n"
                   "  lp: do i = 1, 10\n    x(i) = i * 2.0\n  end do\nend\n";
  std::string V2 = "program p\n  integer i\n  real x(10)\n"
                   "  lp: do i = 1, 10\n    x(i) = i * 3.0\n  end do\nend\n";
  std::string Out1 = S.handleLine(requestLine("v1", "run", V1));
  std::string Out2 = S.handleLine(requestLine("v2", "run", V2));
  std::optional<json::Value> R1 = json::parse(Out1);
  std::optional<json::Value> R2 = json::parse(Out2);
  ASSERT_TRUE(R1 && R2);
  ASSERT_NE(R1->member("checksum"), nullptr) << Out1;
  ASSERT_NE(R2->member("checksum"), nullptr) << Out2;
  EXPECT_EQ(R1->member("checksum")->N, referenceChecksum(V1));
  EXPECT_EQ(R2->member("checksum")->N, referenceChecksum(V2));
  EXPECT_NE(R1->member("checksum")->N, R2->member("checksum")->N);
}

TEST(DaemonCache, ParseFailureIsNegativelyCached) {
  ArtifactCache Cache;
  bool Hit = true;
  auto Bad = Cache.get("program broken\n", xform::PipelineMode::Full,
                       verify::AuditMode::Off, Hit);
  EXPECT_FALSE(Hit);
  EXPECT_FALSE(Bad->ok());
  EXPECT_FALSE(Bad->BuildError.empty());
  auto Again = Cache.get("program broken\n", xform::PipelineMode::Full,
                         verify::AuditMode::Off, Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(Bad.get(), Again.get());
}

TEST(DaemonCache, EvictionKeepsTheCacheBounded) {
  ArtifactCache Cache(/*MaxEntries=*/4);
  bool Hit = false;
  for (int I = 0; I < 16; ++I)
    Cache.get(healthySource("evict" + std::to_string(I)),
              xform::PipelineMode::Full, verify::AuditMode::Off, Hit);
  EXPECT_LE(Cache.size(), 4u);
  // Still functional after evictions.
  auto A = Cache.get(healthySource("evict15"), xform::PipelineMode::Full,
                     verify::AuditMode::Off, Hit);
  EXPECT_TRUE(A->ok());
}

TEST(SessionPrograms, ResidentProgramStateIsBounded) {
  // A long-lived connection cycling through distinct programs must not
  // accumulate a ProgramState (artifact pin + interpreter) per program
  // forever; the per-session map LRU-recycles past its bound, and an
  // evicted program resubmits cleanly with its own values.
  SessionHarness H;
  Session S(H.env());
  auto src = [](int K) {
    return "program p\n  integer i\n  real x(10)\n"
           "  lp: do i = 1, 10\n    x(i) = i * " + std::to_string(K) +
           ".0\n  end do\nend\n";
  };
  const int Distinct = 40;
  for (int K = 1; K <= Distinct; ++K)
    expectStatus(S, requestLine("k" + std::to_string(K), "run", src(K)),
                 "ok");
  EXPECT_LE(S.programCount(), 16u);
  EXPECT_LT(S.programCount(), static_cast<size_t>(Distinct));

  std::string Out = S.handleLine(requestLine("again", "run", src(1)));
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->member("status")->S, "ok") << Out;
  EXPECT_EQ(V->member("checksum")->N, referenceChecksum(src(1)));
}

//===----------------------------------------------------------------------===//
// Session isolation
//===----------------------------------------------------------------------===//

TEST(SessionIsolation, CountersArePerSession) {
  SessionHarness H;
  Session A(H.env());
  Session B(H.env());
  std::string Req =
      requestLine("r", "run", healthySource(), "\"counters\": true");
  // A runs twice, B once; each session's counters must reflect only its
  // own requests even though both share the worker pool and cache.
  A.handleLine(Req);
  std::string OutA = A.handleLine(Req);
  std::string OutB = B.handleLine(Req);
  std::optional<json::Value> VA = json::parse(OutA);
  std::optional<json::Value> VB = json::parse(OutB);
  ASSERT_TRUE(VA && VB);
  const json::Value *CA = VA->member("counters");
  const json::Value *CB = VB->member("counters");
  ASSERT_NE(CA, nullptr) << OutA;
  ASSERT_NE(CB, nullptr) << OutB;
  const json::Value *RunsA = CA->member("interp.interp_runs");
  const json::Value *RunsB = CB->member("interp.interp_runs");
  ASSERT_NE(RunsA, nullptr);
  ASSERT_NE(RunsB, nullptr);
  EXPECT_EQ(RunsA->N, 2.0);
  EXPECT_EQ(RunsB->N, 1.0);
}

TEST(SessionIsolation, FaultRemarksStayInTheFaultingSession) {
  // Fault remarks reach a client only in the reply to the run that
  // faulted: the faulting reply carries its replay remark, and a clean
  // run in another session, sharing the pool and cache, carries none.
  SessionHarness H;
  Session Faulty(H.env());
  Session Clean(H.env());
  std::string FOut = Faulty.handleLine(requestLine(
      "f", "run", parallelOobSource(), "\"remarks\": true"));
  std::string COut = Clean.handleLine(
      requestLine("c", "run", healthySource(), "\"remarks\": true"));
  std::optional<json::Value> FV = json::parse(FOut);
  std::optional<json::Value> CV = json::parse(COut);
  ASSERT_TRUE(FV && CV);
  const json::Value *FRemarks = FV->member("remarks_jsonl");
  const json::Value *CRemarks = CV->member("remarks_jsonl");
  ASSERT_NE(FRemarks, nullptr) << FOut;
  ASSERT_NE(CRemarks, nullptr) << COut;
  EXPECT_NE(FRemarks->S.find("\"kind\": \"fault-replay\""),
            std::string::npos)
      << "faulting reply lacks its fault remark: " << FOut;
  EXPECT_EQ(CRemarks->S.find("fault"), std::string::npos)
      << "clean session leaked the faulting session's remarks: " << COut;
}

TEST(SessionIsolation, FaultDoesNotPoisonSubsequentRuns) {
  // One session, alternating faulting and healthy requests: the write-set
  // rollback must leave each fresh run's memory image untouched.
  SessionHarness H;
  Session S(H.env());
  double Want = referenceChecksum(healthySource());
  for (int I = 0; I < 3; ++I) {
    std::string FOut = S.handleLine(requestLine("f", "run", oobSource()));
    std::optional<json::Value> FV = json::parse(FOut);
    ASSERT_TRUE(FV.has_value());
    EXPECT_EQ(FV->member("status")->S, "fault");
    EXPECT_EQ(FV->member("exit_equivalent")->N, 4.0);

    std::string HOut =
        S.handleLine(requestLine("h", "run", healthySource()));
    std::optional<json::Value> HV = json::parse(HOut);
    ASSERT_TRUE(HV.has_value());
    ASSERT_EQ(HV->member("status")->S, "ok") << HOut;
    EXPECT_EQ(HV->member("checksum")->N, Want);
  }
}

//===----------------------------------------------------------------------===//
// Daemon over a real socket
//===----------------------------------------------------------------------===//

TEST(DaemonSoak, ConcurrentMixedWorkload) {
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath("soak");
  Config.PoolThreads = 4;
  Config.ServiceThreads = 8;
  Config.QueueCap = 64;
  Daemon D(Config);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;

  const unsigned Clients = 8;
  const unsigned Rounds = 3;
  std::vector<std::vector<std::string>> Failures(Clients);
  std::vector<std::thread> Threads;
  std::vector<double> WantChecksum(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    WantChecksum[C] =
        referenceChecksum(healthySource("client" + std::to_string(C)));

  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      auto fail = [&](const std::string &Why) {
        Failures[C].push_back(Why);
      };
      Client Cl;
      std::string E;
      if (!Cl.connect(Config.SocketPath, &E)) {
        fail("connect: " + E);
        return;
      }
      std::string Mine = healthySource("client" + std::to_string(C));
      for (unsigned R = 0; R < Rounds; ++R) {
        struct Step {
          std::string Id;
          std::string Line;
          std::string WantStatus;
          int WantExit; // -1: not a fault
        };
        std::string Tag =
            "c" + std::to_string(C) + "-r" + std::to_string(R);
        Step Steps[] = {
            {Tag + "-ok", requestLine(Tag + "-ok", "run", Mine), "ok", -1},
            {Tag + "-oob", requestLine(Tag + "-oob", "run", oobSource()),
             "fault", 4},
            {Tag + "-dl",
             requestLine(Tag + "-dl", "run", bigSource(),
                         "\"deadline_ms\": 5"),
             "fault", 5},
            {Tag + "-mem",
             requestLine(Tag + "-mem", "run", bigSource(),
                         "\"mem_limit_mb\": 1"),
             "fault", 6},
        };
        for (const Step &St : Steps) {
          std::string Out;
          if (!Cl.roundTrip(St.Line, Out, &E)) {
            fail(St.Id + ": round trip: " + E);
            return;
          }
          std::optional<json::Value> V = json::parse(Out);
          if (!V || !V->isObject()) {
            fail(St.Id + ": unparseable response: " + Out);
            continue;
          }
          const json::Value *Id = V->member("id");
          const json::Value *Status = V->member("status");
          if (!Id || Id->S != St.Id)
            fail(St.Id + ": wrong id in: " + Out);
          if (!Status || Status->S != St.WantStatus) {
            fail(St.Id + ": wrong status in: " + Out);
            continue;
          }
          if (St.WantExit >= 0) {
            const json::Value *Exit = V->member("exit_equivalent");
            if (!Exit || Exit->N != St.WantExit)
              fail(St.Id + ": wrong exit_equivalent in: " + Out);
          } else {
            const json::Value *Sum = V->member("checksum");
            if (!Sum || Sum->N != WantChecksum[C])
              fail(St.Id + ": checksum mismatch in: " + Out);
          }
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C < Clients; ++C)
    for (const std::string &Why : Failures[C])
      ADD_FAILURE() << "client " << C << ": " << Why;

  // The daemon survived the storm: a fresh connection still gets served.
  Client After;
  std::string Out;
  ASSERT_TRUE(After.connect(Config.SocketPath, &Err)) << Err;
  ASSERT_TRUE(After.roundTrip("{\"op\": \"ping\", \"id\": \"post\"}", Out,
                              &Err))
      << Err;
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->member("status")->S, "pong");

  // And its own accounting saw the faults without counting them as deaths.
  ASSERT_TRUE(
      After.roundTrip("{\"op\": \"stats\", \"id\": \"st\"}", Out, &Err))
      << Err;
  V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  const json::Value *Service = V->member("service");
  ASSERT_NE(Service, nullptr) << Out;
  EXPECT_GE(Service->member("requests")->N, Clients * Rounds * 4.0);
  EXPECT_GE(Service->member("faults")->N, Clients * Rounds * 3.0);
  EXPECT_GE(Service->member("deadlines_fired")->N, 1.0);

  D.stop();
  EXPECT_FALSE(D.running());
}

TEST(DaemonSoak, ConnectionsAreServedWhileWaitForShutdownParks) {
  // mfpard's main thread parks in waitForShutdown() for the daemon's whole
  // life. Shutdown waiters must not share the service threads' condition
  // variable: when they did, the acceptor's notify_one for a freshly
  // queued connection could wake the parked waiter instead of a service
  // thread — the waiter re-checked its predicate and slept again, the
  // notification was consumed, and the connection sat unserved in the
  // queue (with one service thread, a coin flip per connection). Thirty
  // fresh connections make a regression essentially certain to trip the
  // recv timeout below.
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath("parked");
  Config.ServiceThreads = 1;
  Daemon D(Config);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;

  std::atomic<bool> Parked{false}, Woke{false};
  std::thread Waiter([&] {
    Parked.store(true);
    D.waitForShutdown();
    Woke.store(true);
  });
  while (!Parked.load())
    std::this_thread::yield();

  for (int I = 0; I < 30; ++I) {
    Client Cl;
    std::string Out;
    ASSERT_TRUE(Cl.connect(Config.SocketPath, &Err)) << Err;
    ASSERT_TRUE(Cl.setRecvTimeoutMs(5000, &Err)) << Err;
    ASSERT_TRUE(Cl.roundTrip("{\"op\": \"ping\", \"id\": \"p" +
                                 std::to_string(I) + "\"}",
                             Out, &Err))
        << "connection " << I << " stranded: " << Err;
    std::optional<json::Value> V = json::parse(Out);
    ASSERT_TRUE(V.has_value()) << Out;
    EXPECT_EQ(V->member("status")->S, "pong");
  }

  // A shutdown request must still reach the parked waiter.
  Client Cl;
  std::string Out;
  ASSERT_TRUE(Cl.connect(Config.SocketPath, &Err)) << Err;
  ASSERT_TRUE(Cl.setRecvTimeoutMs(5000, &Err)) << Err;
  ASSERT_TRUE(Cl.roundTrip("{\"op\": \"shutdown\", \"id\": \"bye\"}", Out,
                           &Err))
      << Err;
  Waiter.join();
  EXPECT_TRUE(Woke.load());
  D.stop();
}

TEST(DaemonSoak, ShutdownRequestStopsTheDaemon) {
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath("shutdown");
  Config.ServiceThreads = 2;
  Daemon D(Config);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;

  Client Cl;
  std::string Out;
  ASSERT_TRUE(Cl.connect(Config.SocketPath, &Err)) << Err;
  ASSERT_TRUE(Cl.roundTrip("{\"op\": \"shutdown\", \"id\": \"bye\"}", Out,
                           &Err))
      << Err;
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->member("status")->S, "bye");
  EXPECT_TRUE(D.waitForShutdown(5000));
  D.stop();
}

TEST(DaemonSoak, OverloadShedsWithRetryAfter) {
  // QueueCap 0: every connection is shed at accept time with a structured
  // backoff hint — bounded degradation, not an unbounded connection queue.
  DaemonConfig Config;
  Config.SocketPath = uniqueSocketPath("shed");
  Config.ServiceThreads = 1;
  Config.QueueCap = 0;
  Config.RetryAfterMs = 75;
  Daemon D(Config);
  std::string Err;
  ASSERT_TRUE(D.start(&Err)) << Err;

  Client Cl;
  std::string Out;
  ASSERT_TRUE(Cl.connect(Config.SocketPath, &Err)) << Err;
  ASSERT_TRUE(Cl.readLine(Out, &Err)) << Err;
  std::optional<json::Value> V = json::parse(Out);
  ASSERT_TRUE(V.has_value()) << Out;
  EXPECT_EQ(V->member("status")->S, "shed");
  ASSERT_NE(V->member("retry_after_ms"), nullptr) << Out;
  EXPECT_EQ(V->member("retry_after_ms")->N, 75.0);
  EXPECT_GE(D.counters().Shed.load(), 1u);
  D.stop();
}

