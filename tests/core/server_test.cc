// The serve loop's failure-model contract: every request line gets
// exactly one reply line, malformed input produces error replies (never
// a crash or a dropped connection), deadlines degrade verdicts with the
// right stop reason, and the bounded queue sheds or backpressures as
// configured.

#include "core/server.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/stats.h"

namespace hornsafe {
namespace {

constexpr char kSafeProgram[] =
    ".infinite t/2.\n"
    ".fd t: 2 -> 1.\n"
    "r(X) :- t(X,Y), r(Y), a(Y).\n"
    "r(X) :- b(X).\n"
    "?- r(X).\n";

constexpr char kHardProgram[] =
    ".infinite t/2.\n"
    ".fd t: 2 -> 1.\n"
    ".infinite t2/2.\n"
    "p(X1,X2) :- p(X1,X2), t(X1,Y1), t(X2,Y2).\n"
    "p(X1,X2) :- t2(X1,Z1), t2(X2,Z2).\n"
    "?- p(X1,X2).\n";

Json MustParseReply(const std::string& line) {
  Result<Json> parsed = Json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << "unparsable reply: " << line;
  return parsed.ok() ? *parsed : Json();
}

std::string CheckRequest(int id, const std::string& program,
                         int64_t deadline_ms = -1) {
  Json req = Json::Object();
  req.Set("id", int64_t{id});
  req.Set("method", "check");
  req.Set("program", program);
  if (deadline_ms >= 0) req.Set("deadline_ms", deadline_ms);
  return req.Dump();
}

TEST(ServerTest, CheckReturnsVerdicts) {
  Server server(ServerOptions{});
  Json reply = MustParseReply(server.HandleLine(CheckRequest(1, kSafeProgram)));
  EXPECT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  EXPECT_EQ(reply["id"].AsInt(), 1);
  const Json& queries = reply["result"]["queries"];
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries.items()[0]["safety"].AsString(), "safe");
  const Json& args = queries.items()[0]["args"];
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(args.items()[0]["safety"].AsString(), "safe");
  EXPECT_EQ(args.items()[0]["stop"].AsString(), "none");
}

TEST(ServerTest, ExplainIncludesExplanations) {
  Server server(ServerOptions{});
  Json req = Json::Object();
  req.Set("id", int64_t{2});
  req.Set("method", "explain");
  req.Set("program", kSafeProgram);
  Json reply = MustParseReply(server.HandleLine(req.Dump()));
  ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  const Json& arg =
      reply["result"]["queries"].items()[0]["args"].items()[0];
  EXPECT_TRUE(arg.Has("explanation"));
}

TEST(ServerTest, MalformedRequestsGetErrorRepliesNotCrashes) {
  Server server(ServerOptions{});
  const char* kBad[] = {
      "not json at all",
      "{\"no\": \"method\"}",
      "{\"method\": 42}",
      "{\"method\": \"frobnicate\"}",
      "{\"method\": \"update\"}",                        // missing program
      "{\"method\": \"check\", \"program\": \"( syntax error\"}",
      "[1,2,3]",                                         // not an object
      "{\"method\": \"check\", \"program\": \"p(X) :- q(X.\"}",
  };
  for (const char* line : kBad) {
    Json reply = MustParseReply(server.HandleLine(line));
    EXPECT_FALSE(reply["ok"].AsBool()) << line;
    EXPECT_TRUE(reply["error"]["message"].is_string()) << line;
  }
  // The server still works after the barrage.
  Json reply = MustParseReply(server.HandleLine(CheckRequest(9, kSafeProgram)));
  EXPECT_TRUE(reply["ok"].AsBool());
  EXPECT_EQ(server.counters().errors, 8u);
}

TEST(ServerTest, OverlongArityIsAnErrorReplyNotAnAbort) {
  // 65 arguments exceeds AttrSet::kMaxAttrs; Program::Validate must
  // turn this into a clean error reply (under NDEBUG the old assert
  // would have been skipped and the analysis would corrupt masks).
  std::string head = "wide(";
  for (int i = 0; i < 65; ++i) head += (i ? ",X" : "X") + std::to_string(i);
  head += ")";
  std::string program = head + " :- base(X0).\n?- " + head + ".\n";
  Server server(ServerOptions{});
  Json reply = MustParseReply(server.HandleLine(CheckRequest(1, program)));
  EXPECT_FALSE(reply["ok"].AsBool());
  EXPECT_NE(reply["error"]["message"].AsString().find("arity"),
            std::string::npos)
      << reply.Dump();
}

TEST(ServerTest, ExpiredDeadlineDegradesToUndecidedDeadline) {
  Server server(ServerOptions{});
  // Install the program with no deadline (the build itself needs time),
  // then check under an already-expired one.
  Json install = Json::Object();
  install.Set("id", int64_t{1});
  install.Set("method", "update");
  install.Set("program", kHardProgram);
  Json installed = MustParseReply(server.HandleLine(install.Dump()));
  ASSERT_TRUE(installed["ok"].AsBool()) << installed.Dump();

  Json check = Json::Object();
  check.Set("id", int64_t{2});
  check.Set("method", "check");
  check.Set("deadline_ms", int64_t{0});
  Json reply = MustParseReply(server.HandleLine(check.Dump()));
  ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  const Json& args = reply["result"]["queries"].items()[0]["args"];
  ASSERT_GE(args.size(), 1u);
  for (const Json& arg : args.items()) {
    EXPECT_EQ(arg["safety"].AsString(), "undecided");
    EXPECT_EQ(arg["stop"].AsString(), "deadline");
  }

  // Without the deadline the same query resolves for real.
  Json check2 = Json::Object();
  check2.Set("id", int64_t{3});
  check2.Set("method", "check");
  Json reply2 = MustParseReply(server.HandleLine(check2.Dump()));
  ASSERT_TRUE(reply2["ok"].AsBool());
  for (const Json& arg :
       reply2["result"]["queries"].items()[0]["args"].items()) {
    EXPECT_EQ(arg["stop"].AsString(), "none") << reply2.Dump();
  }
}

TEST(ServerTest, ExpiredDeadlineDoesNotPoisonLaterRequests) {
  // Regression: the exec context must be reinstalled per request.  A
  // check whose deadline had already expired used to leave its dead
  // deadline on the analyzer, so every later update (which rebuilds
  // state under options.exec) failed with DeadlineExceeded until a
  // deadline-free check happened to reset it.
  Server server(ServerOptions{});
  Json install = Json::Object();
  install.Set("id", int64_t{1});
  install.Set("method", "update");
  install.Set("program", kSafeProgram);
  ASSERT_TRUE(MustParseReply(server.HandleLine(install.Dump()))["ok"]
                  .AsBool());

  Json expired = Json::Object();
  expired.Set("id", int64_t{2});
  expired.Set("method", "check");
  expired.Set("deadline_ms", int64_t{0});
  Json degraded = MustParseReply(server.HandleLine(expired.Dump()));
  ASSERT_TRUE(degraded["ok"].AsBool()) << degraded.Dump();

  // The editor loop's next keystroke: an update with no deadline.
  install.Set("id", int64_t{3});
  Json updated = MustParseReply(server.HandleLine(install.Dump()));
  EXPECT_TRUE(updated["ok"].AsBool()) << updated.Dump();

  // A check that installs a program (the cold-create path reads the
  // options exec) must run under its own context too.
  Json reply = MustParseReply(server.HandleLine(CheckRequest(4, kSafeProgram)));
  EXPECT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  const Json& arg = reply["result"]["queries"].items()[0]["args"].items()[0];
  EXPECT_EQ(arg["stop"].AsString(), "none") << reply.Dump();
}

TEST(ServerTest, UpdateReportsDirtyCones) {
  Server server(ServerOptions{});
  Json first = Json::Object();
  first.Set("id", int64_t{1});
  first.Set("method", "update");
  first.Set("program", kSafeProgram);
  Json r1 = MustParseReply(server.HandleLine(first.Dump()));
  ASSERT_TRUE(r1["ok"].AsBool()) << r1.Dump();
  EXPECT_GT(r1["result"]["predicates"].AsInt(), 0);

  // Same program again: nothing dirtied.
  Json r2 = MustParseReply(server.HandleLine(first.Dump()));
  ASSERT_TRUE(r2["ok"].AsBool()) << r2.Dump();
  EXPECT_EQ(r2["result"]["dirty_predicates"].AsInt(), 0) << r2.Dump();
  EXPECT_EQ(r2["result"]["clean_predicates"].AsInt(),
            r2["result"]["predicates"].AsInt());
}

TEST(ServerTest, PredicateTargetedCheck) {
  Server server(ServerOptions{});
  Json install = Json::Object();
  install.Set("id", int64_t{1});
  install.Set("method", "update");
  install.Set("program", kSafeProgram);
  ASSERT_TRUE(MustParseReply(server.HandleLine(install.Dump()))["ok"]
                  .AsBool());

  Json check = Json::Object();
  check.Set("id", int64_t{2});
  check.Set("method", "check");
  check.Set("predicate", "r/1");
  check.Set("adornment", "f");
  Json reply = MustParseReply(server.HandleLine(check.Dump()));
  ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  EXPECT_EQ(reply["result"]["queries"].items()[0]["safety"].AsString(),
            "safe");

  check.Set("predicate", "nosuch/3");
  Json missing = MustParseReply(server.HandleLine(check.Dump()));
  EXPECT_FALSE(missing["ok"].AsBool());
}

TEST(ServerTest, StatsReportsCounters) {
  Server server(ServerOptions{});
  server.HandleLine(CheckRequest(1, kSafeProgram));
  Json stats = MustParseReply(
      server.HandleLine("{\"id\": 5, \"method\": \"stats\"}"));
  ASSERT_TRUE(stats["ok"].AsBool()) << stats.Dump();
  EXPECT_EQ(stats["id"].AsInt(), 5);
  EXPECT_GE(stats["result"]["server"]["requests"].AsInt(), 1);
  EXPECT_GE(stats["result"]["analyzer"]["positions_analyzed"].AsInt(), 1);
}

std::vector<std::string> Keys(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

// The `stats` reply renders the analyzer and cache schemas field for
// field (their names are pinned in stats_schema_test.cc).
TEST(ServerTest, StatsReplyRendersTheSchemas) {
  PipelineCache cache;
  ServerOptions opts;
  opts.cache = &cache;
  Server server(std::move(opts));
  server.HandleLine(CheckRequest(1, kSafeProgram));
  Json stats = MustParseReply(
      server.HandleLine("{\"id\": 2, \"method\": \"stats\"}"));
  ASSERT_TRUE(stats["ok"].AsBool()) << stats.Dump();
  const Json& result = stats["result"];
  EXPECT_EQ(Keys(result),
            (std::vector<std::string>{"analyzer", "cache", "server"}));
  EXPECT_EQ(Keys(result["analyzer"]), StatNames<AnalyzerCounters>());
  EXPECT_EQ(Keys(result["cache"]), StatNames<PipelineCacheStats>());
  std::vector<std::string> server_keys = StatNames<Server::Counters>();
  server_keys.push_back("workers");
  EXPECT_EQ(Keys(result["server"]), server_keys);
}

TEST(ServerTest, ServeLoopRepliesOncePerLineAndStopsOnShutdown) {
  ServerOptions opts;
  Server server(std::move(opts));
  std::istringstream in(
      CheckRequest(1, kSafeProgram) + "\n" +
      "garbage line\n" +
      "{\"id\": 3, \"method\": \"shutdown\"}\n" +
      CheckRequest(4, kSafeProgram) + "\n");  // behind the shutdown
  std::ostringstream out;
  uint64_t replies = server.Serve(in, out);
  EXPECT_TRUE(server.shutdown_requested());

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  std::string line;
  while (std::getline(result, line)) lines.push_back(line);
  // One reply per request that was read before the loop stopped; the
  // request queued behind the shutdown (if read at all) is shed.
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(replies, lines.size());
  EXPECT_TRUE(MustParseReply(lines[0])["ok"].AsBool());
  EXPECT_FALSE(MustParseReply(lines[1])["ok"].AsBool());
  Json shutdown_reply = MustParseReply(lines[2]);
  EXPECT_TRUE(shutdown_reply["ok"].AsBool());
  EXPECT_TRUE(shutdown_reply["result"]["shutdown"].AsBool());
}

TEST(ServerTest, ShedPolicyAnswersOverflowWithUnavailable) {
  ServerOptions opts;
  opts.max_queue = 1;
  opts.shed_on_overflow = true;
  Server server(std::move(opts));
  // Direct unit test of the shed reply (the race of actually
  // overflowing a live queue is timing-dependent; the policy plumbing
  // is what must be correct).
  std::string reply = ShedReply("{\"id\": 77, \"method\": \"check\"}",
                                "request queue full");
  Json parsed = MustParseReply(reply);
  EXPECT_FALSE(parsed["ok"].AsBool());
  EXPECT_EQ(parsed["id"].AsInt(), 77);
  EXPECT_EQ(parsed["error"]["code"].AsString(),
            std::string(StatusCodeName(StatusCode::kUnavailable)));

  // Unparsable shed line still yields a correlatable (null-id) reply.
  Json parsed2 = MustParseReply(ShedReply("not json", "overflow"));
  EXPECT_TRUE(parsed2["id"].is_null());
  EXPECT_FALSE(parsed2["ok"].AsBool());
}

TEST(ServerTest, BackpressureServesEveryRequestInOrder) {
  ServerOptions opts;
  opts.max_queue = 2;  // force Push to block while the worker analyzes
  Server server(std::move(opts));
  std::string input;
  for (int i = 1; i <= 8; ++i) input += CheckRequest(i, kSafeProgram) + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  uint64_t replies = server.Serve(in, out);
  EXPECT_EQ(replies, 8u);
  std::istringstream result(out.str());
  std::string line;
  int expected_id = 1;
  while (std::getline(result, line)) {
    Json reply = MustParseReply(line);
    EXPECT_TRUE(reply["ok"].AsBool()) << line;
    EXPECT_EQ(reply["id"].AsInt(), expected_id++);
  }
  EXPECT_EQ(expected_id, 9);
  EXPECT_EQ(server.counters().shed, 0u);
}

TEST(ServerTest, MultiWorkerServeAnswersEveryRequestExactlyOnce) {
  // With workers > 1 replies arrive in completion order, but the
  // one-reply-per-request contract is unchanged: every id comes back
  // exactly once, every reply is well-formed, and the loop drains
  // cleanly on EOF.
  ServerOptions opts;
  opts.workers = 4;
  Server server(std::move(opts));
  EXPECT_EQ(server.workers(), 4u);

  constexpr int kRequests = 16;
  std::string input;
  for (int i = 1; i <= kRequests; ++i) {
    input += CheckRequest(i, kSafeProgram) + "\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  uint64_t replies = server.Serve(in, out);
  EXPECT_EQ(replies, static_cast<uint64_t>(kRequests));

  std::set<int64_t> ids;
  std::istringstream result(out.str());
  std::string line;
  while (std::getline(result, line)) {
    Json reply = MustParseReply(line);
    EXPECT_TRUE(reply["ok"].AsBool()) << line;
    EXPECT_TRUE(ids.insert(reply["id"].AsInt()).second)
        << "duplicate reply for id " << reply["id"].AsInt();
  }
  ASSERT_EQ(ids.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), kRequests);
  EXPECT_EQ(server.counters().errors, 0u);
}

TEST(ServerTest, ConcurrentHandleLineMixedTrafficStaysCoherent) {
  // HandleLine is the concurrency surface Serve's workers share; drive
  // it directly from four threads with mixed check / update / stats
  // traffic. Every reply must be ok (checks are ephemeral, updates
  // serialize, stats snapshots are never torn) and the request
  // accounting must add up exactly afterwards.
  Server server(ServerOptions{});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i + 1;
        std::string line;
        if (i % 4 == 1) {
          Json req = Json::Object();
          req.Set("id", int64_t{id});
          req.Set("method", "update");
          req.Set("program", i % 8 == 1 ? kSafeProgram : kHardProgram);
          line = req.Dump();
        } else if (i % 4 == 3) {
          Json req = Json::Object();
          req.Set("id", int64_t{id});
          req.Set("method", "stats");
          line = req.Dump();
        } else {
          line = CheckRequest(id, kSafeProgram);
        }
        Json reply = MustParseReply(server.HandleLine(line));
        EXPECT_TRUE(reply["ok"].AsBool()) << reply.Dump();
        EXPECT_EQ(reply["id"].AsInt(), id);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  Server::Counters after = server.counters();
  EXPECT_EQ(after.requests, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(after.served, after.requests);
  EXPECT_EQ(after.errors, 0u);
}

TEST(ServerTest, CheckWithProgramDoesNotReplaceServedProgram) {
  // A request-supplied program is analyzed ephemerally: afterwards the
  // served program — and only it — still answers targeted checks.
  Server server(ServerOptions{});
  Json update = Json::Object();
  update.Set("id", int64_t{1});
  update.Set("method", "update");
  update.Set("program", kSafeProgram);
  ASSERT_TRUE(MustParseReply(server.HandleLine(update.Dump()))["ok"]
                  .AsBool());

  // Ephemeral check of a different program succeeds...
  Json eph = MustParseReply(server.HandleLine(CheckRequest(2, kHardProgram)));
  EXPECT_TRUE(eph["ok"].AsBool()) << eph.Dump();

  // ...but r/1 (the served program) still resolves, and p/2 (only in
  // the ephemeral program) does not.
  Json targeted = Json::Object();
  targeted.Set("id", int64_t{3});
  targeted.Set("method", "check");
  targeted.Set("predicate", "r/1");
  Json served = MustParseReply(server.HandleLine(targeted.Dump()));
  ASSERT_TRUE(served["ok"].AsBool()) << served.Dump();
  EXPECT_EQ(served["result"]["queries"].items()[0]["safety"].AsString(),
            "safe");

  Json missing = Json::Object();
  missing.Set("id", int64_t{4});
  missing.Set("method", "check");
  missing.Set("predicate", "p/2");
  Json gone = MustParseReply(server.HandleLine(missing.Dump()));
  EXPECT_FALSE(gone["ok"].AsBool());
  EXPECT_EQ(gone["error"]["code"].AsString(),
            std::string(StatusCodeName(StatusCode::kNotFound)));
}

std::string LintRequest(int id, const std::string& program) {
  Json req = Json::Object();
  req.Set("id", int64_t{id});
  req.Set("method", "lint");
  req.Set("program", program);
  return req.Dump();
}

TEST(ServerTest, LintReturnsSchemaConformingDiagnostics) {
  // Field names here are the documented schema (src/core/server.h);
  // renaming any of them is a protocol break this test pins.
  Server server(ServerOptions{});
  Json reply = MustParseReply(server.HandleLine(
      LintRequest(1, ".infinite f/1.\nr(X) :- f(X).\n?- r(X).\n")));
  ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  EXPECT_EQ(reply["id"].AsInt(), 1);
  const Json& result = reply["result"];
  ASSERT_TRUE(result["diagnostics"].is_array()) << reply.Dump();
  EXPECT_TRUE(result["errors"].is_number());
  EXPECT_TRUE(result["warnings"].is_number());
  EXPECT_TRUE(result["notes"].is_number());
  ASSERT_EQ(result["diagnostics"].size(), 1u);  // HS005 on f/1
  const Json& diag = result["diagnostics"].items()[0];
  EXPECT_EQ(diag["code"].AsString(), "HS005");
  EXPECT_EQ(diag["severity"].AsString(), "warning");
  EXPECT_EQ(diag["line"].AsInt(), 1);
  EXPECT_EQ(diag["column"].AsInt(), 11);
  EXPECT_TRUE(diag["message"].is_string());
  EXPECT_TRUE(diag["note"].is_string());  // HS005 carries a fix hint
  EXPECT_EQ(result["warnings"].AsInt(), 1);
  EXPECT_EQ(result["errors"].AsInt(), 0);
}

TEST(ServerTest, LintOfCleanProgramIsEmpty) {
  Server server(ServerOptions{});
  Json reply =
      MustParseReply(server.HandleLine(LintRequest(2, kSafeProgram)));
  ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  EXPECT_EQ(reply["result"]["diagnostics"].size(), 0u);
  EXPECT_EQ(reply["result"]["warnings"].AsInt(), 0);
}

TEST(ServerTest, LintOfUnparsableProgramIsAnOkReplyWithHs001) {
  // Unlike check, lint treats a parse failure as a *finding*: the reply
  // is ok and the failure is an HS001 error diagnostic with position.
  Server server(ServerOptions{});
  Json reply = MustParseReply(
      server.HandleLine(LintRequest(3, "p(X) :-\n  q(,X).\n")));
  ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
  const Json& diags = reply["result"]["diagnostics"];
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.items()[0]["code"].AsString(), "HS001");
  EXPECT_EQ(diags.items()[0]["severity"].AsString(), "error");
  EXPECT_EQ(diags.items()[0]["line"].AsInt(), 2);
  EXPECT_EQ(reply["result"]["errors"].AsInt(), 1);
}

TEST(ServerTest, LintWithoutProgramIsAnErrorReply) {
  Server server(ServerOptions{});
  Json reply =
      MustParseReply(server.HandleLine("{\"id\":4,\"method\":\"lint\"}"));
  EXPECT_FALSE(reply["ok"].AsBool());
  EXPECT_TRUE(reply["error"]["message"].is_string());
}

TEST(ServerTest, LintDoesNotDisturbServedProgram) {
  Server server(ServerOptions{});
  Json update = Json::Object();
  update.Set("id", int64_t{1});
  update.Set("method", "update");
  update.Set("program", kSafeProgram);
  ASSERT_TRUE(MustParseReply(server.HandleLine(update.Dump()))["ok"]
                  .AsBool());
  ASSERT_TRUE(MustParseReply(
                  server.HandleLine(LintRequest(2, "loop(X) :- loop(X).")))
                  ["ok"]
                      .AsBool());
  // The served program still answers predicate-targeted checks.
  Json targeted = Json::Object();
  targeted.Set("id", int64_t{3});
  targeted.Set("method", "check");
  targeted.Set("predicate", "r/1");
  Json served = MustParseReply(server.HandleLine(targeted.Dump()));
  ASSERT_TRUE(served["ok"].AsBool()) << served.Dump();
}

}  // namespace
}  // namespace hornsafe
