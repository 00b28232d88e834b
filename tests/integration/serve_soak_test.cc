// Serve soak: the hornsafe binary is driven through hundreds of
// scripted requests — once fault-free and once with every disk-tier
// fault injected via HORNSAFE_FAULTS — and must produce zero crashes
// and verdict-identical replies: disk faults may cost cache hits,
// never correctness.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

constexpr int kRequests = 500;

struct RunResult {
  int exit_code = -1;
  std::vector<std::string> lines;
};

RunResult RunServe(const std::string& request_file,
                   const std::string& cache_dir,
                   const std::string& faults_spec,
                   const std::string& extra_args = "") {
  std::string cmd = StrCat(
      "HORNSAFE_FAULTS='", faults_spec, "' ", HORNSAFE_CLI_PATH,
      " serve --cache-dir ", cache_dir, " ", extra_args, " < ",
      request_file, " 2>/dev/null");
  RunResult result;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::string output;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::istringstream stream(output);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) result.lines.push_back(line);
  }
  return result;
}

/// Program variant `k`: structurally distinct cones (the guard and base
/// predicates are renamed), so cycling variants exercises incremental
/// updates with real dirty/clean mixes.
std::string ProgramVariant(int k) {
  return StrCat(
      ".infinite t/2.\n"
      ".fd t: 2 -> 1.\n"
      "r(X) :- t(X,Y), r(Y), guard", k, "(Y).\n"
      "r(X) :- base", k, "(X).\n"
      "u(X) :- t(X,Y), u(Y).\n"
      "u(X) :- base", k, "(X).\n"
      "?- r(X).\n"
      "?- u(X).\n");
}

/// The scripted request mix: checks and explains cycling over five
/// program variants, periodic updates and stats, ~5% malformed lines.
/// Every request is deterministic, so the faulted and fault-free runs
/// see byte-identical input.
/// `with_shutdown = false` swaps the final shutdown for one more check:
/// the multi-worker run ends on EOF instead, so no tail request can be
/// shed by a shutdown racing the last few in-flight analyses.
void WriteRequests(const std::string& path, bool with_shutdown = true) {
  std::ofstream out(path);
  for (int i = 1; i <= kRequests; ++i) {
    if (i == kRequests && with_shutdown) {
      Json req = Json::Object();
      req.Set("id", int64_t{i});
      req.Set("method", "shutdown");
      out << req.Dump() << "\n";
      break;
    }
    if (i % 20 == 7) {
      out << "this line is not JSON {]\n";  // must yield an error reply
      continue;
    }
    if (i % 25 == 11) {
      Json req = Json::Object();
      req.Set("id", int64_t{i});
      req.Set("method", "stats");
      out << req.Dump() << "\n";
      continue;
    }
    Json req = Json::Object();
    req.Set("id", int64_t{i});
    if (i % 10 == 3) {
      req.Set("method", "update");
      req.Set("program", ProgramVariant((i / 10) % 5));
    } else if (i % 10 == 5) {
      req.Set("method", "explain");
      req.Set("program", ProgramVariant((i / 10) % 5));
    } else if (i % 10 == 9) {
      // ~10% lint traffic, cycling clean / warning-laden / unparsable
      // programs: diagnostics are a pure function of the request text,
      // so they must be identical under faults and across workers.
      req.Set("method", "lint");
      switch ((i / 10) % 3) {
        case 0:
          req.Set("program", ProgramVariant((i / 10) % 5));
          break;
        case 1:
          req.Set("program",
                  ".infinite osc/2.\nloop(X) :- loop(X).\n"
                  "w(X) :- osc(X, Extra).\n?- w(a).\n");
          break;
        default:
          req.Set("program", "p(X) :-\n  q(,X).\n");  // HS001 path
          break;
      }
    } else {
      req.Set("method", "check");
      req.Set("program", ProgramVariant((i / 7) % 5));
    }
    out << req.Dump() << "\n";
  }
}

/// The comparable projection of one reply: id, ok, and for check /
/// explain replies every verdict field (safety, stop reason, steps,
/// explanation — all cache-invariant, so fault-induced cache misses
/// must not change them). Stats/counter payloads are fault-dependent
/// by design and excluded.
std::string VerdictProjection(const std::string& line,
                              bool with_update_diff = true) {
  Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) return StrCat("UNPARSABLE:", line);
  const Json& reply = *parsed;
  Json proj = Json::Object();
  proj.Set("id", reply["id"]);
  proj.Set("ok", reply["ok"]);
  if (!reply["ok"].AsBool()) {
    proj.Set("code", reply["error"]["code"]);
  }
  const Json& queries = reply["result"]["queries"];
  if (queries.is_array()) {
    Json qs = Json::Array();
    for (const Json& q : queries.items()) {
      Json pq = Json::Object();
      pq.Set("query", q["query"]);
      pq.Set("safety", q["safety"]);
      Json args = Json::Array();
      for (const Json& a : q["args"].items()) {
        Json pa = Json::Object();
        pa.Set("position", a["position"]);
        pa.Set("safety", a["safety"]);
        pa.Set("stop", a["stop"]);
        pa.Set("steps", a["steps"]);
        if (a.Has("explanation")) pa.Set("explanation", a["explanation"]);
        args.Append(std::move(pa));
      }
      pq.Set("args", std::move(args));
      qs.Append(std::move(pq));
    }
    proj.Set("queries", std::move(qs));
  }
  // Update replies: the dirty/clean split is fault-invariant (cone
  // fingerprints do not depend on the disk tier) but NOT
  // order-invariant — it diffs against whichever update landed last —
  // so the multi-worker comparison drops it.
  if (reply["result"]["predicates"].is_number()) {
    proj.Set("predicates", reply["result"]["predicates"]);
    if (with_update_diff) {
      proj.Set("dirty", reply["result"]["dirty_predicates"]);
      proj.Set("clean", reply["result"]["clean_predicates"]);
    }
  }
  // Lint replies: diagnostics never touch the disk tier or the served
  // snapshot, so the whole payload is comparable verbatim.
  if (reply["result"]["diagnostics"].is_array()) {
    proj.Set("diagnostics", reply["result"]["diagnostics"]);
    proj.Set("errors", reply["result"]["errors"]);
    proj.Set("warnings", reply["result"]["warnings"]);
    proj.Set("notes", reply["result"]["notes"]);
  }
  return proj.Dump();
}

TEST(ServeSoakTest, FaultedRunMatchesFaultFreeVerdictForVerdict) {
  fs::path root = fs::temp_directory_path() /
                  StrCat("hornsafe_soak_", getpid());
  fs::remove_all(root);
  fs::create_directories(root);
  std::string requests = (root / "requests.jsonl").string();
  WriteRequests(requests);

  RunResult clean =
      RunServe(requests, (root / "cache_clean").string(), "");
  // ~10% aggregate fault probability across the disk-tier syscalls.
  RunResult faulted = RunServe(
      requests, (root / "cache_faulted").string(),
      "read_error=0.1,write_error=0.1,short_write=0.05,torn_append=0.1,"
      "bit_flip=0.1,enospc=0.05,seed=20260806");

  // Zero crashes: both processes exited the serve loop cleanly.
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_EQ(faulted.exit_code, 0);

  // One reply per request, in request order, in both runs.
  ASSERT_EQ(clean.lines.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(faulted.lines.size(), clean.lines.size());

  // Verdict parity, line by line.
  for (size_t i = 0; i < clean.lines.size(); ++i) {
    EXPECT_EQ(VerdictProjection(clean.lines[i]),
              VerdictProjection(faulted.lines[i]))
        << "reply " << i << " diverged under fault injection";
  }

  fs::remove_all(root);
}

TEST(ServeSoakTest, MultiWorkerSoakMatchesSerialReplay) {
  // The same scripted mix (minus the shutdown: the run ends on EOF so
  // no tail request is shed by a racing shutdown) served once serially
  // fault-free and once with --workers 4 *plus* disk faults. Replies
  // interleave by completion in the parallel run, but every check and
  // explain in this workload carries its own program, so each verdict
  // is a pure function of its request: after projecting away the
  // order-dependent update diff, the reply *multisets* must match
  // exactly — concurrency and injected faults may reorder work, never
  // change an answer.
  fs::path root = fs::temp_directory_path() /
                  StrCat("hornsafe_soak_mw_", getpid());
  fs::remove_all(root);
  fs::create_directories(root);
  std::string requests = (root / "requests.jsonl").string();
  WriteRequests(requests, /*with_shutdown=*/false);

  RunResult serial =
      RunServe(requests, (root / "cache_serial").string(), "");
  RunResult parallel = RunServe(
      requests, (root / "cache_parallel").string(),
      "read_error=0.1,write_error=0.1,short_write=0.05,torn_append=0.1,"
      "bit_flip=0.1,enospc=0.05,seed=20260808",
      "--workers 4");

  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  ASSERT_EQ(serial.lines.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(parallel.lines.size(), serial.lines.size());

  std::vector<std::string> want, got;
  want.reserve(serial.lines.size());
  got.reserve(parallel.lines.size());
  for (const std::string& line : serial.lines) {
    want.push_back(VerdictProjection(line, /*with_update_diff=*/false));
  }
  for (const std::string& line : parallel.lines) {
    got.push_back(VerdictProjection(line, /*with_update_diff=*/false));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i])
        << "sorted reply " << i << " diverged between the serial and "
        << "multi-worker runs";
  }

  fs::remove_all(root);
}

TEST(ServeSoakTest, SecondRunIsWarmAndStillIdentical) {
  // A persistent cache dir reused across two fault-free runs: the warm
  // run serves from disk and must still render identical verdicts.
  fs::path root = fs::temp_directory_path() /
                  StrCat("hornsafe_soak_warm_", getpid());
  fs::remove_all(root);
  fs::create_directories(root);
  std::string requests = (root / "requests.jsonl").string();
  WriteRequests(requests);
  std::string cache = (root / "cache").string();

  RunResult cold = RunServe(requests, cache, "");
  RunResult warm = RunServe(requests, cache, "");
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(warm.exit_code, 0);
  ASSERT_EQ(cold.lines.size(), warm.lines.size());
  for (size_t i = 0; i < cold.lines.size(); ++i) {
    EXPECT_EQ(VerdictProjection(cold.lines[i]),
              VerdictProjection(warm.lines[i]))
        << "reply " << i << " diverged cold vs warm";
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace hornsafe
