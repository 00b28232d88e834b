// End-to-end tests of the `hornsafe` command-line tool, driving the real
// binary (path injected by CMake) over the shipped example programs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/strings.h"

#ifndef HORNSAFE_CLI_PATH
#error "HORNSAFE_CLI_PATH must be defined by the build"
#endif
#ifndef HORNSAFE_PROGRAMS_DIR
#error "HORNSAFE_PROGRAMS_DIR must be defined by the build"
#endif

namespace hornsafe {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunCli(const std::string& args) {
  std::string command =
      StrCat(HORNSAFE_CLI_PATH, " ", args, " 2>&1");
  FILE* pipe = popen(command.c_str(), "r");
  CliResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string ProgramPath(const char* name) {
  return StrCat(HORNSAFE_PROGRAMS_DIR, "/", name);
}

TEST(CliTest, UsageOnMissingArguments) {
  CliResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  CliResult unknown = RunCli("frobnicate /dev/null");
  EXPECT_EQ(unknown.exit_code, 1);
}

TEST(CliTest, CheckSafeProgramExitsZero) {
  CliResult r = RunCli(StrCat("check ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("safety:               safe"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("terminating eval:     yes"), std::string::npos)
      << r.output;
}

TEST(CliTest, CheckUnsafeProgramExitsTwo) {
  CliResult r =
      RunCli(StrCat("check ", ProgramPath("unsafe_projection.hs")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unsafe"), std::string::npos);
  // The explanation carries a counterexample AND-graph.
  EXPECT_NE(r.output.find("AND-graph"), std::string::npos) << r.output;
}

TEST(CliTest, CheckExample13NeedsMonotonicity) {
  CliResult r = RunCli(StrCat("check ", ProgramPath("example13.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("safety:               safe"), std::string::npos);
}

TEST(CliTest, RunEvaluatesAnswers) {
  CliResult r = RunCli(StrCat("run ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("answer(s)"), std::string::npos);
  EXPECT_NE(r.output.find("adam"), std::string::npos) << r.output;
}

TEST(CliTest, RunConcatSplitsList) {
  CliResult r = RunCli(StrCat("run ", ProgramPath("concat.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("4 answer(s)"), std::string::npos) << r.output;
}

TEST(CliTest, RunRefusesUnsafeQuery) {
  CliResult r =
      RunCli(StrCat("run ", ProgramPath("unsafe_projection.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;  // run reports, does not fail
  EXPECT_NE(r.output.find("UnsafeQuery"), std::string::npos) << r.output;
}

TEST(CliTest, CanonicalPrintsFlattenedProgram) {
  CliResult r = RunCli(StrCat("canonical ", ProgramPath("concat.hs")));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find(".infinite fn_cons_2/3."), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("cst_nil([])."), std::string::npos);
}

TEST(CliTest, AndorPrintsPropositionalSystem) {
  CliResult r =
      RunCli(StrCat("andor ", ProgramPath("unsafe_projection.hs")));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("adorned rules"), std::string::npos);
  EXPECT_NE(r.output.find("<-"), std::string::npos);
}

TEST(CliTest, MatrixShowsPerAdornmentVerdicts) {
  CliResult r = RunCli(
      StrCat("matrix ", ProgramPath("ancestor.hs"), " ancestor/3"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("safety matrix for ancestor/3"),
            std::string::npos);
  // 8 adornments.
  EXPECT_NE(r.output.find("fff:"), std::string::npos);
  EXPECT_NE(r.output.find("bbb:"), std::string::npos);
}

TEST(CliTest, MatrixRejectsUnknownPredicate) {
  CliResult r =
      RunCli(StrCat("matrix ", ProgramPath("ancestor.hs"), " ghost/2"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown predicate"), std::string::npos);
}

TEST(CliTest, ReportCoversInventoryAndQueries) {
  CliResult r = RunCli(StrCat("report ", ProgramPath("example13.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("-- predicates --"), std::string::npos);
  EXPECT_NE(r.output.find("-- finiteness dependencies --"),
            std::string::npos);
  EXPECT_NE(r.output.find("-- monotonicity constraints --"),
            std::string::npos);
  EXPECT_NE(r.output.find("-- pipeline --"), std::string::npos);
  EXPECT_NE(r.output.find("-- safety by adornment"), std::string::npos);
}

TEST(CliTest, DotEmitsGraphvizWitness) {
  CliResult r =
      RunCli(StrCat("dot ", ProgramPath("unsafe_projection.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("digraph and_graph {"), std::string::npos);
  EXPECT_NE(r.output.find("shape=diamond"), std::string::npos);
}

TEST(CliTest, DotOnSafeProgramReportsNothingToShow) {
  CliResult r = RunCli(StrCat("dot ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("no unsafe query argument"), std::string::npos);
}

TEST(CliTest, AdornedPrintsHStar) {
  CliResult r = RunCli(StrCat("adorned ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ancestor^fff"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ancestor^bbb"), std::string::npos);
  EXPECT_NE(r.output.find(":-"), std::string::npos);
}

TEST(CliTest, SimplifyReportsRemovals) {
  // ancestor.hs is fully live: expect a zero-removal banner and the
  // program echoed back (dead-weight removal itself is covered by the
  // transform unit tests).
  CliResult r = RunCli(StrCat("simplify ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("% removed: 0 dead rules"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("ancestor(X,Y,J) :-"), std::string::npos);
}

TEST(CliTest, ExplainPrintsDerivationTrees) {
  CliResult r = RunCli(StrCat("explain ", ProgramPath("ancestor.hs"),
                              " \"ancestor(sem, Y, 2)\""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[rule: ancestor(X,Y,J) :-"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("parent(sem,abel)  [fact]"), std::string::npos);
  EXPECT_NE(r.output.find("successor(1,2)  [computed]"),
            std::string::npos);
}

TEST(CliTest, ReplAnswersAndRefusesInteractively) {
  std::string command = StrCat(
      "printf 'ancestor(sem, Y, 2).\\nancestor(sem, Y, J)\\nquit\\n' | ",
      HORNSAFE_CLI_PATH, " repl ", ProgramPath("ancestor.hs"), " 2>&1");
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0) << output;
  EXPECT_NE(output.find("2 answer(s) [safe, top-down]"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("sem, adam, 2"), std::string::npos);
  EXPECT_NE(output.find("UnsafeQuery"), std::string::npos);
}

TEST(CliTest, MissingFileIsReported) {
  CliResult r = RunCli("check /nonexistent/path.hs");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(CliTest, CheckSeesUndeclaredBuiltinsAsInfinite) {
  // A program referencing successor/2 without declaring it: `check`
  // must register the builtin's constraints, or it would call the
  // unbounded counter safe while `run` refuses it.
  char path[] = "/tmp/hornsafe_cli_test_XXXXXX";
  int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  const char* program =
      "start(0).\n"
      "reach(X) :- start(X).\n"
      "reach(J) :- reach(I), successor(I, J).\n"
      "?- reach(X).\n";
  ASSERT_EQ(write(fd, program, strlen(program)),
            static_cast<ssize_t>(strlen(program)));
  close(fd);
  CliResult r = RunCli(StrCat("check ", path));
  unlink(path);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("safety:               unsafe"),
            std::string::npos)
      << r.output;
  // ... while the intermediate relations stay finite at each step
  // (Example 15's point).
  EXPECT_NE(r.output.find("finite intermediate:  yes"), std::string::npos);
}

std::vector<std::string> Keys(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

/// The JSON object on the last line of `output` (the `--stats-json`
/// object after the verdict report, or the last serve reply).
Json LastJsonLine(const std::string& output) {
  size_t begin = output.rfind("\n{");
  begin = begin == std::string::npos ? 0 : begin + 1;
  Result<Json> parsed = Json::Parse(output.substr(begin));
  EXPECT_TRUE(parsed.ok()) << output;
  return parsed.ok() ? *parsed : Json();
}

/// Writes `text` to a fresh temporary file and returns its path.
std::string WriteTemp(const std::string& text) {
  char path[] = "/tmp/hornsafe_cli_test_XXXXXX";
  int fd = mkstemp(path);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(write(fd, text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  close(fd);
  return path;
}

TEST(CliTest, CheckWithCacheDirWarmRunHits) {
  std::string dir = StrCat("/tmp/hornsafe_cli_cache_", getpid());
  std::string rm = StrCat("rm -rf ", dir);
  ASSERT_EQ(system(rm.c_str()), 0);
  std::string args = StrCat("check --stats-json --cache-dir ", dir, " ",
                            ProgramPath("ancestor.hs"));
  // Cold run populates the cache directory...
  CliResult cold = RunCli(args);
  EXPECT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_EQ(LastJsonLine(cold.output)["cache"]["disk_hits"].AsInt(-1), 0)
      << cold.output;
  // ...and a second process serves its searches from disk, with the
  // same report text up to the stats line.
  CliResult warm = RunCli(args);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_GT(LastJsonLine(warm.output)["cache"]["disk_hits"].AsInt(0), 0)
      << warm.output;
  size_t cold_cut = cold.output.rfind("\n{");
  size_t warm_cut = warm.output.rfind("\n{");
  ASSERT_NE(cold_cut, std::string::npos);
  ASSERT_NE(warm_cut, std::string::npos);
  EXPECT_EQ(cold.output.substr(0, cold_cut),
            warm.output.substr(0, warm_cut));
  ASSERT_EQ(system(rm.c_str()), 0);
}

// `--stats-json` renders the analyzer and cache schemas field for field
// (their names are pinned in tests/core/stats_schema_test.cc).
TEST(CliTest, StatsJsonRendersTheSchemas) {
  CliResult r =
      RunCli(StrCat("check --stats-json ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  Json root = LastJsonLine(r.output);
  EXPECT_EQ(Keys(root), (std::vector<std::string>{"analyzer", "cache"}));
  EXPECT_EQ(Keys(root["analyzer"]), StatNames<AnalyzerCounters>());
  EXPECT_EQ(Keys(root["cache"]), StatNames<PipelineCacheStats>());
}

// `--stats` prints the same fields as text, one "name: value" line each.
TEST(CliTest, StatsTextListsEverySchemaField) {
  CliResult r = RunCli(StrCat("check --stats ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  size_t analyzer = r.output.find("\nanalyzer:\n");
  size_t cache = r.output.find("\ncache:\n");
  ASSERT_NE(analyzer, std::string::npos) << r.output;
  ASSERT_NE(cache, std::string::npos) << r.output;
  for (const std::string& name : StatNames<AnalyzerCounters>()) {
    size_t at = r.output.find(StrCat("\n  ", name, ": "), analyzer);
    EXPECT_LT(at, cache) << name;
  }
  for (const std::string& name : StatNames<PipelineCacheStats>()) {
    EXPECT_NE(r.output.find(StrCat("\n  ", name, ": "), cache),
              std::string::npos)
        << name;
  }
}

// One program, two surfaces: `check --stats-json` and an inline-program
// serve `check` followed by `stats` report the same key sets and the
// same search counters, serially and across the search pool.
TEST(CliTest, CheckAndServeReportTheSameCounters) {
  const std::string program =
      ".infinite t/2.\n"
      ".fd t: 2 -> 1.\n"
      "r(X,Y) :- t(X,A), t(Y,B), r(A,B), a(A), a(B).\n"
      "r(X,Y) :- b(X,Y).\n"
      "?- r(X,Y).\n";
  const std::string program_path = WriteTemp(program);
  Json check = Json::Object();
  check.Set("id", int64_t{1});
  check.Set("method", "check");
  check.Set("program", program);
  const std::string requests_path = WriteTemp(
      StrCat(check.Dump(), "\n", "{\"id\": 2, \"method\": \"stats\"}\n"));
  for (int jobs : {1, 2}) {
    CliResult cli = RunCli(
        StrCat("check --stats-json --jobs ", jobs, " ", program_path));
    EXPECT_EQ(cli.exit_code, 0) << cli.output;
    CliResult serve =
        RunCli(StrCat("serve --jobs ", jobs, " < ", requests_path));
    EXPECT_EQ(serve.exit_code, 0) << serve.output;
    const Json cli_stats = LastJsonLine(cli.output);
    const Json serve_stats = LastJsonLine(serve.output)["result"];
    for (const char* object : {"analyzer", "cache"}) {
      EXPECT_EQ(Keys(cli_stats[object]), Keys(serve_stats[object]))
          << object;
    }
    const Json& a = cli_stats["analyzer"];
    const Json& b = serve_stats["analyzer"];
    EXPECT_GT(a["scc_short_circuits"].AsInt(), 0) << cli.output;
    EXPECT_GT(a[jobs == 1 ? "serial_tasks" : "parallel_tasks"].AsInt(), 0)
        << cli.output;
    for (const char* counter : {"graphs_checked", "scc_short_circuits",
                                "parallel_tasks", "serial_tasks"}) {
      EXPECT_EQ(a[counter].AsInt(-1), b[counter].AsInt(-2))
          << counter << " at jobs " << jobs << "\n"
          << cli.output << "\n"
          << serve.output;
    }
  }
  unlink(program_path.c_str());
  unlink(requests_path.c_str());
}

TEST(CliTest, CheckNoCacheMatchesCachedVerdicts) {
  CliResult cached =
      RunCli(StrCat("check ", ProgramPath("example13.hs")));
  CliResult uncached =
      RunCli(StrCat("check --no-cache ", ProgramPath("example13.hs")));
  EXPECT_EQ(cached.exit_code, uncached.exit_code);
  EXPECT_EQ(cached.output, uncached.output);
}

// `check` searches each query once: its termination verdict reuses the
// safety verdict and finiteness result the report has just printed.
// Without a cache nothing else could absorb a second search.
TEST(CliTest, CheckAnalyzesEachQueryOnce) {
  CliResult r = RunCli(StrCat("check --no-cache --stats-json ",
                              ProgramPath("unsafe_projection.hs")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  const Json root = LastJsonLine(r.output);
  EXPECT_EQ(root["analyzer"]["positions_analyzed"].AsInt(-1), 1) << r.output;
  EXPECT_EQ(root["analyzer"]["subset_searches"].AsInt(-1), 1) << r.output;
}

TEST(CliTest, CacheDirFlagRequiresValue) {
  CliResult r = RunCli("check --cache-dir");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--cache-dir requires a directory"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, LintCleanProgramSaysClean) {
  CliResult r = RunCli(StrCat("lint ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(": clean"), std::string::npos) << r.output;
}

TEST(CliTest, LintWarningsExitZeroWithSummary) {
  CliResult r = RunCli(StrCat("lint ", ProgramPath("lint_showcase.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("warning[HS005]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("note[HS011]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 7 warning(s), 1 note(s)"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, LintErrorsExitTwo) {
  CliResult r = RunCli(StrCat("lint ", ProgramPath("lint_errors.hs")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("error[HS002]"), std::string::npos) << r.output;
}

TEST(CliTest, LintSuppressSilencesListedCodes) {
  CliResult r = RunCli(StrCat(
      "lint --suppress HS005,HS006,HS007,HS008,HS009,HS010,HS011 ",
      ProgramPath("lint_showcase.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(": clean"), std::string::npos) << r.output;
}

TEST(CliTest, LintJsonIsParseableShape) {
  CliResult r =
      RunCli(StrCat("lint --json ", ProgramPath("lint_showcase.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("warning["), std::string::npos);  // json only
  EXPECT_NE(r.output.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(r.output.find("\"code\":\"HS005\""), std::string::npos)
      << r.output;
}

TEST(CliTest, CheckSurfacesLintWarningsWithoutChangingVerdicts) {
  // check prints advisory lint findings before the analysis report; the
  // verdict text and exit code stay exactly what the analyzer decides.
  CliResult r =
      RunCli(StrCat("check ", ProgramPath("unsafe_projection.hs")));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("warning[HS005]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unsafe"), std::string::npos);
  // A clean program's check output carries no lint chatter.
  CliResult clean = RunCli(StrCat("check ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(clean.exit_code, 0);
  EXPECT_EQ(clean.output.find("warning["), std::string::npos)
      << clean.output;
}

TEST(CliTest, WeightedPathsMembershipRuns) {
  CliResult r = RunCli(StrCat("run ", ProgramPath("weighted_paths.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 answer(s)"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace hornsafe
