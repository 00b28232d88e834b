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

#include "util/json.h"
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

TEST(CliTest, CheckWithCacheDirWarmRunHits) {
  std::string dir = StrCat("/tmp/hornsafe_cli_cache_", getpid());
  std::string rm = StrCat("rm -rf ", dir);
  ASSERT_EQ(system(rm.c_str()), 0);
  std::string args = StrCat("check --stats --cache-dir ", dir, " ",
                            ProgramPath("ancestor.hs"));
  // Cold run populates the cache directory...
  CliResult cold = RunCli(args);
  EXPECT_EQ(cold.exit_code, 0) << cold.output;
  EXPECT_NE(cold.output.find("pipeline cache stats:"), std::string::npos)
      << cold.output;
  // ...and a second process serves its searches from disk: hits > 0 and
  // identical report text up to the stats block.
  CliResult warm = RunCli(args);
  EXPECT_EQ(warm.exit_code, 0) << warm.output;
  EXPECT_NE(warm.output.find("disk hits / misses:       "),
            std::string::npos)
      << warm.output;
  size_t cold_cut = cold.output.find("analysis stats:");
  size_t warm_cut = warm.output.find("analysis stats:");
  ASSERT_NE(cold_cut, std::string::npos);
  ASSERT_NE(warm_cut, std::string::npos);
  EXPECT_EQ(cold.output.substr(0, cold_cut),
            warm.output.substr(0, warm_cut));
  // The warm run really hit: its verdict tier reports at least one hit.
  EXPECT_EQ(warm.output.find("disk hits / misses:       0 /"),
            std::string::npos)
      << warm.output;
  ASSERT_EQ(system(rm.c_str()), 0);
}

std::vector<std::string> Keys(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

// The field names of `check --stats-json` are a public surface: adding
// or removing one must show up here.
TEST(CliTest, StatsJsonFieldNamesArePinned) {
  CliResult r =
      RunCli(StrCat("check --stats-json ", ProgramPath("ancestor.hs")));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The JSON object is the last line of the output.
  size_t begin = r.output.rfind("\n{");
  ASSERT_NE(begin, std::string::npos) << r.output;
  Result<Json> parsed = Json::Parse(r.output.substr(begin + 1));
  ASSERT_TRUE(parsed.ok()) << r.output;
  const Json& root = *parsed;
  EXPECT_EQ(Keys(root), (std::vector<std::string>{"analyzer", "cache"}));
  EXPECT_EQ(Keys(root["analyzer"]),
            (std::vector<std::string>{
                "positions_analyzed", "subset_searches", "steps",
                "graphs_checked", "memo_hits", "memo_misses",
                "scc_short_circuits", "parallel_tasks", "serial_tasks",
                "cache_hits", "cache_misses", "segments_total",
                "segments_grafted", "segment_grafts_rejected",
                "segments_encoded", "nodes_shared", "nodes_owned",
                "node_table_peak_nodes", "node_table_peak_bytes",
                "stages"}));
  EXPECT_EQ(Keys(root["analyzer"]["stages"]),
            (std::vector<std::string>{"canonicalize_ns", "fingerprint_ns",
                                      "fd_ns", "adorn_ns", "build_ns",
                                      "prune_ns", "scc_ns", "search_ns"}));
  EXPECT_EQ(Keys(root["cache"]),
            (std::vector<std::string>{
                "verdict_hits", "verdict_misses", "verdict_insertions",
                "verdict_evictions", "disk_hits", "disk_misses",
                "disk_corrupt", "disk_write_failures", "cones_invalidated",
                "canon_hits", "canon_misses", "emptiness_hits",
                "emptiness_misses", "segment_hits", "segment_misses",
                "segment_insertions", "segment_evictions", "fd_index_hits",
                "fd_index_misses", "pred_hash_hits", "pred_hash_misses",
                "lease_acquisitions", "torn_tails_repaired",
                "compactions_run"}));
}

TEST(CliTest, CheckNoCacheMatchesCachedVerdicts) {
  CliResult cached =
      RunCli(StrCat("check ", ProgramPath("example13.hs")));
  CliResult uncached =
      RunCli(StrCat("check --no-cache ", ProgramPath("example13.hs")));
  EXPECT_EQ(cached.exit_code, uncached.exit_code);
  EXPECT_EQ(cached.output, uncached.output);
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
