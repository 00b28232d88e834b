// Determinism of the parallel analyzer: fanning per-argument-position
// subset searches across the thread pool must not change anything the
// user can observe. Every case is analyzed at jobs=1 and jobs=8 and the
// results compared verdict-by-verdict AND explanation-by-explanation —
// each position searches under its own budget and a fresh memo table,
// so even the step counts inside the explanation strings must agree.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "parser/parser.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

/// Analyzes `text` at both job counts and asserts the full QueryAnalysis
/// lists are observably identical.
void ExpectJobsAgree(const std::string& text,
                     uint64_t budget = 5'000'000) {
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  AnalyzerOptions serial;
  serial.jobs = 1;
  serial.subset_budget = budget;
  AnalyzerOptions parallel = serial;
  parallel.jobs = 8;
  auto a1 = SafetyAnalyzer::Create(*program, serial);
  auto a8 = SafetyAnalyzer::Create(*program, parallel);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  ASSERT_TRUE(a8.ok()) << a8.status().ToString();
  std::vector<QueryAnalysis> q1 = a1->AnalyzeQueries();
  std::vector<QueryAnalysis> q8 = a8->AnalyzeQueries();
  ASSERT_EQ(q1.size(), q8.size());
  for (size_t i = 0; i < q1.size(); ++i) {
    EXPECT_EQ(q1[i].overall, q8[i].overall)
        << "query " << i << " overall verdict differs:\n" << text;
    ASSERT_EQ(q1[i].args.size(), q8[i].args.size());
    for (size_t k = 0; k < q1[i].args.size(); ++k) {
      EXPECT_EQ(q1[i].args[k].safety, q8[i].args[k].safety)
          << "query " << i << " arg " << k << " verdict differs:\n"
          << text;
      EXPECT_EQ(q1[i].args[k].explanation, q8[i].args[k].explanation)
          << "query " << i << " arg " << k << " explanation differs:\n"
          << text;
    }
  }
}

TEST(ParallelAnalyzerTest, PaperExamplesAgreeAcrossJobCounts) {
  const char* kTexts[] = {
      // Example 1: free ancestor query over an FD'd successor relation.
      R"(.infinite successor/2.
         .fd successor: 1 -> 2.
         .fd successor: 2 -> 1.
         parent(sem, abel).
         ancestor(X,Y,1) :- parent(X,Y).
         ancestor(X,Y,J) :- parent(X,Z), ancestor(Z,Y,I), successor(I,J).
         ?- ancestor(sem, Y, J).)",
      // Example 3: unguarded recursion through an FD-free relation.
      R"(.infinite t/2.
         r(X) :- t(X,Y), r(Y).
         r(X) :- b(X).
         ?- r(X).)",
      // Example 4, guarded: safe through the FD.
      R"(.infinite t/2.
         .fd t: 2 -> 1.
         r(X) :- t(X,Y), r(Y), a(Y).
         r(X) :- b(X).
         ?- r(X).)",
      // Example 4 without the guard: grounded unsafe cycle.
      R"(.infinite t/2.
         .fd t: 2 -> 1.
         r(X) :- t(X,Y), r(Y).
         r(X) :- b(X).
         ?- r(X).)",
      // Example 7: concat with every argument free.
      R"(concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
         concat([], Z, Z).
         ?- concat(A, B, C).)",
      // Example 7 with the result bound: the costliest escape-mode
      // search, so each pool thread runs its own search scratch.
      R"(concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
         concat([], Z, Z).
         ?- concat(A, B, [1,2,3]).)",
      // Example 11: recursion never grounded (emptiness pruning).
      R"(.infinite f/2.
         .fd f: 2 -> 1.
         r(X) :- f(X,Y), r(Y).
         ?- r(X).)",
      // Example 13: monotonicity escape (memo and SCC short-circuits
      // are disabled on this path; it must still be deterministic).
      R"(.infinite f/2.
         .infinite g/2.
         .fd f: 2 -> 1.
         .fd g: 2 -> 1.
         .mono f: 2 > 1.
         .mono g: 2 > 1.
         .mono f: 1 > const(0).
         .mono g: 1 > const(0).
         r(X,U) :- f(X,Y), g(U,V), r(Y,V).
         r(X,U) :- b(X,U).
         ?- r(X,U).)",
  };
  for (const char* text : kTexts) ExpectJobsAgree(text);
}

/// One recursive predicate of the given arity, every argument stepping
/// through the FD'd relation and only even positions guarded — a mix of
/// safe and unsafe positions that all need real subset searches.
std::string WideArityText(int arity) {
  std::string head, rec, body, guards;
  for (int i = 0; i < arity; ++i) {
    head += StrCat(i ? "," : "", "X", i);
    rec += StrCat(i ? "," : "", "Y", i);
    body += StrCat("f(X", i, ",Y", i, "), ");
    if (i % 2 == 0) guards += StrCat(", a", i, "(Y", i, ")");
  }
  std::string text = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  text += StrCat("r(", head, ") :- ", body, "r(", rec, ")", guards, ".\n");
  text += StrCat("r(", head, ") :- base(", head, ").\n");
  text += StrCat("?- r(", head, ").\n");
  return text;
}

TEST(ParallelAnalyzerTest, WideArityProgramAgreesAcrossJobCounts) {
  ExpectJobsAgree(WideArityText(6));
}

TEST(ParallelAnalyzerTest, WideArityUsesThePoolOnlyWhenAsked) {
  auto program = ParseProgram(WideArityText(6));
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  AnalyzerOptions serial;
  serial.jobs = 1;
  auto a1 = SafetyAnalyzer::Create(*program, serial);
  ASSERT_TRUE(a1.ok());
  a1->AnalyzeQueries();
  EXPECT_EQ(a1->counters().parallel_tasks, 0u);
  EXPECT_EQ(a1->counters().serial_tasks, 6u);

  AnalyzerOptions parallel;
  parallel.jobs = 8;
  auto a8 = SafetyAnalyzer::Create(*program, parallel);
  ASSERT_TRUE(a8.ok());
  a8->AnalyzeQueries();
  EXPECT_EQ(a8->counters().parallel_tasks, 6u);
  EXPECT_EQ(a8->counters().serial_tasks, 0u);

  // The shared atomic steps tally aggregates the same per-position
  // budgets either way.
  EXPECT_EQ(a1->counters().steps, a8->counters().steps);
  EXPECT_EQ(a1->counters().positions_analyzed,
            a8->counters().positions_analyzed);
}

TEST(ParallelAnalyzerTest, BudgetExhaustionIsDeterministicAcrossJobCounts) {
  // Both positions force a real search (a derived self-occurrence keeps
  // an f-free forward cycle possible, so no SCC short-circuit applies)
  // and a budget of one step exhausts each of them independently.
  const char* text =
      ".infinite t/2.\n"
      ".fd t: 2 -> 1.\n"
      ".infinite t2/2.\n"
      "p(X1,X2) :- p(X1,X2), t(X1,Y1), t(X2,Y2).\n"
      "p(X1,X2) :- t2(X1,Z1), t2(X2,Z2).\n"
      "?- p(X1,X2).\n";
  ExpectJobsAgree(text, /*budget=*/1);

  // And the verdict really is the budget-exhaustion one.
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok());
  AnalyzerOptions opts;
  opts.jobs = 8;
  opts.subset_budget = 1;
  auto analyzer = SafetyAnalyzer::Create(*program, opts);
  ASSERT_TRUE(analyzer.ok());
  std::vector<QueryAnalysis> qs = analyzer->AnalyzeQueries();
  ASSERT_EQ(qs.size(), 1u);
  EXPECT_EQ(qs[0].overall, Safety::kUndecided);
  for (const ArgumentVerdict& a : qs[0].args) {
    EXPECT_EQ(a.safety, Safety::kUndecided);
    EXPECT_NE(a.explanation.find("budget exhausted"), std::string::npos)
        << a.explanation;
  }
}

TEST(ParallelAnalyzerTest, ExpiredDeadlineIsDeterministicAcrossJobCounts) {
  // A deadline that is already expired when the analysis starts must
  // stop every search at step 0, at every job count, so the degraded
  // verdicts (positions, stop reasons and explanation strings) are
  // bit-identical between jobs=1 and jobs=8. (Mid-flight expiry is
  // scheduling-dependent by design; only the pre-expired case carries
  // the determinism contract — DESIGN.md, D13.)
  const char* text =
      ".infinite t/2.\n"
      ".fd t: 2 -> 1.\n"
      ".infinite t2/2.\n"
      "p(X1,X2) :- p(X1,X2), t(X1,Y1), t(X2,Y2).\n"
      "p(X1,X2) :- t2(X1,Z1), t2(X2,Z2).\n"
      "?- p(X1,X2).\n";
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  // Building under an expired deadline fails with kDeadlineExceeded
  // rather than producing verdicts.
  {
    AnalyzerOptions opts;
    opts.exec.deadline = Deadline::AfterMillis(0);
    auto analyzer = SafetyAnalyzer::Create(*program, opts);
    ASSERT_FALSE(analyzer.ok());
    EXPECT_EQ(analyzer.status().code(), StatusCode::kDeadlineExceeded)
        << analyzer.status().ToString();
  }

  // The serve path: build normally, then install the expired context.
  auto analyze_degraded = [&](int jobs) {
    AnalyzerOptions opts;
    opts.jobs = jobs;
    auto analyzer = SafetyAnalyzer::Create(*program, opts);
    EXPECT_TRUE(analyzer.ok());
    ExecContext exec;
    exec.deadline = Deadline::AfterMillis(0);
    analyzer->set_exec(exec);
    return analyzer->AnalyzeQueries();
  };
  std::vector<QueryAnalysis> q1 = analyze_degraded(1);
  std::vector<QueryAnalysis> q8 = analyze_degraded(8);
  ASSERT_EQ(q1.size(), 1u);
  ASSERT_EQ(q8.size(), 1u);
  EXPECT_EQ(q1[0].overall, Safety::kUndecided);
  ASSERT_EQ(q1[0].args.size(), q8[0].args.size());
  for (size_t k = 0; k < q1[0].args.size(); ++k) {
    EXPECT_EQ(q1[0].args[k].safety, Safety::kUndecided);
    EXPECT_EQ(q1[0].args[k].stop, StopReason::kDeadline);
    EXPECT_EQ(q8[0].args[k].stop, StopReason::kDeadline);
    EXPECT_EQ(q1[0].args[k].explanation, q8[0].args[k].explanation)
        << "arg " << k << " explanation differs";
    EXPECT_NE(q1[0].args[k].explanation.find("deadline"),
              std::string::npos)
        << q1[0].args[k].explanation;
  }
}

TEST(ParallelAnalyzerTest, CancellationDegradesWithCancelledReason) {
  const char* text =
      ".infinite t/2.\n"
      ".fd t: 2 -> 1.\n"
      ".infinite t2/2.\n"
      "p(X1,X2) :- p(X1,X2), t(X1,Y1), t(X2,Y2).\n"
      "p(X1,X2) :- t2(X1,Z1), t2(X2,Z2).\n"
      "?- p(X1,X2).\n";
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok());
  auto analyzer = SafetyAnalyzer::Create(*program, {});
  ASSERT_TRUE(analyzer.ok());
  CancelToken cancel;
  cancel.Cancel();  // cancelled before the analysis starts
  ExecContext exec;
  exec.cancel = &cancel;
  analyzer->set_exec(exec);
  std::vector<QueryAnalysis> qs = analyzer->AnalyzeQueries();
  ASSERT_EQ(qs.size(), 1u);
  for (const ArgumentVerdict& a : qs[0].args) {
    EXPECT_EQ(a.safety, Safety::kUndecided);
    EXPECT_EQ(a.stop, StopReason::kCancelled);
    EXPECT_NE(a.explanation.find("cancelled"), std::string::npos)
        << a.explanation;
  }
}

TEST(ParallelAnalyzerTest, DegradedVerdictsAreNeverCached) {
  // A deadline-degraded kUndecided must not poison the cache: a later
  // analysis with time to spare has to redo the search. A *budget*-
  // stopped kUndecided, by contrast, is a deterministic property of
  // the program + options and does cache. The program forces a real
  // search on both positions (no SCC short-circuit applies — those
  // O(1) verdicts stay valid, and cacheable, even under an expired
  // deadline) and a one-step budget keeps the fault-free run cheap.
  const char* text =
      ".infinite t/2.\n"
      ".fd t: 2 -> 1.\n"
      ".infinite t2/2.\n"
      "p(X1,X2) :- p(X1,X2), t(X1,Y1), t(X2,Y2).\n"
      "p(X1,X2) :- t2(X1,Z1), t2(X2,Z2).\n"
      "?- p(X1,X2).\n";
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok());
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  opts.subset_budget = 1;
  auto analyzer = SafetyAnalyzer::Create(*program, opts);
  ASSERT_TRUE(analyzer.ok());

  ExecContext expired;
  expired.deadline = Deadline::AfterMillis(0);
  analyzer->set_exec(expired);
  std::vector<QueryAnalysis> degraded = analyzer->AnalyzeQueries();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].overall, Safety::kUndecided);
  for (const ArgumentVerdict& a : degraded[0].args) {
    EXPECT_EQ(a.stop, StopReason::kDeadline);
  }
  EXPECT_EQ(cache.size(), 0u) << "degraded verdict leaked into the cache";

  analyzer->set_exec(ExecContext{});  // deadline lifted
  std::vector<QueryAnalysis> fresh = analyzer->AnalyzeQueries();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].overall, Safety::kUndecided);
  for (const ArgumentVerdict& a : fresh[0].args) {
    EXPECT_EQ(a.stop, StopReason::kBudget);
  }
  EXPECT_GT(cache.size(), 0u) << "budget-stopped verdicts should cache";
}

}  // namespace
}  // namespace hornsafe
