#ifndef HORNSAFE_TESTS_ANDOR_ANDOR_TEST_UTIL_H_
#define HORNSAFE_TESTS_ANDOR_ANDOR_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "andor/build.h"
#include "andor/emptiness.h"
#include "andor/lfp.h"
#include "andor/reduce.h"
#include "andor/subset.h"
#include "canonical/canonical.h"
#include "parser/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hornsafe {

/// Shared test fixture state: the full analysis pipeline for one program
/// text (parse -> canonicalize -> adorn -> And-Or build, with optional
/// Algorithm 3 / Algorithm 4 passes).
struct TestPipeline {
  Program program;
  AdornedProgram adorned;
  AndOrSystem system;

  /// Root node for the k-th argument (0-based) of `pred_name/arity`
  /// under the all-free adornment.
  NodeId QueryRoot(std::string_view pred_name, uint32_t arity,
                   uint32_t k) const {
    PredicateId pred = program.FindPredicate(pred_name, arity);
    EXPECT_NE(pred, kInvalidPredicate) << pred_name;
    return system.FindHeadArg(pred, 0, k);
  }

  Safety Check(std::string_view pred_name, uint32_t arity, uint32_t k,
               uint64_t budget = 5'000'000) const {
    SubsetOptions opts;
    opts.budget = budget;
    return CheckSubsetCondition(system, QueryRoot(pred_name, arity, k), opts)
        .verdict;
  }
};

struct PipelineOptions {
  bool apply_emptiness = true;
  bool apply_reduce = true;
  bool use_fd_closure = false;
};

/// Parses, canonicalizes, adorns and builds `text`, then applies the
/// requested passes; false when a stage rejects the program.
inline bool TryMakePipeline(std::string_view text,
                            const PipelineOptions& popts, TestPipeline* out) {
  auto parsed = ParseProgram(text);
  if (!parsed.ok()) return false;
  auto canon = Canonicalize(*parsed);
  if (!canon.ok()) return false;
  out->program = std::move(canon->program);
  auto adorned = BuildAdornedProgram(out->program);
  if (!adorned.ok()) return false;
  out->adorned = std::move(adorned).value();
  BuildOptions bopts;
  bopts.use_fd_closure = popts.use_fd_closure;
  auto system = BuildAndOrSystem(out->program, out->adorned, bopts);
  if (!system.ok()) return false;
  out->system = std::move(system).value();
  if (popts.apply_emptiness) {
    ApplyEmptinessPruning(EmptyPredicates(out->program), &out->system);
  }
  if (popts.apply_reduce) {
    ReduceSystem(&out->system);
  }
  return true;
}

inline TestPipeline MakePipeline(std::string_view text,
                                 const PipelineOptions& popts = {}) {
  TestPipeline out;
  EXPECT_TRUE(TryMakePipeline(text, popts, &out)) << text;
  return out;
}

/// `r(X0..Xn-1) :- b0(X0), ..., bn-1(Xn-1).` plus a recursive rule: the
/// 2^arity adornment blow-up of Algorithm 2 (bench/bench_util.h's
/// WideHead).
inline std::string WideHeadText(int arity) {
  std::string head_vars, body;
  for (int i = 0; i < arity; ++i) {
    head_vars += StrCat(i > 0 ? "," : "", "X", i);
    body += StrCat(i > 0 ? ", " : "", "b", i, "(X", i, ")");
  }
  return StrCat("r(", head_vars, ") :- ", body, ".\n", "r(", head_vars,
                ") :- r(", head_vars, "), c(X0).\n");
}

/// A safe chain of `depth` derived predicates, each reading the next
/// through an FD-guarded infinite relation (bench's GuardedChain).
inline std::string GuardedChainText(int depth) {
  std::string text = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    text += StrCat("r", i, "(X) :- f(X,Y), r", i + 1, "(Y), g", i,
                   "(Y).\n");
  }
  return StrCat(text, "r", depth, "(X) :- base(X).\n?- r0(X).\n");
}

/// A ring of `m` predicates, each with its own two-way diamond
/// (bench's SharedDiamond).
inline std::string SharedDiamondText(int m) {
  std::string text =
      ".infinite f/2.\n.fd f: 2 -> 1.\n"
      ".infinite g/2.\n.fd g: 2 -> 1.\n"
      ".infinite t2/2.\n";
  for (int i = 0; i < m; ++i) {
    text += StrCat("b", i, "(X) :- d", i, "(X), b", (i + 1) % m, "(X).\n");
    text += StrCat("d", i, "(X) :- f(X,Y), e", i, "(Y).\n");
    text += StrCat("d", i, "(X) :- g(X,Y), e", i, "(Y).\n");
    text += StrCat("e", i, "(X) :- t2(X,Z).\n");
  }
  return StrCat(text, "b0(X) :- c(X).\n?- b0(X).\n");
}

/// A random program over unary derived predicates r0..r{k-1}, a binary
/// infinite relation f (with a random FD set), finite base predicates.
/// Each rule is either base (r_i(X) :- b(X)) or a step through f to a
/// random callee, optionally guarded.
inline std::string RandomProgramText(Rng* rng, bool force_guards,
                                     bool extra_fds) {
  int k = 2 + static_cast<int>(rng->Below(3));
  std::string text = ".infinite f/2.\n";
  if (rng->Chance(2, 3)) text += ".fd f: 2 -> 1.\n";
  if (rng->Chance(1, 3)) text += ".fd f: 1 -> 2.\n";
  if (extra_fds) text += ".fd f: 2 -> 1.\n.fd f: 1 -> 2.\n";
  for (int i = 0; i < k; ++i) {
    int callee = static_cast<int>(rng->Below(k));
    // Draw the coin unconditionally so that two generators with the same
    // seed produce structurally identical programs modulo the guards.
    bool coin = rng->Chance(1, 2);
    bool guard = force_guards || coin;
    text += StrCat("r", i, "(X) :- f(X,Y), r", callee, "(Y)",
                   guard ? ", a(Y)" : "", ".\n");
    if (rng->Chance(2, 3)) text += StrCat("r", i, "(X) :- b(X).\n");
  }
  text += "?- r0(X).\n";
  return text;
}

}  // namespace hornsafe

#endif  // HORNSAFE_TESTS_ANDOR_ANDOR_TEST_UTIL_H_
