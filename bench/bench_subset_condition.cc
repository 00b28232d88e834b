// Subset-condition decision cost — experiment E5 (Lemma 8). Two knobs:
// chain depth (the paper's n, the number of distinct literals) and
// parallel rules per literal (the paper's m). The counterexample search
// is exponential in the worst case; capability pruning collapses the
// safe chain family to near-linear, while the m-sweep exposes the
// per-literal branching factor.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "andor/build.h"
#include "andor/emptiness.h"
#include "andor/reduce.h"
#include "andor/subset.h"
#include "bench/bench_util.h"
#include "canonical/canonical.h"
#include "constraints/mono.h"
#include "core/analyzer.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

struct Prepared {
  Program program;
  AndOrSystem system;
  NodeId root;
};

Prepared Prepare(Program p, const char* query_pred) {
  auto h = BuildAdornedProgram(p);
  auto s = BuildAndOrSystem(p, *h);
  AndOrSystem system = std::move(s).value();
  ApplyEmptinessPruning(EmptyPredicates(p), &system);
  ReduceSystem(&system);
  PredicateId pred = p.FindPredicate(query_pred, 1);
  NodeId root = system.FindHeadArg(pred, 0, 0);
  return Prepared{std::move(p), std::move(system), root};
}

void BM_SubsetSafeChainDepth(benchmark::State& state) {
  Prepared prep =
      Prepare(bench::GuardedChain(static_cast<int>(state.range(0))), "r0");
  uint64_t steps = 0;
  for (auto _ : state) {
    SubsetResult res = CheckSubsetCondition(prep.system, prep.root, {});
    steps = res.steps;
    benchmark::DoNotOptimize(res);
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SubsetSafeChainDepth)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity();

void BM_SubsetUnsafeChainDepth(benchmark::State& state) {
  Prepared prep = Prepare(
      bench::UnguardedChain(static_cast<int>(state.range(0))), "r0");
  uint64_t steps = 0;
  for (auto _ : state) {
    SubsetResult res = CheckSubsetCondition(prep.system, prep.root, {});
    steps = res.steps;
    benchmark::DoNotOptimize(res);
  }
  state.counters["steps"] = static_cast<double>(steps);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SubsetUnsafeChainDepth)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity();

void BM_SubsetRulesPerLiteral(benchmark::State& state) {
  Prepared prep =
      Prepare(bench::ParallelRules(static_cast<int>(state.range(0))), "r");
  uint64_t graphs = 0;
  for (auto _ : state) {
    SubsetResult res = CheckSubsetCondition(prep.system, prep.root, {});
    graphs = res.graphs_checked;
    benchmark::DoNotOptimize(res);
  }
  state.counters["graphs"] = static_cast<double>(graphs);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SubsetRulesPerLiteral)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

// --- Memoization vs brute force on the shared-diamond family ---------
//
// SharedDiamond(m) is safe, and deciding it without memoization costs
// an enumeration exponential in m (every 2^m chain assignment is
// completed and then rejected by the cycle through `b`), while the
// SCC-delegating search settles each chain node once. The recorded
// steps ratio is the headline number of EXPERIMENTS.md E13.

void BM_SubsetDiamondMemo(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Prepared prep = Prepare(bench::SharedDiamond(m), "b0");
  SubsetOptions memo;  // defaults: SCC delegation + memoization on
  uint64_t steps_memo = 0;
  double seconds = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    SubsetResult res = CheckSubsetCondition(prep.system, prep.root, memo);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    steps_memo = res.steps;
    benchmark::DoNotOptimize(res);
  }
  // One reference (brute-force) run, outside the timed loop.
  SubsetOptions reference;
  reference.use_scc = false;
  reference.use_memo = false;
  SubsetResult memo_res = CheckSubsetCondition(prep.system, prep.root, memo);
  SubsetResult ref_res =
      CheckSubsetCondition(prep.system, prep.root, reference);
  state.counters["steps_memo"] = static_cast<double>(steps_memo);
  state.counters["steps_reference"] = static_cast<double>(ref_res.steps);
  bench::JsonDump& dump = bench::JsonDump::Get("safety");
  std::string name = StrCat("subset_diamond/m=", m);
  dump.Record(name, "steps_memo", static_cast<double>(memo_res.steps));
  dump.Record(name, "steps_reference", static_cast<double>(ref_res.steps));
  dump.Record(name, "steps_ratio",
              static_cast<double>(ref_res.steps) /
                  static_cast<double>(std::max<uint64_t>(1, memo_res.steps)));
  dump.Record(name, "seconds_memo",
              seconds / static_cast<double>(state.iterations()));
  dump.Record(name, "verdicts_agree",
              memo_res.verdict == ref_res.verdict ? 1.0 : 0.0);
}
BENCHMARK(BM_SubsetDiamondMemo)->Arg(4)->Arg(8)->Arg(12);

void BM_SubsetDiamondReference(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Prepared prep = Prepare(bench::SharedDiamond(m), "b0");
  SubsetOptions reference;
  reference.use_scc = false;
  reference.use_memo = false;
  uint64_t steps = 0;
  double seconds = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    SubsetResult res =
        CheckSubsetCondition(prep.system, prep.root, reference);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    steps = res.steps;
    benchmark::DoNotOptimize(res);
  }
  state.counters["steps"] = static_cast<double>(steps);
  bench::JsonDump::Get("safety").Record(
      StrCat("subset_diamond/m=", m), "seconds_reference",
      seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SubsetDiamondReference)->Arg(4)->Arg(8)->Arg(12);

void BM_SubsetConcatBoundResult(benchmark::State& state) {
  // The costliest escape-mode search of the paper examples: Example 7
  // with the result bound, decided through constructor FDs + Theorem 5
  // (memo and SCC short-circuits are off under the escape). The
  // pipeline runs once; each iteration repeats the query's subset
  // searches exactly as the analyzer runs them, with its condensation
  // and monotonicity escape.
  auto analyzer = SafetyAnalyzer::Create(bench::MustParse(R"(
    concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
    concat([], Z, Z).
    ?- concat(A, B, [1,2,3]).
  )"));
  if (!analyzer.ok()) std::abort();
  std::shared_ptr<const AnalysisSnapshot> snap = analyzer->snapshot();
  // Canonicalization wraps the query in an all-free derived predicate.
  const Literal& query = snap->canon->program.queries().at(0);
  SubsetOptions opts;
  opts.escape = snap->mono->MakeEscape();
  opts.scc = snap->scc.get();
  uint64_t steps = 0;
  for (auto _ : state) {
    steps = 0;
    for (uint32_t k = 0; k < query.args.size(); ++k) {
      SubsetResult res = CheckSubsetCondition(
          snap->system, snap->system.FindHeadArg(query.pred, 0, k), opts);
      steps += res.steps;
      benchmark::DoNotOptimize(res);
    }
  }
  state.counters["steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_SubsetConcatBoundResult);

}  // namespace
}  // namespace hornsafe
