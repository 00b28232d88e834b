// Algorithm 2 (And-Or_H construction) and condensation cost —
// experiments E4 and E22. The paper notes there are up to 2^n
// adornments of an n-place head, so the arity sweeps are exponential
// by design; the rule-count sweep at fixed arity is linear.

#include <benchmark/benchmark.h>

#include "andor/build.h"
#include "andor/scc.h"
#include "bench/bench_util.h"

namespace hornsafe {
namespace {

void BM_AdornArity(benchmark::State& state) {
  Program p = bench::WideHead(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto h = BuildAdornedProgram(p);
    benchmark::DoNotOptimize(h);
  }
  auto h = BuildAdornedProgram(p);
  state.counters["adorned_rules"] = static_cast<double>(h->rules.size());
}
BENCHMARK(BM_AdornArity)->DenseRange(1, 12, 1);

void BM_BuildSystemArity(benchmark::State& state) {
  Program p = bench::WideHead(static_cast<int>(state.range(0)));
  auto h = BuildAdornedProgram(p);
  for (auto _ : state) {
    auto s = BuildAndOrSystem(p, *h);
    benchmark::DoNotOptimize(s);
  }
  auto s = BuildAndOrSystem(p, *h);
  state.counters["nodes"] = static_cast<double>(s->nodes().size());
  state.counters["rules"] = static_cast<double>(s->num_rules());
}
BENCHMARK(BM_BuildSystemArity)->DenseRange(1, 8, 1);

void BM_SccArity(benchmark::State& state) {
  // The condensation stage over the system BM_BuildSystemArity builds:
  // capability worklist, union-graph Tarjan and the reach bitsets.
  Program p = bench::WideHead(static_cast<int>(state.range(0)));
  auto h = BuildAdornedProgram(p);
  auto s = BuildAndOrSystem(p, *h);
  for (auto _ : state) {
    SccAnalysis a = SccAnalysis::Compute(*s);
    benchmark::DoNotOptimize(a);
  }
  state.counters["sccs"] =
      static_cast<double>(SccAnalysis::Compute(*s).num_sccs());
}
BENCHMARK(BM_SccArity)->DenseRange(1, 8, 1);

void BM_BuildSystemChainDepth(benchmark::State& state) {
  Program p = bench::GuardedChain(static_cast<int>(state.range(0)));
  auto h = BuildAdornedProgram(p);
  for (auto _ : state) {
    auto s = BuildAndOrSystem(p, *h);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildSystemChainDepth)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity(benchmark::oN);

void BM_BuildSystemWithFdClosure(benchmark::State& state) {
  // use_fd_closure enumerates subsets per infinite-occurrence argument.
  std::string text = ".infinite f/6.\n.fd f: 2 -> 1.\n.fd f: 3 -> 2.\n";
  text += "r(X) :- f(X,A,B,C,D,E), g(A,B,C,D,E).\n";
  Program p = bench::MustParse(text);
  auto h = BuildAdornedProgram(p);
  BuildOptions opts;
  opts.use_fd_closure = state.range(0) != 0;
  for (auto _ : state) {
    auto s = BuildAndOrSystem(p, *h, opts);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_BuildSystemWithFdClosure)->Arg(0)->Arg(1);

}  // namespace
}  // namespace hornsafe
