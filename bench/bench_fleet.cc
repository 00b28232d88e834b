// Fleet corpus-driver throughput: `RunFleet` over a generated corpus
// of K programs that share library modules (K / kModules programs per
// module, so the shared cache serves one program's module verdicts to
// all its siblings), swept over a procs x cache grid:
//
//   * cache=off — every worker re-derives everything; the baseline.
//   * cache=on  — one shared disk tier, fresh per run (cold), so the
//     measured hit rate is pure cross-program reuse.
//
// Reported per grid point: corpus wall time, programs/sec, the
// cross-program verdict hit rate, and per-program p50/p99 wall time
// (from the per-program timings the workers report). A warm row
// re-runs procs=4 over the populated tier. Results go to
// BENCH_fleet.json; CI asserts cross_program_hit_rate > 0.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fleet.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

constexpr int kPrograms = 48;
constexpr int kModules = 6;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "bench_fleet: %s\n", what);
    std::abort();
  }
}

/// Library module `m` — shared verbatim by kPrograms/kModules programs.
std::string ModuleText(int m) {
  std::string p = StrCat("lib", m);
  return StrCat(".infinite step", m, "/2.\n",
                ".fd step", m, ": 1 -> 2.\n",
                ".fd step", m, ": 2 -> 1.\n",
                ".mono step", m, ": 2 > 1.\n",
                "edge", m, "(n0, n1).\n",
                "edge", m, "(n1, n2).\n",
                p, "(X, Y, 1) :- edge", m, "(X, Y).\n",
                p, "(X, Y, J) :- edge", m, "(X, Z), ", p,
                "(Z, Y, I), step", m, "(I, J).\n");
}

std::string ProgramText(int i) {
  int m = i % kModules;
  std::string p = StrCat("lib", m);
  return StrCat(ModuleText(m),
                "top", i, "(X) :- ", p, "(X, Y, 2), edge", m, "(Y, Z).\n",
                "?- ", p, "(n0, Y, 2).\n",
                "?- top", i, "(X).\n");
}

/// The corpus directory, removed when the process exits.
struct Corpus {
  std::string dir;
  ~Corpus() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// One corpus per process, generated once.
const std::string& CorpusDir() {
  static const Corpus corpus = [] {
    fs::path d = fs::temp_directory_path() /
                 StrCat("hornsafe_bench_fleet_corpus_", ::getpid());
    fs::remove_all(d);
    fs::create_directories(d);
    for (int i = 0; i < kPrograms; ++i) {
      std::ofstream(d / StrCat("prog_", i / 10, i % 10, ".hs"))
          << ProgramText(i);
    }
    return Corpus{d.string()};
  }();
  return corpus.dir;
}

struct FleetRun {
  double wall_seconds = 0;
  double hit_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

FleetRun RunOnce(int procs, const std::string& cache_dir) {
  FleetOptions opts;
  opts.corpus_dir = CorpusDir();
  opts.cache_dir = cache_dir;
  opts.procs = procs;
  opts.worker_exe = HORNSAFE_CLI_PATH;  // this binary has no fleet-worker mode
  auto report = RunFleet(opts);
  Check(report.ok(), "RunFleet failed");
  Check(report->errors == 0, "fleet reported program errors");
  Check(report->analyzed == kPrograms, "fleet lost programs");

  std::vector<double> per_program_ms;
  per_program_ms.reserve(report->programs.size());
  for (const FleetProgramResult& p : report->programs) {
    per_program_ms.push_back(p.wall_seconds * 1e3);
  }
  std::sort(per_program_ms.begin(), per_program_ms.end());
  FleetRun out;
  out.wall_seconds = report->wall_seconds;
  out.hit_rate = report->verdict_hit_rate;
  out.p50_ms = per_program_ms[per_program_ms.size() / 2];
  out.p99_ms = per_program_ms[std::min(per_program_ms.size() - 1,
                                       per_program_ms.size() * 99 / 100)];
  return out;
}

void BM_Fleet(benchmark::State& state, const char* label, bool cached,
              bool warm) {
  const int procs = static_cast<int>(state.range(0));
  static int run_seq = 0;
  FleetRun best;
  for (auto _ : state) {
    std::string cache_dir;
    if (cached) {
      cache_dir = (fs::temp_directory_path() /
                   StrCat("hornsafe_bench_fleet_cache_", ::getpid(), "_",
                          run_seq++))
                      .string();
      if (warm) {
        RunOnce(procs, cache_dir);  // populate; measure the rerun
      }
    }
    FleetRun round = RunOnce(procs, cache_dir);
    if (best.wall_seconds == 0 || round.wall_seconds < best.wall_seconds) {
      best = round;
    }
    if (!cache_dir.empty()) {
      std::error_code ec;
      fs::remove_all(cache_dir, ec);
    }
  }
  state.counters["wall_s"] = best.wall_seconds;
  state.counters["hit_rate"] = best.hit_rate;

  bench::JsonDump& dump = bench::JsonDump::Get("fleet");
  std::string name = StrCat(label, "/procs=", procs);
  dump.Record(name, "wall_seconds", best.wall_seconds);
  dump.Record(name, "programs_per_sec",
              static_cast<double>(kPrograms) / best.wall_seconds);
  dump.Record(name, "cross_program_hit_rate", best.hit_rate);
  dump.Record(name, "p50_ms", best.p50_ms);
  dump.Record(name, "p99_ms", best.p99_ms);
}

// Cold cache-off vs cache-on across the procs grid isolates what the
// shared tier buys at each worker count; the warm row is the steady
// state a long-lived cache directory converges to.
BENCHMARK_CAPTURE(BM_Fleet, cache_off, "cache_off", false, false)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, cache_cold, "cache_cold", true, false)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, cache_warm, "cache_warm", true, true)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hornsafe
