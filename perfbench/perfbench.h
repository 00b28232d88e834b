#ifndef HORNSAFE_PERFBENCH_PERFBENCH_H_
#define HORNSAFE_PERFBENCH_PERFBENCH_H_

// Shared plumbing of the benchmark runner: run configuration, the
// known-answer table, latency statistics, run-length control and the
// in-memory span recorder of traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Small inputs, for the self-test.
  bool smoke = false;
  /// > 0: run exactly this many ops (rounds, for fleet_sweep) instead of
  /// `seconds`, so that two runs do identical work.
  uint64_t ops = 0;
  /// Set-up repetitions; setup_s is their median.
  int setup_reps = 5;
  std::string inputs_dir;
  std::string known_answers;
  /// Per-run scratch root (corpora, cache dirs); removed at exit.
  std::string run_root;
  /// Where a traced run writes its spans (JSON lines).
  std::string trace_out;
  /// The hornsafe CLI, run as the fleet worker.
  std::string cli_path;
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);

/// CPU seconds of this process plus its reaped children, and their
/// peak resident set (MB).
struct ProcUsage {
  double cpu_s = 0;
  double peak_rss_mb = 0;
};
ProcUsage ReadProcUsage();

/// Expected verdicts, one line per input:
///   <key> <verdict>[,<verdict>...]   # reason
/// The list gives the verdicts of the input's queries in query order,
/// repeated as often as needed: one verdict applies to every query.
class KnownAnswers {
 public:
  bool Load(const std::string& path, std::string* error);
  /// True when `got` matches the entry for `key` (false when missing).
  bool Matches(const std::string& key,
               const std::vector<std::string>& got) const;
  /// Keys starting with `prefix`, sorted.
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

 private:
  std::map<std::string, std::vector<std::string>> entries_;
};

/// FNV-1a over an op sequence, to show two runs issued the same ops.
class Digest {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 1099511628211ull;
    h_ = (h_ ^ 0xff) * 1099511628211ull;
  }
  void Add(uint64_t v) { Add(std::to_string(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// One traced interval at a layer boundary. Spans of one op share `op`;
/// `parent` is the index of the enclosing span, -1 for an op's root.
/// `counts` carries the change in the program's own counters across
/// the boundary.
struct Span {
  uint64_t op = 0;
  const char* name = "";
  int64_t parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  std::vector<std::pair<const char*, double>> counts;
};

/// Spans are kept in memory during the run and written out at its end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  double Ms(Clock::time_point t) const { return MsBetween(origin_, t); }
  /// Thread-safe; returns the span's index (a parent handle).
  int64_t Add(Span span);
  bool Write(const std::string& path, const std::string& header) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Sums of per-op values by metric name; workloads turn them into
/// means and ratios.
class Sums {
 public:
  void Add(const std::string& name, double v) { sums_[name] += v; }
  double Get(const std::string& name) const;
  /// num / den, 0 when den is 0.
  double Ratio(const std::string& num, const std::string& den) const;
  void Merge(const Sums& other);

 private:
  std::map<std::string, double> sums_;
};

/// Run-length control shared by every workload. A run ends after
/// `seconds` (or after `ops` ops per client). A traced run alternates
/// eight slices, untraced then traced, so trace.overhead_frac compares
/// the two modes over the same stretch of the run.
class Loop {
 public:
  Loop(const Config& cfg, int clients);
  void Start();
  /// Whether a client that has finished `done` ops starts another.
  bool More(uint64_t done) const;
  /// Whether that op is traced.
  bool Traced(uint64_t done) const;
  double ElapsedS() const;

 private:
  const Config& cfg_;
  uint64_t per_client_ops_ = 0;
  Clock::time_point start_;
};

/// What one workload run produced.
struct Outcome {
  /// Infrastructure failure (not a wrong verdict): no result is printed.
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failures, for stderr.
  std::vector<std::string> failures;
  double setup_s = 0;
  /// Wall time of the measured loop and the ops it completed
  /// (programs, for fleet_sweep).
  double wall_s = 0;
  uint64_t ops = 0;
  /// Per-op latency (ms) of every op of the measured loop.
  std::vector<double> latency_ms;
  /// Threads or processes doing the work, for proc.wait_frac.
  int concurrency = 1;
  /// Mean op time in untraced and traced slices (traced runs only).
  Sums mode;
  /// Per-layer metrics, by BENCHMARK.json name.
  std::map<std::string, double> layer;
  /// Op sequence and the counts that must repeat exactly for a seed.
  Digest digest;
  std::map<std::string, double> repeatable;

  void Fail(const std::string& why, uint64_t ops = 1);
};

// The workloads (workloads.cc). `tracer` is null in untraced runs.
void RunColdCheck(const Config& cfg, const KnownAnswers& answers,
                  Tracer* tracer, Outcome* out);
void RunServeEditors(const Config& cfg, const KnownAnswers& answers,
                     Tracer* tracer, Outcome* out);
void RunFleetSweep(const Config& cfg, const KnownAnswers& answers,
                   Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // HORNSAFE_PERFBENCH_PERFBENCH_H_
