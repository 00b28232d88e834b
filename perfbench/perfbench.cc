// perfbench: the hornsafe benchmark runner. Runs one seeded workload
// against the library's public entry points and prints one JSON result
// line (see README.md for the protocol). Normally started through
// run.py, which builds this binary and stamps provenance:
//
//   perfbench --workload cold_check --seed 1 --seconds 35 --trace 0
//             --inputs perfbench/inputs
//             --known-answers perfbench/known_answers.txt
//             --run-root .bench_build/runs/<pid>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

ProcUsage ReadProcUsage() {
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  ProcUsage u;
  u.cpu_s = seconds(self.ru_utime) + seconds(self.ru_stime) +
            seconds(children.ru_utime) + seconds(children.ru_stime);
  // ru_maxrss is in KiB on Linux; for children it is the largest single
  // reaped descendant.
  u.peak_rss_mb =
      static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
      1024.0;
  return u;
}

bool KnownAnswers::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read known answers '" + path + "'";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    line = line.substr(0, line.find('#'));
    std::istringstream fields(line);
    std::string key, verdicts;
    if (!(fields >> key)) continue;
    if (!(fields >> verdicts)) {
      *error = "known answer '" + key + "' has no verdict";
      return false;
    }
    std::vector<std::string>& v = entries_[key];
    std::istringstream parts(verdicts);
    for (std::string part; std::getline(parts, part, ',');) v.push_back(part);
  }
  return true;
}

bool KnownAnswers::Matches(const std::string& key,
                           const std::vector<std::string>& got) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || got.empty()) return false;
  const std::vector<std::string>& want = it->second;
  if (got.size() % want.size() != 0) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i % want.size()]) return false;
  }
  return true;
}

std::vector<std::string> KnownAnswers::KeysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (const auto& [key, unused] : entries_) {
    if (key.compare(0, prefix.size(), prefix) == 0) keys.push_back(key);
  }
  return keys;
}

int64_t Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool Tracer::Write(const std::string& path, const std::string& header) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"op\":%llu,\"name\":\"%s\",\"parent\":%lld,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f,\"counts\":{",
                 i, static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.parent), s.start_ms, s.end_ms);
    for (size_t k = 0; k < s.counts.size(); ++k) {
      std::fprintf(f, "%s\"%s\":%.17g", k ? "," : "", s.counts[k].first,
                   s.counts[k].second);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

double Sums::Get(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

double Sums::Ratio(const std::string& num, const std::string& den) const {
  double d = Get(den);
  return d == 0 ? 0 : Get(num) / d;
}

void Sums::Merge(const Sums& other) {
  for (const auto& [name, v] : other.sums_) sums_[name] += v;
}

Loop::Loop(const Config& cfg, int clients) : cfg_(cfg) {
  per_client_ops_ = cfg.ops / static_cast<uint64_t>(std::max(clients, 1));
  if (cfg.ops > 0 && per_client_ops_ == 0) per_client_ops_ = 1;
}

void Loop::Start() { start_ = Clock::now(); }

bool Loop::More(uint64_t done) const {
  if (cfg_.ops > 0) return done < per_client_ops_;
  return ElapsedS() < cfg_.seconds;
}

bool Loop::Traced(uint64_t done) const {
  if (!cfg_.trace) return false;
  uint64_t slice = cfg_.ops > 0
                       ? done * 8 / per_client_ops_
                       : static_cast<uint64_t>(ElapsedS() * 8 / cfg_.seconds);
  return slice % 2 == 1;
}

double Loop::ElapsedS() const {
  return MsBetween(start_, Clock::now()) / 1e3;
}

void Outcome::Fail(const std::string& why, uint64_t ops) {
  failed += ops;
  if (failures.size() < 5) failures.push_back(why);
}

namespace {

/// Every per-layer metric, in BENCHMARK.json order. A traced run
/// reports all of them; a layer the workload does not exercise reads 0
/// (README.md lists which metric belongs to which workload).
const char* const kLayerMetrics[] = {
    "parser.parse_ms",
    "canonical.ms",
    "lang.fingerprint_ms",
    "fd.ms",
    "andor.adorn_ms",
    "andor.build_ms",
    "andor.prune_ms",
    "andor.scc_ms",
    "andor.search_ms",
    "andor.search_steps",
    "andor.memo_hit_rate",
    "andor.scc_short_circuit_frac",
    "andor.nodes",
    "andor.rules_live_frac",
    "analyzer.create_ms",
    "analyzer.create_self_ms",
    "analyzer.analyze_ms",
    "analyzer.analyze_self_ms",
    "analyzer.segment_graft_rate",
    "analyzer.node_share_frac",
    "analyzer.graft_rejections",
    "cache.verdict_hit_rate",
    "cache.segment_hit_rate",
    "cache.canon_hit_rate",
    "cache.verdict_evictions",
    "cache.segment_evictions",
    "cache.disk_stores_per_op",
    "cache.disk_hit_rate",
    "server.check_ms",
    "server.explain_ms",
    "server.lint_ms",
    "server.update_ms",
    "server.self_frac",
    "server.snapshot_swaps",
    "fleet.driver_overhead_frac",
    "fleet.cross_program_hit_rate",
    "fleet.respawns",
    "proc.cpu_ms_per_op",
    "proc.wait_frac",
    "trace.overhead_frac",
    "failed_frac",
};

struct Args {
  Config cfg;
  bool provenance = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  Config& c = args->cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--provenance") {
      args->provenance = true;
      continue;
    }
    if (a == "--smoke") {
      c.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return false;
    }
    std::string v = argv[++i];
    if (a == "--workload") {
      c.workload = v;
    } else if (a == "--seed") {
      c.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      c.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      c.trace = v == "1";
    } else if (a == "--ops") {
      c.ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--setup-reps") {
      c.setup_reps = std::max(1, std::atoi(v.c_str()));
    } else if (a == "--inputs") {
      c.inputs_dir = v;
    } else if (a == "--known-answers") {
      c.known_answers = v;
    } else if (a == "--run-root") {
      c.run_root = v;
    } else if (a == "--trace-out") {
      c.trace_out = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

std::string Provenance() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"optimized\":%s}",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
#ifdef __OPTIMIZE__
                "true"
#else
                "false"
#endif
  );
  return buf;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<std::pair<std::string, double>>& m,
                        const std::map<std::string, std::string>& units) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    out += (i ? ", \"" : "\"") + m[i].first + "\": {\"value\": " +
           Number(m[i].second) + ", \"unit\": \"" + units.at(m[i].first) +
           "\"}";
  }
  return out + "}";
}

std::string LayerUnit(const std::string& name) {
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
    return "ms";
  }
  if (name == "canonical.ms" || name == "fd.ms") return "ms";
  if (name == "andor.search_steps" || name == "andor.nodes" ||
      name == "analyzer.graft_rejections" || name == "cache.verdict_evictions" ||
      name == "cache.segment_evictions" || name == "cache.disk_stores_per_op") {
    return "count/op";
  }
  if (name == "server.snapshot_swaps") return "count/update";
  if (name == "fleet.respawns") return "count/round";
  if (name == "proc.cpu_ms_per_op") return "ms";
  return "ratio";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.provenance) {
    std::printf("%s\n", Provenance().c_str());
    return 0;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimized build (%s); "
               "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Config& cfg = args.cfg;
  cfg.cli_path = PERFBENCH_CLI_PATH;
  if (cfg.run_root.empty() || cfg.inputs_dir.empty() ||
      cfg.known_answers.empty()) {
    std::fprintf(stderr,
                 "perfbench: --run-root, --inputs and --known-answers are "
                 "required\n");
    return 2;
  }
  KnownAnswers answers;
  std::string error;
  if (!answers.Load(cfg.known_answers, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  using Runner = void (*)(const Config&, const KnownAnswers&, Tracer*,
                          Outcome*);
  Runner run = nullptr;
  if (cfg.workload == "cold_check") run = RunColdCheck;
  if (cfg.workload == "serve_editors") run = RunServeEditors;
  if (cfg.workload == "fleet_sweep") run = RunFleetSweep;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(cfg.run_root, ec);
  Tracer tracer(Clock::now());
  Outcome out;
  run(cfg, answers, cfg.trace ? &tracer : nullptr, &out);
  const ProcUsage usage = ReadProcUsage();
  std::filesystem::remove_all(cfg.run_root, ec);
  if (!out.error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                 out.error.c_str());
    return 1;
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "perfbench: %s: failed op: %s\n",
                 cfg.workload.c_str(), f.c_str());
  }

  // The same-seed self-test compares this line between runs.
  std::string repeat = "{\"ops_digest\": \"" +
                       std::to_string(out.digest.value()) + "\"";
  for (const auto& [name, v] : out.repeatable) {
    repeat += ", \"" + name + "\": " + Number(v);
  }
  std::printf("repeatable: %s}\n", repeat.c_str());

  std::vector<std::pair<std::string, double>> metrics;
  std::map<std::string, std::string> units;
  if (!cfg.trace) {
    const double ops_per_s =
        out.wall_s > 0 ? static_cast<double>(out.ops) / out.wall_s : 0;
    metrics = {{"setup_s", out.setup_s},
               {"ops_per_s", ops_per_s},
               {"latency_ms_p50", Percentile(out.latency_ms, 0.50)},
               {"latency_ms_p95", Percentile(out.latency_ms, 0.95)},
               {"peak_rss_mb", usage.peak_rss_mb}};
    units = {{"setup_s", "s"},
             {"ops_per_s", "1/s"},
             {"latency_ms_p50", "ms"},
             {"latency_ms_p95", "ms"},
             {"peak_rss_mb", "MB"}};
    std::fprintf(stderr, "perfbench: %s: %llu latency samples\n",
                 cfg.workload.c_str(),
                 static_cast<unsigned long long>(out.latency_ms.size()));
  } else {
    out.layer["failed_frac"] =
        out.attempted ? static_cast<double>(out.failed) / out.attempted : 0;
    // Tracing cost: mean op time in traced vs untraced slices.
    const double untraced = out.mode.Ratio("untraced_ms", "untraced_ops");
    const double traced = out.mode.Ratio("traced_ms", "traced_ops");
    out.layer["trace.overhead_frac"] =
        traced > 0 && untraced > 0 ? 1.0 - untraced / traced : 0;
    for (const char* name : kLayerMetrics) {
      auto it = out.layer.find(name);
      metrics.emplace_back(name, it == out.layer.end() ? 0.0 : it->second);
      units[name] = LayerUnit(name);
    }
    std::string header = "{\"workload\": \"" + cfg.workload +
                         "\", \"seed\": " + std::to_string(cfg.seed) +
                         ", \"provenance\": " + Provenance() + "}";
    if (!cfg.trace_out.empty() && !tracer.Write(cfg.trace_out, header)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                   cfg.trace_out.c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      MetricsJson(metrics, units).c_str());
  return 0;
}
