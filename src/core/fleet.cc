#include "core/fleet.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/analyzer.h"
#include "parser/parser.h"
#include "util/fault.h"
#include "util/proc.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

namespace fs = std::filesystem;

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(to - from)
      .count();
}

/// Appends `line` + '\n' to `fd` in one write syscall, so lines from a
/// worker killed mid-run stay self-delimiting (O_APPEND, small lines).
void AppendLine(int fd, const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One worker slot: the corpus-relative programs it still owes, its
/// live pid, and the output files of every attempt so far.
struct WorkerSlot {
  int index = 0;
  std::vector<std::string> pending;  // corpus-relative paths
  pid_t pid = -1;
  int attempt = 0;
  std::vector<std::string> out_files;
  bool finished = false;
};

struct WorkerSummary {
  PipelineCacheStats cache;
  uint64_t faults_injected = 0;
  bool seen = false;
};

uint64_t SumField(const Json& obj, const char* key) {
  return static_cast<uint64_t>(obj[key].AsInt());
}

}  // namespace

std::vector<std::string> ListCorpus(const std::string& corpus_dir) {
  std::vector<std::string> out;
  std::error_code ec;
  fs::path root(corpus_dir);
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".hs") continue;
    out.push_back(fs::relative(it->path(), root, ec).string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Json FleetReport::ToJson() const {
  Json j = Json::Object();
  j.Set("procs", procs);
  j.Set("corpus_size", corpus_size);
  j.Set("analyzed", analyzed);
  j.Set("errors", errors);
  j.Set("wall_seconds", wall_seconds);
  Json cache = Json::Object();
  cache.Set("verdict_hits", verdict_hits);
  cache.Set("verdict_misses", verdict_misses);
  cache.Set("verdict_hit_rate", verdict_hit_rate);
  cache.Set("cross_program_hits", verdict_hits);
  cache.Set("disk_hits", disk_hits);
  cache.Set("disk_misses", disk_misses);
  cache.Set("disk_corrupt", disk_corrupt);
  cache.Set("disk_write_skips", disk_write_skips);
  cache.Set("disk_read_failures", disk_read_failures);
  cache.Set("disk_stores", disk_stores);
  cache.Set("torn_tails_repaired", torn_tails_repaired);
  cache.Set("manifest_rollbacks", manifest_rollbacks);
  j.Set("cache", std::move(cache));
  Json faults = Json::Object();
  faults.Set("injected", faults_injected);
  faults.Set("worker_crashes", worker_crashes);
  faults.Set("respawns", respawns);
  j.Set("faults", std::move(faults));
  if (compaction_ran) {
    Json compaction = Json::Object();
    compaction.Set("ran", true);
    compaction.Set("entries_removed", compaction_entries_removed);
    j.Set("compaction", std::move(compaction));
  }
  Json progs = Json::Array();
  for (const FleetProgramResult& p : programs) {
    Json pj = Json::Object();
    pj.Set("path", p.path);
    pj.Set("verdict", p.verdict);
    pj.Set("queries", p.queries);
    pj.Set("wall_seconds", p.wall_seconds);
    pj.Set("worker", static_cast<int64_t>(p.worker));
    if (!p.error.empty()) pj.Set("error", p.error);
    progs.Append(std::move(pj));
  }
  j.Set("programs", std::move(progs));
  return j;
}

std::string FleetReport::ToText() const {
  std::ostringstream out;
  for (const FleetProgramResult& p : programs) {
    out << p.path << ": " << p.verdict;
    if (!p.error.empty()) out << " (" << p.error << ")";
    out << "\n";
  }
  out << "fleet: " << analyzed << "/" << corpus_size << " programs across "
      << procs << " worker(s) in " << wall_seconds << "s";
  if (errors > 0) out << ", " << errors << " error(s)";
  out << "\n";
  uint64_t looked = verdict_hits + verdict_misses;
  if (looked > 0) {
    out << "cache: " << verdict_hits << "/" << looked
        << " verdict hits (cross-program), " << disk_hits
        << " via shared disk tier\n";
  }
  if (worker_crashes > 0) {
    out << "faults: " << worker_crashes << " worker crash(es), " << respawns
        << " respawn(s), " << faults_injected << " injected fault(s)\n";
  }
  if (compaction_ran) {
    out << "compaction: removed " << compaction_entries_removed
        << " entr(ies)\n";
  }
  return out.str();
}

namespace {

/// Launches (or relaunches) `slot` on its pending programs. Returns
/// false on spawn failure.
bool LaunchWorker(const FleetOptions& options, const std::string& exe,
                  const std::string& scratch, const fs::path& corpus_root,
                  WorkerSlot* slot) {
  std::string tag = StrCat("w", slot->index, ".a", slot->attempt);
  std::string shard_file = StrCat(scratch, "/shard-", tag);
  std::string out_file = StrCat(scratch, "/out-", tag);
  {
    std::ofstream out(shard_file, std::ios::trunc);
    for (const std::string& rel : slot->pending) {
      out << rel << "\t" << (corpus_root / rel).string() << "\n";
    }
  }
  std::vector<std::string> argv = {exe,     "fleet-worker", "--shard",
                                   shard_file, "--out",     out_file,
                                   "--jobs", StrCat(options.jobs)};
  if (!options.cache_dir.empty()) {
    argv.push_back("--cache-dir");
    argv.push_back(options.cache_dir);
  }
  SpawnOptions sopts;
  if (!options.fault_spec.empty()) {
    sopts.extra_env.push_back(StrCat("HORNSAFE_FAULTS=", options.fault_spec));
  }
  sopts.stdout_path = StrCat(scratch, "/log-", tag);
  sopts.stderr_path = sopts.stdout_path;
  auto pid_or = SpawnProcess(argv, sopts);
  if (!pid_or.ok()) return false;
  slot->pid = pid_or.value();
  slot->out_files.push_back(out_file);
  ++slot->attempt;
  return true;
}

/// Parses one attempt's output file into `report` (first result per
/// path wins) and the worker summary. Returns true when the final
/// summary ("done") line was present — the attempt completed.
bool HarvestWorkerOutput(const std::string& out_file, int worker_index,
                         std::map<std::string, FleetProgramResult>* results,
                         WorkerSummary* summary) {
  bool done = false;
  for (const std::string& line : ReadLines(out_file)) {
    auto parsed = Json::Parse(line);
    // A worker killed mid-write leaves at most one torn trailing line;
    // skip anything unparsable (the program it described is re-run).
    if (!parsed.ok() || !parsed.value().is_object()) continue;
    const Json& j = parsed.value();
    if (j["done"].AsBool()) {
      done = true;
      summary->seen = true;
      const Json& cache = j["cache"];
      summary->cache.verdict_hits += SumField(cache, "verdict_hits");
      summary->cache.verdict_misses += SumField(cache, "verdict_misses");
      summary->cache.disk_hits += SumField(cache, "disk_hits");
      summary->cache.disk_misses += SumField(cache, "disk_misses");
      summary->cache.disk_corrupt += SumField(cache, "disk_corrupt");
      summary->cache.disk_write_skips += SumField(cache, "disk_write_skips");
      summary->cache.disk_read_failures +=
          SumField(cache, "disk_read_failures");
      summary->cache.lease_acquisitions += SumField(cache, "disk_stores");
      summary->cache.torn_tails_repaired +=
          SumField(cache, "torn_tails_repaired");
      summary->cache.manifest_rollbacks +=
          SumField(cache, "manifest_rollbacks");
      summary->faults_injected += SumField(j["faults"], "injected");
      continue;
    }
    if (!j.Has("path")) continue;
    FleetProgramResult r;
    r.path = j["path"].AsString();
    r.verdict = j["verdict"].AsString();
    r.queries = static_cast<uint64_t>(j["queries"].AsInt());
    r.wall_seconds = j["wall_seconds"].AsNumber();
    r.error = j["error"].AsString();
    r.worker = worker_index;
    results->emplace(r.path, std::move(r));  // keeps the first
  }
  return done;
}

}  // namespace

Result<FleetReport> RunFleet(const FleetOptions& options) {
  auto started = std::chrono::steady_clock::now();
  std::vector<std::string> corpus = ListCorpus(options.corpus_dir);
  if (corpus.empty()) {
    return Status::NotFound(
        StrCat("no *.hs programs under '", options.corpus_dir, "'"));
  }

  std::string exe = options.worker_exe;
  if (exe.empty()) exe = SelfExePath();
  if (exe.empty()) {
    return Status::Unavailable("cannot resolve worker executable");
  }

  // Scratch directory for shard lists, worker output and logs.
  std::string scratch = options.scratch_dir;
  bool own_scratch = false;
  if (scratch.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string tmpl =
        StrCat(tmpdir != nullptr ? tmpdir : "/tmp", "/hornsafe-fleet-XXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      return Status::Unavailable(
          StrCat("mkdtemp: ", std::strerror(errno)));
    }
    scratch = buf.data();
    own_scratch = true;
  } else {
    std::error_code ec;
    fs::create_directories(scratch, ec);
  }

  int procs = options.procs;
  if (procs < 1) procs = 1;
  if (procs > 256) procs = 256;
  if (static_cast<size_t>(procs) > corpus.size()) {
    procs = static_cast<int>(corpus.size());
  }

  // Round-robin sharding: adjacent corpus entries (likely siblings in
  // one directory, likely sharing modules) spread across workers, which
  // maximizes the *cross-process* reuse the shared disk tier exists for.
  std::vector<WorkerSlot> slots(static_cast<size_t>(procs));
  for (int w = 0; w < procs; ++w) slots[w].index = w;
  for (size_t i = 0; i < corpus.size(); ++i) {
    slots[i % static_cast<size_t>(procs)].pending.push_back(corpus[i]);
  }

  fs::path corpus_root = fs::absolute(options.corpus_dir);
  FleetReport report;
  report.procs = static_cast<uint64_t>(procs);
  report.corpus_size = corpus.size();

  std::map<std::string, FleetProgramResult> results;
  std::vector<WorkerSummary> summaries(slots.size());

  for (WorkerSlot& slot : slots) {
    if (!LaunchWorker(options, exe, scratch, corpus_root, &slot)) {
      return Status::Unavailable("failed to spawn fleet worker");
    }
  }

  int respawn_budget = options.max_respawns;
  size_t live = slots.size();
  while (live > 0) {
    bool progressed = false;
    for (WorkerSlot& slot : slots) {
      if (slot.finished || slot.pid < 0) continue;
      auto polled = PollProcess(slot.pid);
      if (!polled.ok()) {
        // Reaping failed (should not happen for our own children);
        // treat as a crash so the driver cannot hang.
        slot.pid = -1;
      } else if (!polled.value().has_value()) {
        continue;  // still running
      }
      progressed = true;
      WaitResult status =
          polled.ok() && polled.value().has_value() ? *polled.value()
                                                    : WaitResult{};
      bool done = HarvestWorkerOutput(slot.out_files.back(), slot.index,
                                      &results, &summaries[slot.index]);
      bool clean = done && status.exited && status.exit_code == 0;
      if (clean) {
        slot.finished = true;
        --live;
        continue;
      }
      ++report.worker_crashes;
      // Drop everything this worker already reported from its debt.
      std::vector<std::string> remaining;
      for (const std::string& rel : slot.pending) {
        if (results.find(rel) == results.end()) remaining.push_back(rel);
      }
      slot.pending = std::move(remaining);
      if (slot.pending.empty()) {
        // Died after its last program but before the summary line —
        // all verdicts are in, only its counters are lost.
        slot.finished = true;
        --live;
        continue;
      }
      if (respawn_budget > 0) {
        --respawn_budget;
        ++report.respawns;
        if (LaunchWorker(options, exe, scratch, corpus_root, &slot)) continue;
      }
      // Budget exhausted (or respawn failed): report the remainder as
      // errors rather than hanging or crashing the driver.
      for (const std::string& rel : slot.pending) {
        FleetProgramResult r;
        r.path = rel;
        r.verdict = "error";
        r.error = "worker crashed; respawn budget exhausted";
        r.worker = slot.index;
        results.emplace(rel, std::move(r));
      }
      slot.finished = true;
      --live;
    }
    if (!progressed && live > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Merge: every corpus program gets a row, even if a worker lost it.
  for (const std::string& rel : corpus) {
    auto it = results.find(rel);
    if (it != results.end()) {
      report.programs.push_back(it->second);
    } else {
      FleetProgramResult r;
      r.path = rel;
      r.verdict = "error";
      r.error = "no result reported";
      report.programs.push_back(std::move(r));
    }
    const FleetProgramResult& r = report.programs.back();
    if (r.verdict == "error") {
      ++report.errors;
    } else {
      ++report.analyzed;
    }
  }
  for (const WorkerSummary& s : summaries) {
    if (!s.seen) continue;
    report.verdict_hits += s.cache.verdict_hits;
    report.verdict_misses += s.cache.verdict_misses;
    report.disk_hits += s.cache.disk_hits;
    report.disk_misses += s.cache.disk_misses;
    report.disk_corrupt += s.cache.disk_corrupt;
    report.disk_write_skips += s.cache.disk_write_skips;
    report.disk_read_failures += s.cache.disk_read_failures;
    report.disk_stores += s.cache.lease_acquisitions;
    report.torn_tails_repaired += s.cache.torn_tails_repaired;
    report.manifest_rollbacks += s.cache.manifest_rollbacks;
    report.faults_injected += s.faults_injected;
  }
  uint64_t looked = report.verdict_hits + report.verdict_misses;
  report.verdict_hit_rate =
      looked > 0 ? static_cast<double>(report.verdict_hits) /
                       static_cast<double>(looked)
                 : 0.0;

  if (options.compact_after && !options.cache_dir.empty()) {
    auto compacted =
        PipelineCache::CompactDir(options.cache_dir, options.compact_bounds);
    if (compacted.ok()) {
      report.compaction_ran = compacted.value().ran;
      report.compaction_entries_removed = compacted.value().entries_removed;
    }
  }

  report.wall_seconds = Seconds(started, std::chrono::steady_clock::now());

  if (own_scratch) {
    std::error_code ec;
    fs::remove_all(scratch, ec);
  }
  return report;
}

int FleetWorkerMain(const std::string& shard_file,
                    const std::string& out_file,
                    const std::string& cache_dir, int jobs,
                    const ProgramLoader& loader) {
  int out_fd =
      ::open(out_file.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
  if (out_fd < 0) {
    std::fprintf(stderr, "fleet-worker: cannot open '%s': %s\n",
                 out_file.c_str(), std::strerror(errno));
    return 1;
  }

  PipelineCache::Options copts;
  copts.dir = cache_dir;
  PipelineCache cache(copts);

  ProgramLoader load = loader;
  if (!load) {
    load = [](const std::string& path) -> Result<Program> {
      std::ifstream in(path);
      if (!in) return Status::NotFound(StrCat("cannot open '", path, "'"));
      std::ostringstream buffer;
      buffer << in.rdbuf();
      return ParseProgram(buffer.str());
    };
  }

  for (const std::string& line : ReadLines(shard_file)) {
    size_t tab = line.find('\t');
    std::string rel = tab == std::string::npos ? line : line.substr(0, tab);
    std::string abs = tab == std::string::npos ? line : line.substr(tab + 1);

    auto prog_started = std::chrono::steady_clock::now();
    Json row = Json::Object();
    row.Set("path", rel);

    auto emit = [&](const char* verdict, uint64_t queries,
                    const std::string& error) {
      row.Set("verdict", verdict);
      row.Set("queries", queries);
      row.Set("wall_seconds",
              Seconds(prog_started, std::chrono::steady_clock::now()));
      if (!error.empty()) row.Set("error", error);
      AppendLine(out_fd, row.Dump());
    };

    Result<Program> program = load(abs);
    if (!program.ok()) {
      emit("error", 0, program.status().ToString());
      continue;
    }
    AnalyzerOptions aopts;
    aopts.jobs = jobs;
    aopts.cache = &cache;
    auto analyzer = SafetyAnalyzer::Create(program.value(), aopts);
    if (!analyzer.ok()) {
      emit("error", 0, analyzer.status().ToString());
      continue;
    }
    std::vector<Literal> queries = analyzer.value().canonical().queries();
    bool any_unsafe = false;
    bool any_undecided = false;
    for (const Literal& q : queries) {
      QueryAnalysis analysis = analyzer.value().AnalyzeQueryLiteral(q);
      if (analysis.overall == Safety::kUnsafe) any_unsafe = true;
      if (analysis.overall == Safety::kUndecided) any_undecided = true;
    }
    emit(any_unsafe       ? "unsafe"
         : any_undecided  ? "undecided"
                          : "safe",
         queries.size(), "");
  }

  // Final summary line: this worker's cache and fault picture. Its
  // absence is how the driver detects a crash.
  PipelineCacheStats stats = cache.stats();
  Json summary = Json::Object();
  summary.Set("done", true);
  Json cache_json = Json::Object();
  cache_json.Set("verdict_hits", stats.verdict_hits);
  cache_json.Set("verdict_misses", stats.verdict_misses);
  cache_json.Set("disk_hits", stats.disk_hits);
  cache_json.Set("disk_misses", stats.disk_misses);
  cache_json.Set("disk_corrupt", stats.disk_corrupt);
  cache_json.Set("disk_write_skips", stats.disk_write_skips);
  cache_json.Set("disk_read_failures", stats.disk_read_failures);
  // One shard lock is taken per disk store.
  cache_json.Set("disk_stores", stats.lease_acquisitions);
  cache_json.Set("torn_tails_repaired", stats.torn_tails_repaired);
  cache_json.Set("manifest_rollbacks", stats.manifest_rollbacks);
  summary.Set("cache", std::move(cache_json));
  FaultInjector::Counters fc = FaultInjector::Global().counters();
  uint64_t injected = 0;
  for (uint64_t v : fc.injected) injected += v;
  Json faults = Json::Object();
  faults.Set("injected", injected);
  summary.Set("faults", std::move(faults));
  AppendLine(out_fd, summary.Dump());
  ::close(out_fd);
  return 0;
}

}  // namespace hornsafe
