#include "core/fleet.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "core/analyzer.h"
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

/// Everything one worker slot's output file says. The file is shared
/// by every attempt of the slot, so a respawn finds what its killed
/// predecessor claimed.
struct WorkerOutput {
  /// Per-program result rows, in file order.
  std::vector<Json> rows;
  /// Programs claimed without a result row, in claim order: the slot's
  /// debt, which its next attempt runs first.
  std::vector<std::string> debt;
  /// The last summary ("done") line; null when no attempt finished.
  Json summary;
};

WorkerOutput ReadWorkerOutput(const std::string& out_file) {
  WorkerOutput out;
  std::vector<std::string> claimed;
  std::set<std::string> reported;
  for (const std::string& line : ReadLines(out_file)) {
    auto parsed = Json::Parse(line);
    // A worker killed mid-write leaves at most one torn trailing line;
    // skip anything unparsable (the program it described is re-run).
    if (!parsed.ok() || !parsed.value().is_object()) continue;
    Json& j = parsed.value();
    if (j["done"].AsBool()) {
      out.summary = std::move(j);
    } else if (j.Has("claimed")) {
      claimed.push_back(j["claimed"].AsString());
    } else if (j.Has("path")) {
      reported.insert(j["path"].AsString());
      out.rows.push_back(std::move(j));
    }
  }
  for (std::string& rel : claimed) {
    if (reported.count(rel) == 0) out.debt.push_back(std::move(rel));
  }
  return out;
}

/// The shared claim counter next to the program list: its length is
/// the number of programs claimed so far (one byte per claim).
std::string CounterPath(const std::string& list_file) {
  return StrCat(list_file, ".next");
}

uint64_t SumField(const Json& obj, const char* key) {
  return static_cast<uint64_t>(obj[key].AsInt());
}

/// Adds one worker summary line's cache and fault counters.
void AddSummary(const Json& summary, FleetReport* report) {
  const Json& cache = summary["cache"];
  report->verdict_hits += SumField(cache, "verdict_hits");
  report->verdict_misses += SumField(cache, "verdict_misses");
  report->disk_hits += SumField(cache, "disk_hits");
  report->disk_misses += SumField(cache, "disk_misses");
  report->disk_corrupt += SumField(cache, "disk_corrupt");
  report->disk_write_skips += SumField(cache, "disk_write_skips");
  report->disk_read_failures += SumField(cache, "disk_read_failures");
  report->disk_stores += SumField(cache, "disk_stores");
  report->torn_tails_repaired += SumField(cache, "torn_tails_repaired");
  report->faults_injected += SumField(summary["faults"], "injected");
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
    // Lexical: the iterator's paths all start with `root`, and
    // fs::relative would canonicalize both paths per file.
    out.push_back(it->path().lexically_relative(root).string());
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

/// One worker process slot: its live pid, its output file (shared by
/// every attempt) and how many attempts it has made.
struct WorkerSlot {
  int index = 0;
  pid_t pid = -1;
  int attempt = 0;
  std::string out_file;
  bool finished = false;
};

/// Launches (or relaunches) `slot` over the shared program list.
/// Returns false on spawn failure.
bool LaunchWorker(const FleetOptions& options, const std::string& exe,
                  const std::string& scratch, const std::string& list_file,
                  WorkerSlot* slot) {
  std::vector<std::string> argv = {exe,       "fleet-worker", "--shard",
                                   list_file, "--out",        slot->out_file,
                                   "--jobs",  StrCat(options.jobs)};
  if (!options.cache_dir.empty()) {
    argv.push_back("--cache-dir");
    argv.push_back(options.cache_dir);
  }
  SpawnOptions sopts;
  if (!options.fault_spec.empty()) {
    // Each attempt of each slot draws its own fault stream (the later
    // seed= wins). Under the spec's seed alone every worker would die
    // at the same decision, and every respawn exactly where its
    // predecessor died, until the respawn budget ran out.
    const uint64_t stream = (static_cast<uint64_t>(slot->index) << 32) |
                            static_cast<uint64_t>(slot->attempt);
    const uint64_t seed = std::hash<std::string>{}(options.fault_spec) ^
                          (stream * 0x9e3779b97f4a7c15ULL);
    sopts.extra_env.push_back(
        StrCat("HORNSAFE_FAULTS=", options.fault_spec, ",seed=", seed));
  }
  sopts.stdout_path =
      StrCat(scratch, "/log-w", slot->index, ".a", slot->attempt);
  sopts.stderr_path = sopts.stdout_path;
  auto pid_or = SpawnProcess(argv, sopts);
  if (!pid_or.ok()) return false;
  slot->pid = pid_or.value();
  ++slot->attempt;
  return true;
}

/// Programs claimed so far across all workers.
uint64_t ClaimedCount(const std::string& list_file) {
  struct stat st {};
  if (::stat(CounterPath(list_file).c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

/// Takes the next unclaimed index of `programs` from the shared counter
/// under its flock. The claim line reaches the worker's output file
/// before the counter advances, so a worker killed in between still
/// owes the program: it may then be analyzed twice, but never lost.
/// nullopt once every program is claimed (or the counter is unusable).
std::optional<size_t> Claim(int counter_fd,
                            const std::vector<std::string>& programs,
                            int out_fd) {
  while (::flock(counter_fd, LOCK_EX) != 0) {
    if (errno != EINTR) return std::nullopt;
  }
  std::optional<size_t> claimed;
  struct stat st {};
  if (::fstat(counter_fd, &st) == 0 &&
      static_cast<size_t>(st.st_size) < programs.size()) {
    const size_t next = static_cast<size_t>(st.st_size);
    const std::string& entry = programs[next];
    Json rel(entry.substr(0, entry.find('\t')));
    AppendLine(out_fd, StrCat("{\"claimed\":", rel.Dump(), "}"));
    if (::write(counter_fd, "+", 1) == 1) claimed = next;
  }
  ::flock(counter_fd, LOCK_UN);
  return claimed;
}

/// Removes the driver's own scratch directory on every return path.
struct ScratchCleanup {
  ScratchCleanup() = default;
  ScratchCleanup(const ScratchCleanup&) = delete;
  ScratchCleanup& operator=(const ScratchCleanup&) = delete;
  std::string dir;  // empty = caller-provided scratch, kept
  ~ScratchCleanup() {
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

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

  // Scratch directory for the program list, claim counter, worker
  // output and logs.
  std::string scratch = options.scratch_dir;
  ScratchCleanup cleanup;
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
    cleanup.dir = scratch;
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

  // On-demand dispatch: the corpus is listed once and every worker
  // claims the next program when it is free, so a costly program holds
  // up only the worker running it. The counter and output files are
  // truncated so a reused scratch directory carries no old claims.
  const std::string list_file = StrCat(scratch, "/programs");
  {
    fs::path corpus_root = fs::absolute(options.corpus_dir);
    std::ofstream list(list_file, std::ios::trunc);
    for (const std::string& rel : corpus) {
      list << rel << "\t" << (corpus_root / rel).string() << "\n";
    }
    std::ofstream counter(CounterPath(list_file), std::ios::trunc);
    if (!list || !counter) {
      return Status::Unavailable(
          StrCat("cannot write the program list in '", scratch, "'"));
    }
  }
  std::vector<WorkerSlot> slots(static_cast<size_t>(procs));
  for (int w = 0; w < procs; ++w) {
    slots[w].index = w;
    slots[w].out_file = StrCat(scratch, "/out-w", w);
    std::ofstream(slots[w].out_file, std::ios::trunc);
  }

  FleetReport report;
  report.procs = static_cast<uint64_t>(procs);
  report.corpus_size = corpus.size();

  for (WorkerSlot& slot : slots) {
    if (LaunchWorker(options, exe, scratch, list_file, &slot)) continue;
    // Take down the workers already started before giving up.
    for (WorkerSlot& started_slot : slots) {
      if (started_slot.pid < 0) continue;
      KillProcess(started_slot.pid);
      (void)WaitProcess(started_slot.pid);
    }
    return Status::Unavailable("failed to spawn fleet worker");
  }

  std::map<std::string, FleetProgramResult> results;
  int respawn_budget = options.max_respawns;
  size_t live = slots.size();
  while (live > 0) {
    bool progressed = false;
    for (WorkerSlot& slot : slots) {
      if (slot.finished) continue;
      // A failed reap (should not happen for our own children) counts
      // as a crash so the driver cannot hang.
      auto polled = PollProcess(slot.pid);
      if (polled.ok() && !polled.value().has_value()) continue;
      progressed = true;
      WaitResult status = polled.ok() ? *polled.value() : WaitResult{};
      WorkerOutput out = ReadWorkerOutput(slot.out_file);
      for (const Json& row : out.rows) {
        FleetProgramResult r;
        r.path = row["path"].AsString();
        r.verdict = row["verdict"].AsString();
        r.queries = static_cast<uint64_t>(row["queries"].AsInt());
        r.wall_seconds = row["wall_seconds"].AsNumber();
        r.error = row["error"].AsString();
        r.worker = slot.index;
        results.emplace(r.path, std::move(r));  // keeps the first
      }
      const bool clean = out.summary.is_object() && status.exited &&
                         status.exit_code == 0;
      if (!clean) ++report.worker_crashes;
      // A crashed slot comes back while it owes programs or unclaimed
      // ones remain; one that died after its last program but before
      // its summary line loses only its counters.
      const bool work_left =
          !clean && (!out.debt.empty() ||
                     ClaimedCount(list_file) < corpus.size());
      if (work_left && respawn_budget > 0) {
        --respawn_budget;
        ++report.respawns;
        if (LaunchWorker(options, exe, scratch, list_file, &slot)) continue;
      }
      // Budget exhausted (or respawn failed): report the debt as errors
      // rather than hanging or crashing the driver.
      if (work_left) {
        for (const std::string& rel : out.debt) {
          FleetProgramResult r;
          r.path = rel;
          r.verdict = "error";
          r.error = "worker crashed; respawn budget exhausted";
          r.worker = slot.index;
          results.emplace(rel, std::move(r));
        }
      }
      // Only the last attempt writes a summary; a killed attempt's
      // counters die with it.
      if (out.summary.is_object()) AddSummary(out.summary, &report);
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
  return report;
}

int FleetWorkerMain(const std::string& list_file,
                    const std::string& out_file,
                    const std::string& cache_dir, int jobs,
                    const ProgramLoader& loader) {
  // Programs this slot's earlier attempts claimed but never reported.
  const WorkerOutput earlier = ReadWorkerOutput(out_file);
  int out_fd =
      ::open(out_file.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
  const std::string counter = CounterPath(list_file);
  int counter_fd =
      ::open(counter.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (out_fd < 0 || counter_fd < 0) {
    std::fprintf(stderr, "fleet-worker: cannot open '%s': %s\n",
                 (out_fd < 0 ? out_file : counter).c_str(),
                 std::strerror(errno));
    return 1;
  }
  // End a line torn by a killed predecessor before appending.
  struct stat st {};
  if (::fstat(out_fd, &st) == 0 && st.st_size > 0) AppendLine(out_fd, "");

  PipelineCache::Options copts;
  copts.dir = cache_dir;
  PipelineCache cache(copts);

  // Analyzes one "<rel>\t<abs>" list entry and appends its result row.
  auto analyze = [&](const std::string& entry) {
    const size_t tab = entry.find('\t');
    const std::string rel = entry.substr(0, tab);

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

    Result<Program> program = loader(entry.substr(tab + 1));
    if (!program.ok()) {
      emit("error", 0, program.status().ToString());
      return;
    }
    AnalyzerOptions aopts;
    aopts.jobs = jobs;
    aopts.cache = &cache;
    auto analyzer = SafetyAnalyzer::Create(program.value(), aopts);
    if (!analyzer.ok()) {
      emit("error", 0, analyzer.status().ToString());
      return;
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
  };

  const std::vector<std::string> programs = ReadLines(list_file);
  for (const std::string& rel : earlier.debt) {
    for (const std::string& entry : programs) {
      if (entry.compare(0, entry.find('\t'), rel) == 0) analyze(entry);
    }
  }
  while (std::optional<size_t> next = Claim(counter_fd, programs, out_fd)) {
    analyze(programs[*next]);
  }
  ::close(counter_fd);

  // One sync per shard this worker wrote makes its verdicts durable
  // before it reports done (DESIGN.md, D16).
  cache.Flush();

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
