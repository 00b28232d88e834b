#include "core/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "lint/lint.h"
#include "parser/parser.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace hornsafe {
namespace {

/// Machine-readable error code: the StatusCode name without the 'k'
/// ("DeadlineExceeded" -> "deadline_exceeded" style is overkill; the
/// CamelCase name is stable and greppable).
Json ErrorReply(const Json& id, StatusCode code, const std::string& message) {
  Json reply = Json::Object();
  reply.Set("id", id);
  reply.Set("ok", false);
  Json error = Json::Object();
  error.Set("code", StatusCodeName(code));
  error.Set("message", message);
  reply.Set("error", std::move(error));
  return reply;
}

Json OkReply(const Json& id, Json result) {
  Json reply = Json::Object();
  reply.Set("id", id);
  reply.Set("ok", true);
  reply.Set("result", std::move(result));
  return reply;
}

Json VerdictToJson(const ArgumentVerdict& a, bool with_explanations) {
  Json arg = Json::Object();
  arg.Set("position", uint64_t{a.position});
  arg.Set("safety", SafetyName(a.safety));
  arg.Set("stop", StopReasonName(a.stop));
  arg.Set("steps", a.steps);
  arg.Set("graphs_checked", a.graphs_checked);
  if (with_explanations) arg.Set("explanation", a.explanation);
  return arg;
}

/// Bounded MPMC line queue with close semantics: Push blocks while
/// full (backpressure), TryPush sheds instead, Pop blocks while empty
/// and returns false once the queue is closed and drained. Any number
/// of workers may Pop concurrently.
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool Push(std::string line) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(line));
    not_empty_.notify_one();
    return true;
  }

  bool TryPush(std::string line) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(line));
    not_empty_.notify_one();
    return true;
  }

  bool Pop(std::string* line) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *line = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  bool empty() {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<std::string> items_;
  bool closed_ = false;
};

}  // namespace

std::string ShedReply(const std::string& line, const std::string& message) {
  // Best-effort id recovery: the shed path must never analyze, but the
  // client still deserves a correlatable reply.
  Json id;
  if (Result<Json> parsed = Json::Parse(line); parsed.ok()) {
    id = (*parsed)["id"];
  }
  return ErrorReply(id, StatusCode::kUnavailable, message).Dump();
}

Server::Server(ServerOptions options) : options_(std::move(options)) {
  options_.analyzer.cache = options_.cache;
}

Server::~Server() = default;

void Server::RequestShutdown() {
  shutdown_.store(true, std::memory_order_release);
  cancel_.Cancel();
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t Server::workers() const {
  return options_.workers == 0 ? ThreadPool::DefaultThreads()
                               : options_.workers;
}

std::shared_ptr<SafetyAnalyzer> Server::served_analyzer() const {
  std::lock_guard<std::mutex> lock(analyzer_mu_);
  return analyzer_;
}

void Server::AccumulateEphemeral(const SafetyAnalyzer::Counters& c) {
  std::lock_guard<std::mutex> lock(mu_);
  ephemeral_seen_ = true;
  ephemeral_totals_.positions_analyzed += c.positions_analyzed;
  ephemeral_totals_.subset_searches += c.subset_searches;
  ephemeral_totals_.steps += c.steps;
  ephemeral_totals_.graphs_checked += c.graphs_checked;
  ephemeral_totals_.memo_hits += c.memo_hits;
  ephemeral_totals_.memo_misses += c.memo_misses;
  ephemeral_totals_.scc_short_circuits += c.scc_short_circuits;
  ephemeral_totals_.parallel_tasks += c.parallel_tasks;
  ephemeral_totals_.serial_tasks += c.serial_tasks;
  ephemeral_totals_.cache_hits += c.cache_hits;
  ephemeral_totals_.cache_misses += c.cache_misses;
  ephemeral_totals_.stage_canonicalize_ns += c.stage_canonicalize_ns;
  ephemeral_totals_.stage_fingerprint_ns += c.stage_fingerprint_ns;
  ephemeral_totals_.stage_fd_ns += c.stage_fd_ns;
  ephemeral_totals_.stage_adorn_ns += c.stage_adorn_ns;
  ephemeral_totals_.stage_build_ns += c.stage_build_ns;
  ephemeral_totals_.stage_prune_ns += c.stage_prune_ns;
  ephemeral_totals_.stage_scc_ns += c.stage_scc_ns;
  ephemeral_totals_.stage_search_ns += c.stage_search_ns;
  ephemeral_totals_.segments_total += c.segments_total;
  ephemeral_totals_.segments_grafted += c.segments_grafted;
  ephemeral_totals_.segment_grafts_rejected += c.segment_grafts_rejected;
  ephemeral_totals_.segments_encoded += c.segments_encoded;
  ephemeral_totals_.nodes_shared += c.nodes_shared;
  ephemeral_totals_.nodes_owned += c.nodes_owned;
  // Peaks are gauges: fold with max, not sum.
  ephemeral_totals_.node_table_peak_nodes = std::max(
      ephemeral_totals_.node_table_peak_nodes, c.node_table_peak_nodes);
  ephemeral_totals_.node_table_peak_bytes = std::max(
      ephemeral_totals_.node_table_peak_bytes, c.node_table_peak_bytes);
}

ExecContext Server::MakeExec(const Json& request) const {
  ExecContext exec;
  exec.cancel = &cancel_;
  const Json& dl = request["deadline_ms"];
  if (dl.is_number() && dl.AsNumber() >= 0) {
    // An explicit 0 means "already expired": every position degrades
    // to kUndecided/deadline at step 0, deterministically.
    exec.deadline = Deadline::AfterMillis(dl.AsInt());
  } else if (options_.default_deadline_ms > 0) {
    exec.deadline = Deadline::AfterMillis(
        static_cast<int64_t>(options_.default_deadline_ms));
  }
  return exec;
}

Result<SafetyAnalyzer::UpdateStats> Server::InstallProgram(
    const std::string& source, const ExecContext& exec) {
  HORNSAFE_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  if (options_.prepare_program) {
    HORNSAFE_RETURN_IF_ERROR(options_.prepare_program(&program));
  }
  // Serialize the create-or-update decision: two cold updates racing
  // here must not both Create (one build would be lost along with its
  // counters). Checks do not take this lock — they pin whatever
  // snapshot is currently published.
  std::lock_guard<std::mutex> lock(install_mu_);
  if (std::shared_ptr<SafetyAnalyzer> live = served_analyzer()) {
    return live->Update(program, exec);
  }
  AnalyzerOptions aopts = options_.analyzer;
  aopts.exec = exec;
  HORNSAFE_ASSIGN_OR_RETURN(SafetyAnalyzer analyzer,
                            SafetyAnalyzer::Create(program, aopts));
  auto fresh = std::make_shared<SafetyAnalyzer>(std::move(analyzer));
  SafetyAnalyzer::UpdateStats stats;
  stats.predicates = fresh->snapshot()->canon->program.num_predicates();
  stats.dirty_predicates = stats.predicates;  // cold build: all new
  {
    std::lock_guard<std::mutex> publish(analyzer_mu_);
    analyzer_ = std::move(fresh);
  }
  return stats;
}

Json Server::DoUpdate(const Json& request, const ExecContext& exec) {
  const Json& program = request["program"];
  if (!program.is_string()) {
    return ErrorReply(request["id"], StatusCode::kParseError,
                      "update requires a string \"program\" field");
  }
  auto stats = InstallProgram(program.AsString(), exec);
  if (!stats.ok()) {
    return ErrorReply(request["id"], stats.status().code(),
                      stats.status().message());
  }
  Json result = Json::Object();
  result.Set("predicates", uint64_t{stats->predicates});
  result.Set("dirty_predicates", uint64_t{stats->dirty_predicates});
  result.Set("clean_predicates", uint64_t{stats->clean_predicates});
  return OkReply(request["id"], std::move(result));
}

Json Server::DoLint(const Json& request) const {
  const Json& program_field = request["program"];
  if (!program_field.is_string()) {
    return ErrorReply(request["id"], StatusCode::kParseError,
                      "lint requires a string \"program\" field");
  }
  // No snapshot, no analysis, no state: lint is a pure function of the
  // request text, which is what makes its replies trivially identical
  // across worker counts and fault schedules.
  std::vector<Diagnostic> diags;
  Result<Program> program = ParseProgram(program_field.AsString());
  if (!program.ok()) {
    diags.push_back(DiagnosticFromStatus(program.status()));
  } else {
    if (options_.prepare_program) {
      if (Status st = options_.prepare_program(&*program); !st.ok()) {
        return ErrorReply(request["id"], st.code(), st.message());
      }
    }
    diags = LintProgram(*program);
  }
  return OkReply(request["id"], DiagnosticsToJson(diags));
}

Json Server::DoCheck(const Json& request, bool with_explanations,
                     const ExecContext& exec) {
  // A request-supplied program is analyzed by a one-shot analyzer that
  // shares the verdict cache (repeated checks of the same cones stay
  // warm) but is never installed: only `update` replaces the served
  // program, so concurrent checks cannot perturb each other or block
  // behind this build.
  std::optional<SafetyAnalyzer> ephemeral;
  std::shared_ptr<SafetyAnalyzer> served;
  SafetyAnalyzer* analyzer = nullptr;
  if (request["program"].is_string()) {
    Result<Program> program = ParseProgram(request["program"].AsString());
    if (!program.ok()) {
      return ErrorReply(request["id"], program.status().code(),
                        program.status().message());
    }
    if (options_.prepare_program) {
      if (Status st = options_.prepare_program(&*program); !st.ok()) {
        return ErrorReply(request["id"], st.code(), st.message());
      }
    }
    AnalyzerOptions aopts = options_.analyzer;
    aopts.exec = exec;
    Result<SafetyAnalyzer> created = SafetyAnalyzer::Create(*program, aopts);
    if (!created.ok()) {
      return ErrorReply(request["id"], created.status().code(),
                        created.status().message());
    }
    ephemeral.emplace(std::move(*created));
    analyzer = &*ephemeral;
  } else {
    served = served_analyzer();
    if (served == nullptr) {
      return ErrorReply(request["id"], StatusCode::kNotFound,
                        "no program installed; send \"program\" with check "
                        "or call update first");
    }
    analyzer = served.get();
  }

  // Pin the snapshot once: every read below — predicate lookup, query
  // iteration, analysis — sees this build even if an update swaps a new
  // one in mid-request.
  std::shared_ptr<const AnalysisSnapshot> snap = analyzer->snapshot();
  const Program& prog = snap->canon->program;

  Json queries = Json::Array();
  if (request["predicate"].is_string()) {
    // Targeted form: {"predicate": "p/2", "adornment": "bf"}.
    const std::string& spec = request["predicate"].AsString();
    size_t slash = spec.rfind('/');
    uint32_t arity = 0;
    PredicateId pred = kInvalidPredicate;
    if (slash != std::string::npos) {
      arity = static_cast<uint32_t>(
          std::strtoul(spec.c_str() + slash + 1, nullptr, 10));
      pred = prog.FindPredicate(spec.substr(0, slash), arity);
    }
    if (pred == kInvalidPredicate) {
      return ErrorReply(request["id"], StatusCode::kNotFound,
                        StrCat("unknown predicate '", spec, "'"));
    }
    uint64_t mask = 0;
    const Json& adornment = request["adornment"];
    if (adornment.is_string()) {
      const std::string& bits = adornment.AsString();
      if (bits.size() != arity) {
        return ErrorReply(request["id"], StatusCode::kParseError,
                          StrCat("adornment '", bits, "' does not match ",
                                 spec));
      }
      for (size_t k = 0; k < bits.size(); ++k) {
        if (bits[k] == 'b') mask |= uint64_t{1} << k;
      }
    }
    QueryAnalysis analysis = analyzer->AnalyzePredicate(*snap, pred, mask,
                                                        exec);
    Json q = Json::Object();
    q.Set("query", spec);
    q.Set("safety", SafetyName(analysis.overall));
    Json args = Json::Array();
    for (const ArgumentVerdict& a : analysis.args) {
      args.Append(VerdictToJson(a, with_explanations));
    }
    q.Set("args", std::move(args));
    queries.Append(std::move(q));
  } else {
    for (const Literal& lit : prog.queries()) {
      QueryAnalysis analysis = analyzer->AnalyzeQueryLiteral(*snap, lit,
                                                             exec);
      Json q = Json::Object();
      q.Set("query", prog.ToString(lit));
      q.Set("safety", SafetyName(analysis.overall));
      Json args = Json::Array();
      for (const ArgumentVerdict& a : analysis.args) {
        args.Append(VerdictToJson(a, with_explanations));
      }
      q.Set("args", std::move(args));
      queries.Append(std::move(q));
    }
  }
  if (ephemeral) AccumulateEphemeral(ephemeral->counters());
  Json result = Json::Object();
  result.Set("queries", std::move(queries));
  return OkReply(request["id"], std::move(result));
}

Json Server::DoStats() const {
  Json result = Json::Object();
  std::shared_ptr<SafetyAnalyzer> served = served_analyzer();
  SafetyAnalyzer::Counters c;
  bool have_analyzer = served != nullptr;
  if (served != nullptr) c = served->counters();
  {
    // Fold in the totals of completed ephemeral (check-with-program)
    // analyzers, so `stats` reflects all analysis work the server did.
    std::lock_guard<std::mutex> lock(mu_);
    if (ephemeral_seen_) have_analyzer = true;
    c.positions_analyzed += ephemeral_totals_.positions_analyzed;
    c.subset_searches += ephemeral_totals_.subset_searches;
    c.steps += ephemeral_totals_.steps;
    c.graphs_checked += ephemeral_totals_.graphs_checked;
    c.memo_hits += ephemeral_totals_.memo_hits;
    c.memo_misses += ephemeral_totals_.memo_misses;
    c.scc_short_circuits += ephemeral_totals_.scc_short_circuits;
    c.cache_hits += ephemeral_totals_.cache_hits;
    c.cache_misses += ephemeral_totals_.cache_misses;
    c.stage_canonicalize_ns += ephemeral_totals_.stage_canonicalize_ns;
    c.stage_fingerprint_ns += ephemeral_totals_.stage_fingerprint_ns;
    c.stage_fd_ns += ephemeral_totals_.stage_fd_ns;
    c.stage_adorn_ns += ephemeral_totals_.stage_adorn_ns;
    c.stage_build_ns += ephemeral_totals_.stage_build_ns;
    c.stage_prune_ns += ephemeral_totals_.stage_prune_ns;
    c.stage_scc_ns += ephemeral_totals_.stage_scc_ns;
    c.stage_search_ns += ephemeral_totals_.stage_search_ns;
    c.segments_total += ephemeral_totals_.segments_total;
    c.segments_grafted += ephemeral_totals_.segments_grafted;
    c.segment_grafts_rejected += ephemeral_totals_.segment_grafts_rejected;
    c.segments_encoded += ephemeral_totals_.segments_encoded;
    c.nodes_shared += ephemeral_totals_.nodes_shared;
    c.nodes_owned += ephemeral_totals_.nodes_owned;
    c.node_table_peak_nodes =
        std::max(c.node_table_peak_nodes, ephemeral_totals_.node_table_peak_nodes);
    c.node_table_peak_bytes =
        std::max(c.node_table_peak_bytes, ephemeral_totals_.node_table_peak_bytes);
  }
  if (have_analyzer) {
    Json a = Json::Object();
    a.Set("positions_analyzed", c.positions_analyzed);
    a.Set("subset_searches", c.subset_searches);
    a.Set("steps", c.steps);
    a.Set("memo_hits", c.memo_hits);
    a.Set("memo_misses", c.memo_misses);
    a.Set("cache_hits", c.cache_hits);
    a.Set("cache_misses", c.cache_misses);
    a.Set("snapshot_swaps", c.snapshot_swaps);
    a.Set("stage_canonicalize_ns", c.stage_canonicalize_ns);
    a.Set("stage_fingerprint_ns", c.stage_fingerprint_ns);
    a.Set("stage_fd_ns", c.stage_fd_ns);
    a.Set("stage_adorn_ns", c.stage_adorn_ns);
    a.Set("stage_build_ns", c.stage_build_ns);
    a.Set("stage_prune_ns", c.stage_prune_ns);
    a.Set("stage_scc_ns", c.stage_scc_ns);
    a.Set("stage_search_ns", c.stage_search_ns);
    a.Set("segments_total", c.segments_total);
    a.Set("segments_grafted", c.segments_grafted);
    a.Set("segment_grafts_rejected", c.segment_grafts_rejected);
    a.Set("segments_encoded", c.segments_encoded);
    a.Set("nodes_shared", c.nodes_shared);
    a.Set("nodes_owned", c.nodes_owned);
    a.Set("node_table_peak_nodes", c.node_table_peak_nodes);
    a.Set("node_table_peak_bytes", c.node_table_peak_bytes);
    result.Set("analyzer", std::move(a));
  }
  if (options_.cache != nullptr) {
    PipelineCacheStats s = options_.cache->stats();
    Json cs = Json::Object();
    cs.Set("verdict_hits", s.verdict_hits);
    cs.Set("verdict_misses", s.verdict_misses);
    cs.Set("disk_hits", s.disk_hits);
    cs.Set("disk_misses", s.disk_misses);
    cs.Set("disk_corrupt", s.disk_corrupt);
    cs.Set("disk_write_failures", s.disk_write_failures);
    cs.Set("disk_write_skips", s.disk_write_skips);
    cs.Set("disk_retry_attempts", s.disk_retry_attempts);
    cs.Set("lease_acquisitions", s.lease_acquisitions);
    cs.Set("torn_tails_repaired", s.torn_tails_repaired);
    cs.Set("segment_hits", s.segment_hits);
    cs.Set("segment_misses", s.segment_misses);
    cs.Set("segment_insertions", s.segment_insertions);
    cs.Set("segment_evictions", s.segment_evictions);
    cs.Set("fd_index_hits", s.fd_index_hits);
    cs.Set("fd_index_misses", s.fd_index_misses);
    cs.Set("pred_hash_hits", s.pred_hash_hits);
    cs.Set("pred_hash_misses", s.pred_hash_misses);
    result.Set("cache", std::move(cs));
  }
  Counters sc = counters();
  Json srv = Json::Object();
  srv.Set("requests", sc.requests);
  srv.Set("served", sc.served);
  srv.Set("errors", sc.errors);
  srv.Set("shed", sc.shed);
  srv.Set("workers", uint64_t{workers()});
  result.Set("server", std::move(srv));
  return OkReply(Json(), std::move(result));
}

Json Server::Dispatch(const Json& request) {
  if (!request.is_object()) {
    return ErrorReply(Json(), StatusCode::kParseError,
                      "request must be a JSON object");
  }
  const Json& method = request["method"];
  if (!method.is_string()) {
    return ErrorReply(request["id"], StatusCode::kParseError,
                      "request requires a string \"method\" field");
  }
  const std::string& m = method.AsString();
  // The per-request failure-model context is a value threaded through
  // the call tree — never installed on shared state, so concurrent
  // requests each run under their own deadline (and a stale deadline
  // can never poison a later request).
  ExecContext exec = MakeExec(request);
  if (m == "check") {
    return DoCheck(request, /*with_explanations=*/false, exec);
  }
  if (m == "explain") {
    return DoCheck(request, /*with_explanations=*/true, exec);
  }
  if (m == "update") return DoUpdate(request, exec);
  if (m == "lint") return DoLint(request);
  if (m == "stats") {
    Json reply = DoStats();
    reply.Set("id", request["id"]);
    return reply;
  }
  if (m == "shutdown") {
    RequestShutdown();
    Json result = Json::Object();
    result.Set("shutdown", true);
    return OkReply(request["id"], std::move(result));
  }
  return ErrorReply(request["id"], StatusCode::kUnsupported,
                    StrCat("unknown method '", m, "'"));
}

std::string Server::HandleLine(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
  }
  Json reply;
  // The failure-model contract: no request line may terminate the
  // serve loop. Status-based errors become error replies above; the
  // catch-all converts anything escaping as an exception (e.g.
  // bad_alloc on a pathological request) into one too.
  try {
    Result<Json> request = Json::Parse(line);
    if (!request.ok()) {
      reply = ErrorReply(Json(), request.status().code(),
                         request.status().message());
    } else {
      reply = Dispatch(*request);
    }
  } catch (const std::exception& e) {
    reply = ErrorReply(Json(), StatusCode::kInternal,
                       StrCat("internal error: ", e.what()));
  } catch (...) {
    reply = ErrorReply(Json(), StatusCode::kInternal, "internal error");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.served;
    if (!reply["ok"].AsBool()) ++counters_.errors;
  }
  return reply.Dump();
}

uint64_t Server::Serve(std::istream& in, std::ostream& out) {
  std::mutex out_mu;
  auto emit = [&](const std::string& reply) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << reply << '\n';
    out.flush();
  };

  BoundedQueue queue(options_.max_queue);
  // Incremented by workers for queued requests and by the reader on
  // the shed path, concurrently.
  std::atomic<uint64_t> replies{0};
  const size_t num_workers = workers();
  auto worker_loop = [&] {
    std::string line;
    while (queue.Pop(&line)) {
      if (shutdown_requested()) {
        // Requests queued behind a shutdown are acknowledged, not
        // analyzed.
        emit(ShedReply(line, "server is shutting down"));
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.shed;
      } else {
        emit(HandleLine(line));
        // Group commit: the disk-tier appends of a burst of requests
        // become durable once, when the burst is drained.
        if (options_.cache != nullptr && queue.empty()) {
          options_.cache->Flush();
        }
      }
      replies.fetch_add(1, std::memory_order_relaxed);
      if (shutdown_requested()) queue.Close();
    }
  };
  // Scoped to this call: the pool's destructor (below, after the queue
  // closes) joins every worker loop. Detached submission — the loops
  // report nothing; completion is the join.
  auto pool = std::make_unique<ThreadPool>(num_workers);
  for (size_t w = 0; w < num_workers; ++w) pool->SubmitDetached(worker_loop);

  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    if (options_.shed_on_overflow) {
      if (!queue.TryPush(line)) {
        if (shutdown_requested()) break;
        emit(ShedReply(line, StrCat("request queue full (",
                                    options_.max_queue, " in flight)")));
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.shed;
        }
        replies.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      if (!queue.Push(line)) break;  // closed by shutdown
    }
  }
  queue.Close();
  pool.reset();  // drain + join the worker loops
  if (options_.cache != nullptr) options_.cache->Flush();
  return replies.load(std::memory_order_relaxed);
}

Status Server::ServeUnixSocket(const std::string& path) {
  sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::ParseError(
        StrCat("socket path too long: '", path, "'"));
  }
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status::Internal(
        StrCat("socket: ",
               // NOLINTNEXTLINE(concurrency-mt-unsafe): errno is
               // captured on the single accept thread.
               std::strerror(errno)));
  }
  ::unlink(path.c_str());  // stale socket from a crashed server
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    Status st = Status::Internal(
        StrCat("bind/listen on '", path,
               // NOLINTNEXTLINE(concurrency-mt-unsafe): accept thread only.
               "': ", std::strerror(errno)));
    ::close(listener);
    return st;
  }
  // Connections are accepted sequentially: interleaving clients would
  // interleave their update/check streams (each connection still gets
  // the full worker-pool treatment on stdin serve; socket serve is the
  // single-editor path).
  while (!shutdown_requested()) {
    int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      ::close(listener);
      ::unlink(path.c_str());
      return Status::Internal(
          StrCat("accept: ",
                 // NOLINTNEXTLINE(concurrency-mt-unsafe): accept thread only.
                 std::strerror(errno)));
    }
    std::string buffer;
    char chunk[4096];
    bool open = true;
    while (open && !shutdown_requested()) {
      ssize_t n = ::read(conn, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
           nl = buffer.find('\n', start)) {
        std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        if (line.empty()) continue;
        std::string reply = HandleLine(line);
        reply.push_back('\n');
        size_t off = 0;
        while (off < reply.size()) {
          ssize_t w = ::write(conn, reply.data() + off, reply.size() - off);
          if (w < 0 && errno == EINTR) continue;
          if (w <= 0) {
            open = false;  // client went away; drop the connection
            break;
          }
          off += static_cast<size_t>(w);
        }
        if (!open) break;
      }
      if (options_.cache != nullptr) options_.cache->Flush();
      buffer.erase(0, start);
    }
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return Status::Ok();
}

}  // namespace hornsafe
