#ifndef HORNSAFE_CORE_SERVER_H_
#define HORNSAFE_CORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "lang/program.h"
#include "util/deadline.h"
#include "util/json.h"
#include "util/status.h"

namespace hornsafe {

/// Options for the long-lived analysis server (`hornsafe serve`).
struct ServerOptions {
  /// Base analyzer configuration. The failure-model context (`exec`) is
  /// built per request from `deadline_ms` / the server default; the
  /// rest applies to every analysis.
  AnalyzerOptions analyzer;
  /// Shared pipeline cache (not owned; may be null). Requests that
  /// re-check unchanged cones are served from it — including across
  /// concurrent workers (every tier is thread-safe).
  PipelineCache* cache = nullptr;
  /// Deadline applied to requests that carry no "deadline_ms" field.
  /// 0 = no deadline.
  uint64_t default_deadline_ms = 0;
  /// Bounded in-flight request queue: lines read but not yet analyzed.
  size_t max_queue = 64;
  /// Queue-overflow policy. `false` (default) applies backpressure —
  /// the reader blocks until a worker catches up, so every request
  /// is served. `true` sheds load instead: overflowing requests are
  /// answered immediately with an `unavailable` error and never
  /// analyzed.
  bool shed_on_overflow = false;
  /// Worker threads draining the serve queue. 1 (default) keeps the
  /// strict replies-in-request-order contract; N > 1 answers requests
  /// as they complete (each reply still carries its request id), with
  /// checks running concurrently against the published snapshot;
  /// 0 = hardware thread count.
  size_t workers = 1;
  /// Applied to every parsed program before analysis (the CLI installs
  /// standard-builtin registration here; core cannot depend on eval).
  std::function<Status(Program*)> prepare_program;
};

/// Long-lived analysis server speaking line-delimited JSON: one request
/// object per input line, exactly one reply object per request — in
/// request order when `workers == 1` (the default), in completion order
/// otherwise (correlate by id).
///
/// Request:  {"id": 7, "method": "check", "program": "...",
///            "deadline_ms": 50}
/// Reply:    {"id": 7, "ok": true, "result": {...}}
///      or   {"id": 7, "ok": false,
///            "error": {"code": "...", "message": "..."}}
///
/// Methods:
///   check     analyze every query of "program" (or, absent a
///             "program", of the server's current program); a
///             "predicate" field ("name/arity") restricts analysis to
///             that predicate, with an optional "adornment" string of
///             'b'/'f' letters selecting one binding pattern. Verdicts
///             carry the stop reason, so a deadline-degraded
///             kUndecided is distinguishable from a budget-degraded
///             one. A request-supplied "program" is analyzed
///             *ephemerally*: it shares the verdict cache but does NOT
///             replace the served program (only `update` does), so
///             concurrent checks never perturb each other.
///   explain   `check` plus the per-argument explanation text
///             (witness renderings / budget notes).
///   update    replace the server's program, re-running the polynomial
///             pipeline and diffing cone fingerprints; reports how
///             many cones the edit dirtied (the editor loop's
///             cheap-per-keystroke call). The rebuild happens off to
///             the side and is published with one atomic snapshot
///             swap, so concurrent checks keep answering from the old
///             program and never block behind the update (DESIGN.md,
///             D14).
///   lint      static diagnostics for "program" (required), without
///             running any analysis. Always replies ok on well-formed
///             requests — an unparsable program is itself a diagnostic
///             (HS001), not an error reply. The result mirrors
///             `hornsafe lint --json` exactly:
///
///               {"diagnostics": [{"code": "HS005",
///                                 "severity": "error" | "warning"
///                                             | "note",
///                                 "line": 3, "column": 1,
///                                 "message": "...",
///                                 "note": "..."}, ...],
///                "errors": E, "warnings": W, "notes": N}
///
///             "diagnostics" is ordered by (line, column, code); "note"
///             is omitted when empty; "line"/"column" are 0 for
///             diagnostics with no source position; the three counters
///             partition the array by severity. Purely observational:
///             the served program, snapshot and caches are untouched,
///             so lint traffic can interleave with checks and updates
///             at any worker count.
///   stats     analyzer counters, cache statistics and server request
///             accounting (one coherent snapshot of the server
///             counters — never torn values, even mid-traffic).
///   shutdown  acknowledge and stop the serve loop; requests already
///             queued behind it are answered with `unavailable`.
///
/// Failure model (DESIGN.md, D13): a malformed line, an unparsable
/// program, an expired deadline or an analysis error produces an error
/// *reply* — the loop never exits and the process never crashes on
/// untrusted input.
///
/// Thread-safety: `HandleLine` is safe to call concurrently from any
/// number of threads — `Serve` does exactly that with `workers > 1`.
/// Updates serialize among themselves; checks are wait-free with
/// respect to updates (they pin the current snapshot).
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line, returning exactly one reply line
  /// (without the trailing newline). Never throws; safe to call
  /// concurrently. Never syncs the disk tier: the caller decides when
  /// its stores become durable (`PipelineCache::Flush`).
  std::string HandleLine(const std::string& line);

  /// Reads requests from `in` until EOF or a shutdown request; writes
  /// one reply line per request to `out` (replies interleave by
  /// completion when `workers > 1`). Flushes the cache's disk tier
  /// whenever the request queue drains and once more on the way out.
  /// Returns the number of requests served (including error replies).
  uint64_t Serve(std::istream& in, std::ostream& out);

  /// Binds a unix-domain socket at `path` (unlinking any stale one)
  /// and serves connections sequentially, each with the line protocol
  /// of `Serve`, flushing the disk tier after each batch of complete
  /// lines read. Returns once a connection sends `shutdown`.
  Status ServeUnixSocket(const std::string& path);

  /// Asks the serve loop to stop and cancels in-flight analyses
  /// (safe from any thread; replies for cancelled requests report
  /// their positions as kUndecided/cancelled).
  void RequestShutdown();

  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Request accounting, also surfaced by the `stats` method. Returned
  /// by value as one mutex-guarded snapshot: the four fields are
  /// mutually consistent (a concurrent reader can never see a served
  /// count ahead of the requests count it belongs to).
  struct Counters {
    uint64_t requests = 0;   // lines received
    uint64_t served = 0;     // replies produced by HandleLine
    uint64_t errors = 0;     // error replies (malformed, failed, ...)
    uint64_t shed = 0;       // replies produced by load-shedding
  };
  Counters counters() const;

  /// The resolved worker count (`options.workers`, with 0 mapped to
  /// the hardware default).
  size_t workers() const;

 private:
  Json Dispatch(const Json& request);
  Json DoCheck(const Json& request, bool with_explanations,
               const ExecContext& exec);
  Json DoUpdate(const Json& request, const ExecContext& exec);
  Json DoLint(const Json& request) const;
  Json DoStats() const;

  /// Parses and installs `source` as the server program (Create on
  /// first use, incremental Update afterwards — both under `exec`).
  /// Installs serialize among themselves; concurrent checks are
  /// undisturbed. Returns the update stats (all-dirty on first build).
  Result<SafetyAnalyzer::UpdateStats> InstallProgram(
      const std::string& source, const ExecContext& exec);

  /// The served analyzer, or null before the first successful install.
  /// The pointer is stable once set (updates mutate the analyzer's
  /// published snapshot, never the analyzer identity).
  std::shared_ptr<SafetyAnalyzer> served_analyzer() const;

  /// Folds a finished ephemeral (check-with-program) analyzer's
  /// counters into the server-wide analyzer totals reported by stats.
  void AccumulateEphemeral(const SafetyAnalyzer::Counters& c);

  /// The per-request failure-model context: the request's deadline (or
  /// the server default) plus the server's cancellation token.
  ExecContext MakeExec(const Json& request) const;

  ServerOptions options_;
  std::atomic<bool> shutdown_{false};
  CancelToken cancel_;

  /// Guards the analyzer pointer (set once, read per request).
  mutable std::mutex analyzer_mu_;
  std::shared_ptr<SafetyAnalyzer> analyzer_;
  /// Serializes InstallProgram's create-or-update decision.
  std::mutex install_mu_;

  mutable std::mutex mu_;  // guards counters_ and the ephemeral totals
  Counters counters_;
  /// Search-counter totals of completed ephemeral analyzers, merged
  /// into the served analyzer's counters by `stats`.
  SafetyAnalyzer::Counters ephemeral_totals_;
  bool ephemeral_seen_ = false;
};

/// Builds the error reply for a request line that was shed before
/// analysis (queue overflow or post-shutdown drain). `line` is parsed
/// only to recover the request id; `message` names the reason.
std::string ShedReply(const std::string& line, const std::string& message);

}  // namespace hornsafe

#endif  // HORNSAFE_CORE_SERVER_H_
