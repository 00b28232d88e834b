#ifndef HORNSAFE_BENCH_BENCH_UTIL_H_
#define HORNSAFE_BENCH_BENCH_UTIL_H_

// Shared synthetic workload generators for the benchmark suite. Every
// generator is deterministic so that all runs see identical inputs.

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "lang/program.h"
#include "parser/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hornsafe::bench {

/// Machine-readable results sink. Benchmarks call
/// `JsonDump::Get("evaluation").Record(...)`; the collected entries are
/// flushed to `BENCH_<suite>.json` in the working directory when the
/// process exits (the binaries link benchmark_main, so there is no main
/// to hook — a function-local static's destructor does the flush).
/// The first `Get` call fixes the suite name for the whole process.
///
/// Several binaries may share one suite (bench_subset_condition and
/// bench_safety_pipeline both feed "safety"): the flush merges with an
/// existing file, keeping prior entries whose benchmark name this
/// process did not re-record.
class JsonDump {
 public:
  static JsonDump& Get(const std::string& suite) {
    static JsonDump dump(suite);
    return dump;
  }

  void Record(std::string bench, std::string metric, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    // Last write wins: google-benchmark re-invokes benchmark functions
    // while estimating iteration counts, and each invocation re-records.
    for (Entry& e : entries_) {
      if (e.bench == bench && e.metric == metric) {
        e.value = value;
        return;
      }
    }
    entries_.push_back({std::move(bench), std::move(metric), value});
  }

  /// Best-effort commit id for dump provenance: CI's GITHUB_SHA when
  /// set, else `git rev-parse HEAD`, else "unknown" (e.g. a tarball
  /// checkout without git). Never fails the dump.
  static std::string GitSha() {
    if (const char* env = std::getenv("GITHUB_SHA")) {
      if (*env != '\0') return env;
    }
    std::string sha;
    if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char buf[64];
      if (std::fgets(buf, sizeof(buf), p) != nullptr) {
        for (const char* c = buf;
             std::isxdigit(static_cast<unsigned char>(*c)); ++c) {
          sha += *c;
        }
      }
      ::pclose(p);
    }
    return sha.size() == 40 ? sha : "unknown";
  }

  ~JsonDump() {
    if (entries_.empty()) return;
    std::string path = StrCat("BENCH_", suite_, ".json");
    MergeExisting(path);
    // Write to a temp file and rename into place: suites are shared
    // between binaries, and a reader (or a second flushing process)
    // must never observe a truncated dump.
    std::string tmp = StrCat(path, ".tmp.", ::getpid());
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) return;
    // git_sha is a top-level field, not a result row: MergeExisting's
    // row scanner ignores it, and each flushing process re-stamps it.
    std::fprintf(f,
                 "{\n  \"suite\": \"%s\",\n  \"git_sha\": \"%s\",\n"
                 "  \"results\": [\n",
                 Escape(suite_).c_str(), Escape(GitSha()).c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"benchmark\": \"%s\", \"metric\": \"%s\", "
                   "\"value\": %.9g}%s\n",
                   Escape(e.bench).c_str(), Escape(e.metric).c_str(),
                   e.value, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    bool ok = std::fclose(f) == 0;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
    }
  }

 private:
  struct Entry {
    std::string bench;
    std::string metric;
    double value;
  };

  explicit JsonDump(std::string suite) : suite_(std::move(suite)) {}

  /// Prepends the entries of an existing dump file whose benchmark name
  /// was not re-recorded by this process. The file is our own writer's
  /// output, so a line-per-entry scan is sufficient.
  void MergeExisting(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return;
    std::vector<Entry> kept;
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      char bench[128], metric[128];
      double value = 0;
      if (std::sscanf(line,
                      "    {\"benchmark\": \"%127[^\"]\", \"metric\": "
                      "\"%127[^\"]\", \"value\": %lf",
                      bench, metric, &value) != 3) {
        continue;
      }
      bool rerecorded = false;
      for (const Entry& e : entries_) {
        if (e.bench == bench) rerecorded = true;
      }
      if (!rerecorded) kept.push_back({bench, metric, value});
    }
    std::fclose(f);
    entries_.insert(entries_.begin(), kept.begin(), kept.end());
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string suite_;
  std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Parses or dies (benchmarks have no error channel worth using).
inline Program MustParse(const std::string& text) {
  auto r = ParseProgram(text);
  if (!r.ok()) {
    std::fprintf(stderr, "bench program parse error: %s\n%s\n",
                 r.status().ToString().c_str(), text.c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// A chain of `depth` derived predicates, each reading the next through
/// an FD-guarded infinite relation — a *safe* family whose And-Or graph
/// grows linearly with depth:
///   r0(X) :- f(X,Y), r1(Y), g0(Y).   ...   r<depth>(X) :- base(X).
inline Program GuardedChain(int depth) {
  std::string text = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    text += StrCat("r", i, "(X) :- f(X,Y), r", i + 1, "(Y), g", i,
                   "(Y).\n");
  }
  text += StrCat("r", depth, "(X) :- base(X).\n");
  text += "?- r0(X).\n";
  return MustParse(text);
}

/// The chain without the finite guards and with the last predicate
/// calling back to the first — a grounded recursive cycle through the
/// FD, i.e. a genuinely *unsafe* family (the Example 4-without-guard
/// pattern stretched over `depth` predicates).
inline Program UnguardedChain(int depth) {
  std::string text = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    text += StrCat("r", i, "(X) :- f(X,Y), r", i + 1, "(Y).\n");
  }
  text += StrCat("r", depth, "(X) :- f(X,Y), r0(Y).\n");
  text += StrCat("r", depth, "(X) :- base(X).\n");
  text += "?- r0(X).\n";
  return MustParse(text);
}

/// One recursive predicate defined by `m` parallel guarded rules — the
/// "m rules per literal" knob of Lemma 8.
inline Program ParallelRules(int m) {
  std::string text = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < m; ++i) {
    text += StrCat("r(X) :- f(X,Y), r(Y), g", i, "(Y).\n");
  }
  text += "r(X) :- base(X).\n?- r(X).\n";
  return MustParse(text);
}

/// A single rule over a head predicate of the given arity — the 2^arity
/// adornment blow-up of Algorithm 2.
inline Program WideHead(int arity) {
  std::string head_vars, body;
  for (int i = 0; i < arity; ++i) {
    if (i > 0) head_vars += ",";
    head_vars += StrCat("X", i);
    body += StrCat(i > 0 ? ", " : "", "b", i, "(X", i, ")");
  }
  std::string text = StrCat("r(", head_vars, ") :- ", body, ".\n");
  text += StrCat("r(", head_vars, ") :- r(", head_vars, "), c(X0).\n");
  return MustParse(text);
}

/// A *safe* family whose brute-force counterexample search is
/// exponential in `m` while the SCC-delegating search is linear. A ring
/// b0 -> b1 -> ... -> b{m-1} -> b0 passes the head variable straight
/// through, so the f-node-free forward cycle that kills every candidate
/// graph only closes when the ring's last edge is expanded — and each
/// ring node also requires its own independent two-way diamond `d_i`
/// (two unguarded rule variants, both of which close 0-free). The joint
/// search re-enumerates the diamond choices of every level on the way
/// to each failure (2^(m-1) combinations); the delegating search
/// settles each diamond once, behind its memo entry, and backtracking
/// in the ring never re-enters them.
inline Program SharedDiamond(int m) {
  std::string text =
      ".infinite f/2.\n.fd f: 2 -> 1.\n"
      ".infinite g/2.\n.fd g: 2 -> 1.\n"
      ".infinite t2/2.\n";
  for (int i = 0; i < m; ++i) {
    text += StrCat("b", i, "(X) :- d", i, "(X), b", (i + 1) % m,
                   "(X).\n");
    text += StrCat("d", i, "(X) :- f(X,Y), e", i, "(Y).\n");
    text += StrCat("d", i, "(X) :- g(X,Y), e", i, "(Y).\n");
    text += StrCat("e", i, "(X) :- t2(X,Z).\n");
  }
  text += "b0(X) :- c(X).\n";
  text += "?- b0(X).\n";
  return MustParse(text);
}

/// A term of the given nesting depth, e.g. f(f(f(a))).
inline std::string DeepTerm(int depth) {
  std::string t = "a";
  for (int i = 0; i < depth; ++i) t = StrCat("f(", t, ")");
  return t;
}

/// Rules whose bodies contain nested function terms and constants —
/// Algorithm 1 stress.
inline Program DeepTermProgram(int rules, int depth) {
  std::string text;
  for (int i = 0; i < rules; ++i) {
    text += StrCat("r", i, "(X) :- b(X, ", DeepTerm(depth), ", ", i,
                   ").\n");
  }
  return MustParse(text);
}

/// A linear `edge` chain plus transitive closure — the naive vs
/// semi-naive evaluation workload.
inline Program ChainGraph(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += StrCat("edge(", i, ",", i + 1, ").\n");
  }
  text +=
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  return MustParse(text);
}

/// A random mixed program: some finite base predicates, an FD'd
/// infinite relation, and `rules` derived rules that are guarded with
/// probability `guard_num`/`guard_den` — the detection-rate workload
/// for the ablation benches.
inline std::string RandomFamilyText(uint64_t seed, int rules,
                                    uint64_t guard_num,
                                    uint64_t guard_den) {
  Rng rng(seed);
  std::string text =
      ".infinite f/2.\n.fd f: 2 -> 1.\n.mono f: 2 > 1.\n"
      ".mono f: 1 > const(0).\n";
  for (int i = 0; i < rules; ++i) {
    bool guarded = rng.Chance(guard_num, guard_den);
    text += StrCat("r", i, "(X) :- f(X,Y), r", i, "(Y)",
                   guarded ? ", a(Y)" : "", ".\n");
    text += StrCat("r", i, "(X) :- b(X).\n");
    text += StrCat("?- r", i, "(X).\n");
  }
  return text;
}

/// The incremental-analysis edit workload: `modules` independent copies
/// of the SharedDiamond family (predicate names suffixed "_m<j>"), each
/// exporting every ring predicate as a query point (the serve model:
/// one `check` re-verifies all published queries after each edit).
/// In every module the ring queries b_i are safe (the ring is grounded
/// by the finite c) and the diamond queries d_i unsafe (Y is a free
/// column of the infinite t2, and f: 2 -> 1 passes it to X); an edit
/// only adds a finite guard, so it changes no verdict. `edit >= 0`
/// structurally edits module
/// `edit % modules` by appending a fresh guard literal (whose name
/// varies with `edit`) to that module's grounding rule, so exactly that
/// module's ring cones change fingerprint; every other module is
/// byte-identical across edits. With a shared pipeline cache a warm
/// re-analysis therefore re-searches one module's queries out of
/// `modules`.
inline std::string ModularWorkloadText(int modules, int m, int edit = -1) {
  std::string text;
  for (int j = 0; j < modules; ++j) {
    std::string s = StrCat("_m", j);
    text += StrCat(".infinite f", s, "/2.\n.fd f", s, ": 2 -> 1.\n");
    text += StrCat(".infinite g", s, "/2.\n.fd g", s, ": 2 -> 1.\n");
    text += StrCat(".infinite t2", s, "/2.\n");
    for (int i = 0; i < m; ++i) {
      text += StrCat("b", i, s, "(X) :- d", i, s, "(X), b", (i + 1) % m,
                     s, "(X).\n");
      text += StrCat("d", i, s, "(X) :- f", s, "(X,Y), e", i, s,
                     "(Y).\n");
      text += StrCat("d", i, s, "(X) :- g", s, "(X,Y), e", i, s,
                     "(Y).\n");
      text += StrCat("e", i, s, "(X) :- t2", s, "(X,Z).\n");
    }
    if (edit >= 0 && edit % modules == j) {
      text += StrCat("b0", s, "(X) :- c", s, "(X), w", edit, s,
                     "(X).\n");
    } else {
      text += StrCat("b0", s, "(X) :- c", s, "(X).\n");
    }
    for (int i = 0; i < m; ++i) {
      text += StrCat("?- b", i, s, "(X).\n");
      text += StrCat("?- d", i, s, "(X).\n");
    }
  }
  return text;
}

}  // namespace hornsafe::bench

#endif  // HORNSAFE_BENCH_BENCH_UTIL_H_
