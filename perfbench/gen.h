#ifndef HORNSAFE_PERFBENCH_GEN_H_
#define HORNSAFE_PERFBENCH_GEN_H_

// Seeded input generators for the benchmark. These are the benchmark's
// own copies of the bench/bench_util.h families (same shapes, same
// verdicts), so the inputs a given seed produces stay fixed even when
// the repository's micro-benches change their generators. Everything
// here returns program *text*: the program under test only ever sees
// generated source, exactly as a user would hand it over.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream for `salt` from a run seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng r(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return r.Next();
}

inline std::string Num(uint64_t v) { return std::to_string(v); }

/// Safe, build-linear: each r_i reads the next through f (f: 2 -> 1)
/// and is guarded by the finite g_i.
inline std::string GuardedChain(int depth) {
  std::string t = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    t += "r" + Num(i) + "(X) :- f(X,Y), r" + Num(i + 1) + "(Y), g" +
         Num(i) + "(Y).\n";
  }
  t += "r" + Num(depth) + "(X) :- base(X).\n?- r0(X).\n";
  return t;
}

/// Unsafe: the chain without guards, closed into a cycle through f —
/// the search must find a counterexample witness.
inline std::string UnguardedChain(int depth) {
  std::string t = ".infinite f/2.\n.fd f: 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    t += "r" + Num(i) + "(X) :- f(X,Y), r" + Num(i + 1) + "(Y).\n";
  }
  t += "r" + Num(depth) + "(X) :- f(X,Y), r0(Y).\n";
  t += "r" + Num(depth) + "(X) :- base(X).\n?- r0(X).\n";
  return t;
}

/// One SharedDiamond module with predicate suffix `s`: a ring of m
/// predicates, each behind a two-way diamond (the memoized search
/// settles each diamond once). `ground_extra` is appended to the ring's
/// grounding rule body.
inline std::string DiamondModule(int m, const std::string& s,
                                 const std::string& ground_extra) {
  std::string t = ".infinite f" + s + "/2.\n.fd f" + s + ": 2 -> 1.\n" +
                  ".infinite g" + s + "/2.\n.fd g" + s + ": 2 -> 1.\n" +
                  ".infinite t2" + s + "/2.\n";
  for (int i = 0; i < m; ++i) {
    std::string n = Num(i) + s;
    t += "b" + n + "(X) :- d" + n + "(X), b" + Num((i + 1) % m) + s +
         "(X).\n";
    t += "d" + n + "(X) :- f" + s + "(X,Y), e" + n + "(Y).\n";
    t += "d" + n + "(X) :- g" + s + "(X,Y), e" + n + "(Y).\n";
    t += "e" + n + "(X) :- t2" + s + "(X,Z).\n";
  }
  t += "b0" + s + "(X) :- c" + s + "(X)" + ground_extra + ".\n";
  return t;
}

/// Safe: one diamond ring of m predicates, queried at its root.
inline std::string SharedDiamond(int m) {
  return DiamondModule(m, "", "") + "?- b0(X).\n";
}

/// Safe (no infinite relation): one head of the given arity — the 2^n
/// adornment blow-up of Algorithm 2. Has no query; analyzed per
/// predicate under the all-free adornment.
inline std::string WideHead(int arity) {
  std::string vars, body;
  for (int i = 0; i < arity; ++i) {
    vars += (i > 0 ? "," : "") + std::string("X") + Num(i);
    body += (i > 0 ? ", " : "") + std::string("b") + Num(i) + "(X" +
            Num(i) + ")";
  }
  return "r(" + vars + ") :- " + body + ".\nr(" + vars + ") :- r(" + vars +
         "), c(X0).\n";
}

/// Safe by Theorem 5: `rules` recursions through f, each guarded with
/// probability num/den; the unguarded ones are finitely traversable
/// because f descends (2 > 1) towards a lower bound (1 > const(0)).
inline std::string RandomFamilyText(uint64_t seed, int rules,
                                    uint64_t guard_num, uint64_t guard_den) {
  Rng rng(seed);
  std::string t =
      ".infinite f/2.\n.fd f: 2 -> 1.\n.mono f: 2 > 1.\n"
      ".mono f: 1 > const(0).\n";
  for (int i = 0; i < rules; ++i) {
    bool guarded = rng.Chance(guard_num, guard_den);
    t += "r" + Num(i) + "(X) :- f(X,Y), r" + Num(i) + "(Y)" +
         (guarded ? ", a(Y)" : "") + ".\n";
    t += "r" + Num(i) + "(X) :- b(X).\n?- r" + Num(i) + "(X).\n";
  }
  return t;
}

/// `modules` independent diamond rings (suffix _m<j>), every ring
/// predicate b_i (safe) and diamond predicate d_i (unsafe: its X comes
/// from a free column of t2) queried — the serve/editor program. With
/// `edit_module >= 0`, that module's grounding rule gains the finite
/// guard `w<guard>_m<j>(X)`, which changes exactly that module's cone
/// fingerprints (a fresh `guard` gives fresh fingerprints).
inline std::string ModularWorkloadText(int modules, int m,
                                       int edit_module = -1,
                                       uint64_t guard = 0) {
  std::string t;
  for (int j = 0; j < modules; ++j) {
    std::string s = "_m" + Num(j);
    std::string extra =
        j == edit_module ? ", w" + Num(guard) + s + "(X)" : std::string();
    t += DiamondModule(m, s, extra);
    for (int i = 0; i < m; ++i) {
      t += "?- b" + Num(i) + s + "(X).\n?- d" + Num(i) + s + "(X).\n";
    }
  }
  return t;
}

}  // namespace perfbench

#endif  // HORNSAFE_PERFBENCH_GEN_H_
