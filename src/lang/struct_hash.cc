#include "lang/struct_hash.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace hornsafe {
namespace {

/// Domain-separation seeds so that, e.g., an atom and a predicate with
/// the same name never collide structurally.
enum : uint64_t {
  kSeedVariable = 0x56a95d1f31337001ULL,
  kSeedAtom = 0x56a95d1f31337002ULL,
  kSeedInt = 0x56a95d1f31337003ULL,
  kSeedFunction = 0x56a95d1f31337004ULL,
  kSeedLiteral = 0x56a95d1f31337005ULL,
  kSeedRule = 0x56a95d1f31337006ULL,
  kSeedFd = 0x56a95d1f31337007ULL,
  kSeedMono = 0x56a95d1f31337008ULL,
  kSeedPredicate = 0x56a95d1f31337009ULL,
  kSeedProgram = 0x56a95d1f3133700aULL,
  kSeedFact = 0x56a95d1f3133700bULL,
  kSeedQuery = 0x56a95d1f3133700cULL,
};

/// First-occurrence variable numbering for one clause scope.
using VarNumbering = std::unordered_map<TermId, uint64_t>;

uint64_t NumberVariable(TermId var, VarNumbering* numbering) {
  auto [it, inserted] =
      numbering->emplace(var, static_cast<uint64_t>(numbering->size()));
  (void)inserted;
  return it->second;
}

uint64_t HashTerm(const Program& program, TermId id,
                  VarNumbering* numbering) {
  const TermData& t = program.terms().Get(id);
  switch (t.kind) {
    case TermKind::kVariable:
      return CombineHash(kSeedVariable, NumberVariable(id, numbering));
    case TermKind::kAtom:
      return CombineHash(kSeedAtom,
                         HashBytes(program.symbols().Name(t.symbol)));
    case TermKind::kInt:
      return CombineHash(kSeedInt, static_cast<uint64_t>(t.int_value));
    case TermKind::kFunction: {
      uint64_t h = CombineHash(
          kSeedFunction, HashBytes(program.symbols().Name(t.symbol)));
      h = CombineHash(h, t.args.size());
      for (TermId arg : t.args) {
        h = CombineHash(h, HashTerm(program, arg, numbering));
      }
      return h;
    }
  }
  return 0;
}

uint64_t HashLiteralScoped(const Program& program, const Literal& lit,
                           VarNumbering* numbering) {
  const PredicateInfo& info = program.predicate(lit.pred);
  uint64_t h = CombineHash(kSeedLiteral,
                           HashBytes(program.symbols().Name(info.name)));
  h = CombineHash(h, info.arity);
  for (TermId arg : lit.args) {
    h = CombineHash(h, HashTerm(program, arg, numbering));
  }
  return h;
}

/// Sorted (multiset) fold: element order does not matter, repetitions do.
uint64_t FoldSorted(uint64_t seed, std::vector<uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = seed;
  for (uint64_t x : hashes) h = CombineHash(h, x);
  return h;
}

uint64_t HashAttrSet(const AttrSet& set) { return set.bits(); }

}  // namespace

uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t CombineHash(uint64_t seed, uint64_t value) {
  return MixHash(seed ^ (MixHash(value) + 0x9e3779b97f4a7c15ULL +
                         (seed << 6) + (seed >> 2)));
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return MixHash(h);
}

uint64_t StructuralRuleHash(const Program& program, const Rule& rule) {
  VarNumbering numbering;
  uint64_t h = CombineHash(kSeedRule,
                           HashLiteralScoped(program, rule.head, &numbering));
  h = CombineHash(h, rule.body.size());
  for (const Literal& lit : rule.body) {
    h = CombineHash(h, HashLiteralScoped(program, lit, &numbering));
  }
  return h;
}

uint64_t StructuralLiteralHash(const Program& program, const Literal& lit) {
  VarNumbering numbering;
  return HashLiteralScoped(program, lit, &numbering);
}

uint64_t StructuralFdHash(const Program& program,
                          const FiniteDependency& fd) {
  const PredicateInfo& info = program.predicate(fd.pred);
  uint64_t h =
      CombineHash(kSeedFd, HashBytes(program.symbols().Name(info.name)));
  h = CombineHash(h, info.arity);
  h = CombineHash(h, HashAttrSet(fd.lhs));
  h = CombineHash(h, HashAttrSet(fd.rhs));
  return h;
}

uint64_t StructuralMonoHash(const Program& program,
                            const MonotonicityConstraint& mc) {
  const PredicateInfo& info = program.predicate(mc.pred);
  uint64_t h =
      CombineHash(kSeedMono, HashBytes(program.symbols().Name(info.name)));
  h = CombineHash(h, info.arity);
  h = CombineHash(h, static_cast<uint64_t>(mc.kind));
  h = CombineHash(h, mc.lhs_attr);
  h = CombineHash(h, mc.rhs_attr);
  h = CombineHash(h, static_cast<uint64_t>(mc.bound));
  return h;
}

uint64_t StructuralPredicateHash(const Program& program, PredicateId pred) {
  const PredicateInfo& info = program.predicate(pred);
  uint64_t h = CombineHash(kSeedPredicate,
                           HashBytes(program.symbols().Name(info.name)));
  h = CombineHash(h, info.arity);
  h = CombineHash(h, static_cast<uint64_t>(info.kind));

  std::vector<uint64_t> rules, facts, fds, monos;
  for (const Rule& r : program.rules()) {
    if (r.head.pred == pred) rules.push_back(StructuralRuleHash(program, r));
  }
  for (const Literal& f : program.facts()) {
    if (f.pred == pred) {
      facts.push_back(
          CombineHash(kSeedFact, StructuralLiteralHash(program, f)));
    }
  }
  for (const FiniteDependency& fd : program.fds()) {
    if (fd.pred == pred) fds.push_back(StructuralFdHash(program, fd));
  }
  for (const MonotonicityConstraint& mc : program.monos()) {
    if (mc.pred == pred) monos.push_back(StructuralMonoHash(program, mc));
  }
  h = FoldSorted(h, std::move(rules));
  h = FoldSorted(h, std::move(facts));
  h = FoldSorted(h, std::move(fds));
  h = FoldSorted(h, std::move(monos));
  return h;
}

std::vector<uint64_t> StructuralPredicateHashes(const Program& program) {
  const size_t n = program.num_predicates();
  // Same per-predicate fold as StructuralPredicateHash, but each clause
  // is hashed exactly once and bucketed by its predicate instead of the
  // O(P × program) rescans of the per-predicate entry point.
  std::vector<std::vector<uint64_t>> rules(n), facts(n), fds(n), monos(n);
  for (const Rule& r : program.rules()) {
    rules[r.head.pred].push_back(StructuralRuleHash(program, r));
  }
  for (const Literal& f : program.facts()) {
    facts[f.pred].push_back(
        CombineHash(kSeedFact, StructuralLiteralHash(program, f)));
  }
  for (const FiniteDependency& fd : program.fds()) {
    fds[fd.pred].push_back(StructuralFdHash(program, fd));
  }
  for (const MonotonicityConstraint& mc : program.monos()) {
    monos[mc.pred].push_back(StructuralMonoHash(program, mc));
  }
  std::vector<uint64_t> out(n);
  for (PredicateId p = 0; p < static_cast<PredicateId>(n); ++p) {
    const PredicateInfo& info = program.predicate(p);
    uint64_t h = CombineHash(kSeedPredicate,
                             HashBytes(program.symbols().Name(info.name)));
    h = CombineHash(h, info.arity);
    h = CombineHash(h, static_cast<uint64_t>(info.kind));
    h = FoldSorted(h, std::move(rules[p]));
    h = FoldSorted(h, std::move(facts[p]));
    h = FoldSorted(h, std::move(fds[p]));
    h = FoldSorted(h, std::move(monos[p]));
    out[p] = h;
  }
  return out;
}

uint64_t StructuralProgramHashFrom(const Program& program,
                                   const std::vector<uint64_t>& own) {
  std::vector<uint64_t> parts;
  parts.reserve(own.size() + program.queries().size());
  parts = own;
  for (const Literal& q : program.queries()) {
    parts.push_back(
        CombineHash(kSeedQuery, StructuralLiteralHash(program, q)));
  }
  return FoldSorted(kSeedProgram, std::move(parts));
}

uint64_t StructuralProgramHash(const Program& program) {
  std::vector<uint64_t> parts;
  parts.reserve(program.num_predicates() + program.queries().size());
  for (PredicateId p = 0;
       p < static_cast<PredicateId>(program.num_predicates()); ++p) {
    parts.push_back(StructuralPredicateHash(program, p));
  }
  for (const Literal& q : program.queries()) {
    parts.push_back(
        CombineHash(kSeedQuery, StructuralLiteralHash(program, q)));
  }
  return FoldSorted(kSeedProgram, std::move(parts));
}

}  // namespace hornsafe
