#ifndef HORNSAFE_LANG_PROGRAM_H_
#define HORNSAFE_LANG_PROGRAM_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lang/dependency.h"
#include "lang/diagnostic.h"
#include "lang/literal.h"
#include "lang/rule.h"
#include "lang/source_span.h"
#include "lang/symbol.h"
#include "lang/term.h"
#include "util/status.h"

namespace hornsafe {

/// Classification of a predicate in the database triple (EDB, IDB, IC)
/// of Section 1 of the paper.
enum class PredicateKind : uint8_t {
  /// EDB predicate with finitely many facts ("a, b, ..." in the paper).
  kFiniteBase,
  /// EDB predicate that may hold infinitely many tuples, used to model
  /// arithmetic and function symbols ("f, g, h, ...").
  kInfiniteBase,
  /// IDB predicate defined by rules ("p, q, ...").
  kDerived,
};

/// Printable name of a `PredicateKind`.
const char* PredicateKindName(PredicateKind kind);

/// Metadata for one interned predicate.
struct PredicateInfo {
  SymbolId name = kInvalidSymbol;
  uint32_t arity = 0;
  PredicateKind kind = PredicateKind::kFiniteBase;
  /// Source position of the predicate's first occurrence (declaration
  /// or first use); 0 when interned programmatically.
  SourceSpan span;
};

/// A complete deductive database: symbol/term pools, predicate metadata,
/// IDB rules, EDB facts, integrity constraints (finiteness dependencies
/// and monotonicity constraints) and queries.
///
/// `Program` owns everything the analyses and the evaluator reference, so
/// `TermId`/`PredicateId`/`SymbolId` values are only meaningful relative
/// to one `Program`. It is copyable (useful for program transformations
/// that start from a snapshot).
class Program {
 public:
  Program() = default;
  Program(const Program&) = default;
  Program& operator=(const Program&) = default;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  TermPool& terms() { return terms_; }
  const TermPool& terms() const { return terms_; }

  // --- Predicates -------------------------------------------------------

  /// Returns the id of predicate `name/arity`, creating it (as a finite
  /// base predicate) on first use.
  PredicateId InternPredicate(std::string_view name, uint32_t arity);
  PredicateId InternPredicate(SymbolId name, uint32_t arity);

  /// Returns the id of `name/arity` or `kInvalidPredicate` if unknown.
  PredicateId FindPredicate(std::string_view name, uint32_t arity) const;

  /// Records the source position of `id`'s first occurrence. Only the
  /// first call takes effect (later uses do not move the span); the
  /// parser calls this as it interns predicates.
  void SetPredicateSpan(PredicateId id, SourceSpan span);

  const PredicateInfo& predicate(PredicateId id) const {
    return predicates_[id];
  }
  size_t num_predicates() const { return predicates_.size(); }

  /// The bare name of predicate `id`.
  const std::string& PredicateName(PredicateId id) const {
    return symbols_.Name(predicates_[id].name);
  }

  bool IsDerived(PredicateId id) const {
    return predicates_[id].kind == PredicateKind::kDerived;
  }
  bool IsFiniteBase(PredicateId id) const {
    return predicates_[id].kind == PredicateKind::kFiniteBase;
  }
  bool IsInfiniteBase(PredicateId id) const {
    return predicates_[id].kind == PredicateKind::kInfiniteBase;
  }

  /// Marks `id` as an infinite base predicate. Fails if it is derived or
  /// already has stored facts.
  Status DeclareInfinite(PredicateId id);

  // --- Clauses ----------------------------------------------------------

  /// Adds an IDB rule. The head predicate becomes derived. Fails on arity
  /// mismatches or if the head predicate was declared infinite.
  Status AddRule(Rule rule);

  /// Adds a ground EDB fact over a finite base predicate.
  Status AddFact(Literal fact);

  // --- Integrity constraints --------------------------------------------

  /// Adds a finiteness dependency. The predicate must be a base predicate
  /// and the attribute sets must lie within its arity.
  Status AddFiniteDependency(FiniteDependency fd);

  /// Adds a monotonicity constraint, validated the same way.
  Status AddMonotonicity(MonotonicityConstraint mc);

  // --- Queries ----------------------------------------------------------

  /// Registers a query literal (the paper's `q(t)?` form).
  Status AddQuery(Literal query);

  // --- Access -----------------------------------------------------------

  const std::vector<Rule>& rules() const { return rules_; }
  const std::vector<Literal>& facts() const { return facts_; }
  const std::vector<FiniteDependency>& fds() const { return fds_; }
  const std::vector<MonotonicityConstraint>& monos() const { return monos_; }
  const std::vector<Literal>& queries() const { return queries_; }

  /// All finiteness dependencies declared over `pred`.
  std::vector<FiniteDependency> FdsFor(PredicateId pred) const;

  /// All monotonicity constraints declared over `pred`.
  std::vector<MonotonicityConstraint> MonosFor(PredicateId pred) const;

  /// Rules whose head predicate is `pred`.
  std::vector<const Rule*> RulesFor(PredicateId pred) const;

  /// Removes and returns all rules / facts / queries. Predicate kind
  /// markings are unchanged. Used by program transformations
  /// (canonicalization) that rebuild the clause set in place.
  std::vector<Rule> TakeRules();
  std::vector<Literal> TakeFacts();
  std::vector<Literal> TakeQueries();
  std::vector<FiniteDependency> TakeFds();

  /// Checks global invariants: EDB and IDB predicate sets are disjoint
  /// and every predicate's arity is representable. Returns the first
  /// failure of `ValidateDiagnostics()` as a kInvalidProgram status
  /// (with the diagnostic's source position in the message when known).
  Status Validate() const;

  /// The span-carrying form of `Validate()`: every structural-invariant
  /// violation as an error diagnostic (HS003 arity limit, HS004 EDB/IDB
  /// overlap — see docs/SYNTAX.md). The lint driver merges these with
  /// the advisory checks of src/lint, so structural errors and lint
  /// findings share one error surface.
  std::vector<Diagnostic> ValidateDiagnostics() const;

  // --- Convenience term builders (primarily for tests and examples) -----

  TermId Var(std::string_view name) {
    return terms_.MakeVariable(symbols_.Intern(name));
  }
  TermId Atom(std::string_view name) {
    return terms_.MakeAtom(symbols_.Intern(name));
  }
  TermId Int(int64_t v) { return terms_.MakeInt(v); }
  TermId Func(std::string_view symbol, std::vector<TermId> args) {
    return terms_.MakeFunction(symbols_.Intern(symbol), std::move(args));
  }

  /// Builds a literal over `name/args.size()`, interning the predicate.
  Literal MakeLiteral(std::string_view name, std::vector<TermId> args) {
    PredicateId p =
        InternPredicate(name, static_cast<uint32_t>(args.size()));
    return Literal{p, std::move(args)};
  }

  // --- Printing ---------------------------------------------------------

  std::string ToString(const Literal& lit) const;
  std::string ToString(const Rule& rule) const;

  /// Full listing: declarations, rules, facts, constraints, queries.
  std::string ToString() const;

 private:
  Status CheckLiteral(const Literal& lit, std::string_view context) const;

  struct PredKeyHash {
    size_t operator()(const std::pair<SymbolId, uint32_t>& k) const {
      return std::hash<uint64_t>{}((uint64_t{k.first} << 32) | k.second);
    }
  };

  SymbolTable symbols_;
  TermPool terms_;
  std::vector<PredicateInfo> predicates_;
  std::unordered_map<std::pair<SymbolId, uint32_t>, PredicateId, PredKeyHash>
      predicate_index_;
  std::vector<Rule> rules_;
  std::vector<Literal> facts_;
  std::vector<FiniteDependency> fds_;
  std::vector<MonotonicityConstraint> monos_;
  std::vector<Literal> queries_;
};

/// The distinct variables of `rule` in first-occurrence order
/// (head first, then body left to right).
std::vector<TermId> RuleVariables(const TermPool& pool, const Rule& rule);

/// The distinct variables of `lit` in first-occurrence order.
std::vector<TermId> LiteralVariables(const TermPool& pool, const Literal& lit);

/// The weakly connected predicate component of every rule (a rule joins
/// its head predicate with each of its body predicates), numbered in
/// order of each component's first rule. `num_predicates` bounds every
/// predicate id the rules mention.
std::vector<uint32_t> RuleComponents(const std::vector<Rule>& rules,
                                     size_t num_predicates);

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_PROGRAM_H_
