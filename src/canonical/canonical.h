#ifndef HORNSAFE_CANONICAL_CANONICAL_H_
#define HORNSAFE_CANONICAL_CANONICAL_H_

#include <unordered_map>

#include "lang/program.h"
#include "util/status.h"

namespace hornsafe {

/// Options controlling Algorithm 1.
struct CanonicalizeOptions {
  /// Attach the dependency `{args} ⇝ result` to every generated
  /// function predicate: a function computes finitely many (one) result
  /// per argument tuple.
  bool add_function_fds = true;
  /// Also attach `result ⇝ {args}`: uninterpreted function symbols are
  /// constructors, i.e. injective, so the result determines the
  /// arguments (this is what makes `concat` run backwards safely in
  /// Example 7).
  bool add_constructor_fds = true;
  /// Attach the subterm-ordering monotonicity constraints
  /// (`result > argᵢ`, every position bounded below) to generated
  /// function predicates, enabling the Theorem 5 structural-recursion
  /// argument (DESIGN.md, D9).
  bool add_constructor_monos = true;
};

/// Output of `Canonicalize`: the canonical program plus provenance maps
/// from generated predicates back to the syntax they replaced.
struct CanonicalizationResult {
  /// The canonical program: every rule/query argument is a variable;
  /// constants live in generated singleton finite EDB predicates and
  /// function symbols in generated infinite EDB predicates.
  Program program;
  /// Generated constant predicate -> the constant term it holds
  /// (term id valid in `program`).
  std::unordered_map<PredicateId, TermId> constant_preds;
  /// Generated function predicate -> the original function symbol
  /// (symbol id valid in `program`).
  std::unordered_map<PredicateId, SymbolId> function_preds;
};

/// Algorithm 1 of the paper: rewrites `input` into canonical form.
///
/// * Every constant occurrence in a rule or query is replaced by a fresh
///   variable guarded by a generated finite EDB predicate holding exactly
///   that constant; equal constants share one predicate (Example 6).
/// * Every function-symbol occurrence `g(t₁..tₖ)` is flattened, innermost
///   first, into a fresh variable `V` plus a body literal
///   `fn_g(t₁..tₖ,V)` over a generated infinite EDB predicate
///   (Example 7). One predicate is generated per function symbol; the
///   paper generates one per *occurrence*, but Algorithm 2 renames body
///   occurrences apart anyway, so the two choices are equivalent for the
///   safety analysis (DESIGN.md, D7).
/// * EDB facts containing function terms (e.g. `p([1,1]).`, Example 8)
///   become rules and are flattened like any other rule; plain constant
///   facts remain EDB data.
/// * A query whose arguments are not distinct variables is wrapped in a
///   fresh derived predicate over its distinct variables (Example 6).
/// * Rules come out component-major: stably sorted by the first rule of
///   their weakly connected predicate component (RuleComponents), so
///   every component's rules form one contiguous run. Programs whose
///   components are already contiguous keep their rule order.
///
/// By Theorem 2, safety of the result implies safety of `input`; the
/// converse fails in general (Example 8).
Result<CanonicalizationResult> Canonicalize(const Program& input,
                                            const CanonicalizeOptions& opts =
                                                CanonicalizeOptions{});

/// True iff `program` is already in canonical form: every argument of
/// every rule head, rule body literal and query is a variable.
bool IsCanonical(const Program& program);

}  // namespace hornsafe

#endif  // HORNSAFE_CANONICAL_CANONICAL_H_
