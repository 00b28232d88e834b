#ifndef HORNSAFE_LANG_STRUCT_HASH_H_
#define HORNSAFE_LANG_STRUCT_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lang/program.h"

namespace hornsafe {

/// Stable structural hashing of program components, the foundation of
/// the cross-query pipeline cache (DESIGN.md, D12).
///
/// Two invariances are guaranteed and pinned by tests:
///
///   * *alpha-invariance* — variable names never enter a hash; variables
///     are numbered by first occurrence (head first, then body left to
///     right), so `r(X) :- f(X,Y)` and `r(A) :- f(A,B)` hash equal;
///   * *order-invariance* — `StructuralPredicateHash` and
///     `StructuralProgramHash` fold rule/fact/constraint hashes as
///     sorted multisets, so permuting clauses does not change them.
///
/// Everything semantic *does* enter: predicate names, arities and kinds
/// (finite/infinite/derived), literal order inside a body, constants,
/// function symbols, finiteness dependencies, monotonicity constraints
/// and facts. Any such edit moves the hash.
///
/// Hashes are 64-bit with strong mixing (splitmix64 finalizer). They
/// address cache entries, so a collision could serve a wrong verdict;
/// at 2^-64 per pair this is the standard content-addressing trade.

/// Hash of one rule: alpha-invariant, sensitive to everything else
/// (head/body predicates, literal order, argument patterns, constants,
/// function structure).
uint64_t StructuralRuleHash(const Program& program, const Rule& rule);

/// Hash of a stand-alone literal (e.g. a query): variables numbered by
/// first occurrence within the literal.
uint64_t StructuralLiteralHash(const Program& program, const Literal& lit);

/// Hash of a finiteness dependency (predicate name/arity + both sides).
uint64_t StructuralFdHash(const Program& program,
                          const FiniteDependency& fd);

/// Hash of a monotonicity constraint.
uint64_t StructuralMonoHash(const Program& program,
                            const MonotonicityConstraint& mc);

/// Per-predicate *own* hash: name, arity, kind, and the sorted hash
/// multisets of the predicate's rules, facts, finiteness dependencies
/// and monotonicity constraints. Does not look through callees — that
/// is the cone fingerprint's job (lang/fingerprint.h).
uint64_t StructuralPredicateHash(const Program& program, PredicateId pred);

/// Every predicate's own hash in one pass: each rule/fact/dependency/
/// constraint is hashed once and bucketed by predicate, instead of one
/// full-program scan per predicate. out[p] == StructuralPredicateHash
/// (program, p) for every p; pinned by tests.
std::vector<uint64_t> StructuralPredicateHashes(const Program& program);

/// StructuralProgramHash assembled from precomputed per-predicate own
/// hashes (`own[p]` must equal StructuralPredicateHash(program, p)),
/// so a caller that already has them — ComputeFingerprints — does not
/// hash every clause a second time.
uint64_t StructuralProgramHashFrom(const Program& program,
                                   const std::vector<uint64_t>& own);

/// Whole-program hash: sorted fold of every predicate's own hash plus
/// the sorted query-literal hashes. Alpha- and clause-order-invariant.
uint64_t StructuralProgramHash(const Program& program);

/// splitmix64-style finalizer used throughout; exposed for callers that
/// mix extra context (options bits) into a key.
uint64_t MixHash(uint64_t x);

/// Order-dependent combine of two hashes.
uint64_t CombineHash(uint64_t seed, uint64_t value);

/// Hash of a raw byte string (FNV-1a folded through MixHash).
uint64_t HashBytes(std::string_view bytes);

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_STRUCT_HASH_H_
