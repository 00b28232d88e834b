#ifndef HORNSAFE_FD_FD_H_
#define HORNSAFE_FD_FD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lang/attr_set.h"
#include "lang/dependency.h"

namespace hornsafe {

/// Computes the closure `attrs⁺` of an attribute set under the finiteness
/// dependencies `fds` (all assumed to be over the same predicate): the
/// largest set of attributes whose finiteness follows from the finiteness
/// of `attrs` by the Armstrong axioms (Theorem 1). Runs in
/// O(|fds|²) worst case with the classic iterate-to-fixpoint scheme.
AttrSet AttrClosure(AttrSet attrs, const std::vector<FiniteDependency>& fds);

/// True iff `fds ⊨ lhs ⇝ rhs`, i.e. `rhs ⊆ lhs⁺`. By Theorem 1 this is
/// exactly Armstrong derivability.
bool Implies(const std::vector<FiniteDependency>& fds, AttrSet lhs,
             AttrSet rhs);

/// True iff `fd` is redundant given the other dependencies in `fds`
/// (implied by `fds \ {fd}`).
bool IsRedundant(const std::vector<FiniteDependency>& fds, size_t index);

/// A minimal cover: an equivalent set of dependencies where every
/// right-hand side is a single attribute, no left-hand side contains an
/// extraneous attribute, and no dependency is redundant.
std::vector<FiniteDependency> MinimalCover(std::vector<FiniteDependency> fds);

/// All minimal attribute sets `S ⊆ {0..arity-1} \ {attr}` with
/// `attr ∈ S⁺`, i.e. the minimal ways the other attributes can finitely
/// determine `attr` under the *closure* of `fds`. Exponential in `arity`
/// (arity is a predicate arity, so tiny in practice). Used by the
/// builder's `use_fd_closure` option; the paper's Algorithm 2 uses only
/// the declared dependencies.
std::vector<AttrSet> MinimalDeterminants(
    const std::vector<FiniteDependency>& fds, uint32_t arity, uint32_t attr);

/// The left-hand sides of the *declared* dependencies in `fds` whose
/// right-hand side covers `attr` — the "n FDs that determine the kth
/// argument" of Algorithm 2 step 4.
std::vector<AttrSet> DeclaredDeterminants(
    const std::vector<FiniteDependency>& fds, uint32_t attr);

/// Order-invariant content hash of a dependency *set*: a sorted fold of
/// the (lhs, rhs) attribute bitmasks. The predicate id is deliberately
/// excluded — two predicates declaring structurally identical FDs share
/// one hash, so segment guards keyed by it (andor/segment.h) survive
/// updates, where predicate ids are not stable.
uint64_t FdSetHash(const std::vector<FiniteDependency>& fds);

/// Memoizing view over one predicate's dependency set. Algorithm 2
/// step 4 asks for the determinants of the same (predicate, argument)
/// pair once per *occurrence*, and the closure enumeration inside
/// MinimalDeterminants revisits the same attribute sets across
/// arguments — both were recomputed from scratch every time. The index
/// caches attribute-set closures by bitmask and determinant lists by
/// (arity, attr, declared/closure), so repeated occurrences cost one
/// hash lookup.
class FdClosureIndex {
 public:
  FdClosureIndex() = default;
  explicit FdClosureIndex(std::vector<FiniteDependency> fds)
      : fds_(std::move(fds)) {}

  const std::vector<FiniteDependency>& fds() const { return fds_; }

  /// Memoized AttrClosure(attrs, fds()).
  AttrSet Closure(AttrSet attrs);

  /// Cached MinimalDeterminants(fds(), arity, attr), computed with the
  /// memoized closure.
  const std::vector<AttrSet>& Minimal(uint32_t arity, uint32_t attr);

  /// Cached DeclaredDeterminants(fds(), attr).
  const std::vector<AttrSet>& Declared(uint32_t attr);

  /// Memoized IsRedundant(fds(), index).
  bool Redundant(size_t index);

 private:
  std::vector<FiniteDependency> fds_;
  std::unordered_map<uint64_t, AttrSet> closure_memo_;
  /// Key: attr | arity << 8 | kind << 16 (kind 0 = declared,
  /// 1 = minimal; declared ignores arity).
  std::unordered_map<uint32_t, std::vector<AttrSet>> det_memo_;
  /// -1 unknown, else 0/1: memoized IsRedundant per dependency index.
  std::vector<int8_t> redundant_memo_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_FD_FD_H_
