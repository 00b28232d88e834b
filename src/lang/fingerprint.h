#ifndef HORNSAFE_LANG_FINGERPRINT_H_
#define HORNSAFE_LANG_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "lang/program.h"

namespace hornsafe {

/// The predicate dependency graph of a program: `p` depends on `q` when
/// some rule with head `p` mentions `q` in its body. Safety verdicts for
/// an argument position of `p` only ever look *down* this graph — the
/// And-Or fragment reachable from `p`'s head-argument nodes is built
/// from `p`'s rules and its transitive callees — which is what makes
/// per-predicate cone fingerprints a sound cache key (DESIGN.md, D12).
class PredicateDepGraph {
 public:
  static PredicateDepGraph Build(const Program& program);

  /// Deduplicated, sorted callees of `pred`.
  const std::vector<PredicateId>& Callees(PredicateId pred) const {
    return callees_[pred];
  }

  /// Condensation component of `pred` (Tarjan; components are numbered
  /// in reverse topological order: callees before callers).
  int32_t SccOf(PredicateId pred) const { return scc_of_[pred]; }

  int32_t NumSccs() const { return num_sccs_; }

  /// Members of component `scc`, ascending.
  const std::vector<PredicateId>& SccMembers(int32_t scc) const {
    return scc_members_[scc];
  }

  size_t num_predicates() const { return callees_.size(); }

 private:
  std::vector<std::vector<PredicateId>> callees_;
  std::vector<int32_t> scc_of_;
  std::vector<std::vector<PredicateId>> scc_members_;
  int32_t num_sccs_ = 0;
};

/// Per-predicate content fingerprints.
struct ProgramFingerprints {
  /// own[p]: StructuralPredicateHash — name, arity, kind and the sorted
  /// rule/fact/FD/monotonicity hash multisets of `p` alone.
  std::vector<uint64_t> own;
  /// cone[p]: own[p] mixed with the fingerprint of everything reachable
  /// from `p` in the dependency graph. Mutually recursive predicates
  /// share the same cone *content* but still receive distinct
  /// fingerprints (their own hash is mixed back in), so a cache keyed
  /// by cone[p] distinguishes the members of an SCC.
  std::vector<uint64_t> cone;
  /// Alpha- and clause-order-invariant whole-program hash.
  uint64_t program = 0;
};

/// Computes own and cone fingerprints for every predicate of `program`.
/// Cost: one Tarjan pass plus one structural-hash pass, linear in the
/// program (no search). An edit to predicate `q` changes cone[p] for
/// exactly the predicates `p` that can reach `q` — the "invalidation
/// cone" of the edit.
ProgramFingerprints ComputeFingerprints(const Program& program);

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_FINGERPRINT_H_
