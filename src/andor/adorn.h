#ifndef HORNSAFE_ANDOR_ADORN_H_
#define HORNSAFE_ANDOR_ADORN_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "lang/program.h"
#include "util/status.h"

namespace hornsafe {

/// An adornment over `arity` argument positions: bit k set in
/// `bound_mask` means position k is bound ('b'), clear means free ('f').
/// The paper writes these as superscript strings like "bf".
struct Adornment {
  uint64_t bound_mask = 0;
  uint32_t arity = 0;

  bool IsBound(uint32_t k) const { return (bound_mask >> k) & 1; }
  bool AllFree() const { return bound_mask == 0; }

  /// "bf" style rendering, 'b' for bound.
  std::string ToString() const;

  bool operator==(const Adornment& o) const {
    return bound_mask == o.bound_mask && arity == o.arity;
  }
};

/// Enumerates the adornments of `lit` that are *consistent*: positions
/// holding the same variable receive the same letter (paper, Section 3).
/// `lit` must have all-variable arguments (canonical form). The result
/// has 2^(#distinct variables) entries, all-free first.
std::vector<Adornment> ConsistentAdornments(const TermPool& pool,
                                            const Literal& lit);

/// Memoizing wrapper around ConsistentAdornments. The result depends
/// only on the literal's *grouping pattern* — which positions hold the
/// same variable — so r(X,Y), s(A,B) and r(U,V) all share one cache
/// entry, and the 2^groups enumeration runs once per pattern instead of
/// once per occurrence. One cache serves literals of any predicate, and
/// may be probed from concurrent pipeline builds (it lives inside the
/// shared PipelineCache): lookups are internally locked, and entries
/// are never evicted or overwritten, so a returned reference stays
/// valid and immutable for the cache's lifetime even across concurrent
/// inserts (std::map nodes are address-stable).
class AdornmentCache {
 public:
  /// Cached ConsistentAdornments(pool, lit). The reference stays valid
  /// until the cache is destroyed (entries are never evicted).
  const std::vector<Adornment>& For(const TermPool& pool, const Literal& lit);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return memo_.size();
  }

 private:
  mutable std::mutex mu_;
  /// Key: first-occurrence group index per argument position.
  std::map<std::vector<uint32_t>, std::vector<Adornment>> memo_;
};

/// One body literal occurrence in an adorned rule. Occurrence ids are
/// unique across the whole adorned program — the paper's renaming of body
/// predicates ("r1", "r2", ...).
struct BodyOccurrence {
  Literal lit;
  /// Unique across the AdornedProgram.
  uint32_t occurrence_id = 0;
  PredicateKind kind = PredicateKind::kFiniteBase;
};

/// An adorned version of one canonical rule: the head literal carries an
/// adornment, and variables are implicitly renamed apart by scoping them
/// to `adorned_index` (the paper renames "X" to "X1", "X2", ...).
struct AdornedRule {
  PredicateId head_pred = kInvalidPredicate;
  Adornment adornment;
  Literal head;
  std::vector<BodyOccurrence> body;
  /// Index of the originating rule in the canonical program.
  uint32_t source_rule = 0;
  /// Index of this adorned rule within the AdornedProgram.
  uint32_t adorned_index = 0;
};

/// The set H* of adorned rules for a canonical program (paper, Section 3):
/// every rule is replicated once per consistent adornment of its head.
struct AdornedProgram {
  std::vector<AdornedRule> rules;

  /// Indices of adorned rules with the given head predicate and adornment.
  std::vector<uint32_t> RulesFor(PredicateId pred,
                                 const Adornment& adornment) const;

  /// Listing in the paper's Example 9 style: one line per adorned rule,
  /// the head predicate superscripted with its adornment and variables
  /// suffixed with the adorned-rule index ("r^ff(X1,Y1) :- ...").
  std::string ToString(const Program& program) const;
};

/// Builds H* from a canonical program. Fails with InvalidProgram if any
/// rule argument is not a variable (run Canonicalize first). When
/// `cache` is non-null its adornment sets are reused (and extended);
/// keys are program-independent grouping patterns, so one cache may
/// serve any number of programs.
Result<AdornedProgram> BuildAdornedProgram(const Program& canonical,
                                           AdornmentCache* cache = nullptr);

}  // namespace hornsafe

#endif  // HORNSAFE_ANDOR_ADORN_H_
