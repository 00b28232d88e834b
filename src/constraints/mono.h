#ifndef HORNSAFE_CONSTRAINTS_MONO_H_
#define HORNSAFE_CONSTRAINTS_MONO_H_

#include <vector>

#include "andor/adorn.h"
#include "andor/subset.h"
#include "andor/system.h"
#include "constraints/argmap.h"
#include "lang/program.h"

namespace hornsafe {

/// Theorem 5 of the paper: a candidate counterexample AND-graph still
/// satisfies the (strengthened) subset condition if it contains a cycle
/// that can only be traversed a finite number of times — an *increasing*
/// cycle bounded above or a *decreasing* cycle bounded below under the
/// program's monotonicity constraints, or a cycle whose summarised
/// argument mapping is invalid (it can produce no bindings at all).
///
/// `MonotonicityAnalyzer` reconstructs, from a chosen AND-graph, the
/// rule cycles it realises (sequences of adorned rules linked through
/// derived body occurrences, paper Section 4), composes their argument
/// mappings into a pivot self-mapping, and certifies finiteness:
///
///   * `head_i < occ_i` with position i bounded below  — each bottom-up
///     application derives a strictly smaller value, so only finitely
///     many new values exist (Example 13);
///   * `head_i > occ_i` with position i bounded above — symmetric;
///   * invalid summary — the cycle is contradictory and derives nothing.
///
/// The per-graph decision: certified cycles are *finite sources*, and a
/// graph satisfies the strengthened condition iff the root's binding set
/// is finite once certified-cycle nodes are seeded finite and finiteness
/// is propagated through the chosen rules (a body is an intersection of
/// sources, so one finite member suffices). Certification is
/// rotation-independent: a strictly monotone cycle is finitely
/// traversable if *any* of its positions-on-track is bounded (constant
/// bound, or safe because bound by the adornment — "a cycle is bounded
/// above and below if it contains a safe node").
///
/// Use `MakeEscape()` as `SubsetOptions::escape` to run the Theorem 5
/// test inside `CheckSubsetCondition`.
class MonotonicityAnalyzer {
 public:
  MonotonicityAnalyzer(const Program& canonical,
                       const AdornedProgram& adorned,
                       const AndOrSystem& system);

  /// True iff `g` satisfies the Theorem 5 condition: the root is finite
  /// given the certified (finitely-traversable) rule cycles it realises.
  /// Runs its cycle search in `g.scc`.
  bool GraphSatisfiesTheorem5(const ChosenGraph& g) const;

  /// Adapter for SubsetOptions::escape.
  GraphEscape MakeEscape() const;

  /// Maximum rule-cycle length explored (longer cycles are rare and
  /// expensive to certify).
  static constexpr int kMaxCycleLength = 8;

 private:
  /// One body occurrence of an adorned rule.
  struct Occurrence {
    uint32_t adorned_rule = 0;
    const Literal* lit = nullptr;
    /// Head -> occurrence argument mapping, built once in the
    /// constructor for derived occurrences (the only ones that call).
    ArgumentMapping mapping{0, 0};
  };

  struct MetaEdge {
    /// The call's occurrence; the call occurs in `occ->adorned_rule`.
    const Occurrence* occ;
    /// Adorned rule chosen for the callee's head-argument node.
    uint32_t to_rule;
    /// The BodyArgAdorned node realising the call (its callee HeadArg
    /// node shares its component).
    NodeId call_node = kInvalidNode;
  };

  /// Rebuilds the call edges realised by `g` whose endpoints share a
  /// strongly connected component of the chosen subgraph (i.e. that lie
  /// on a cycle). Leaves those components in `g.scc`.
  std::vector<MetaEdge> CyclicCallEdges(const ChosenGraph& g) const;

  /// True iff some rotation of the cycle certifies finiteness.
  bool CycleCertified(const std::vector<const MetaEdge*>& cycle) const;

  /// Certification with `cycle[pivot]` as the pivot.
  bool CycleCertifiedAtPivot(const std::vector<const MetaEdge*>& cycle,
                             size_t pivot) const;

  const Program& program_;
  const AdornedProgram& adorned_;
  const AndOrSystem& system_;
  /// Per canonical rule: its monotonicity-induced variable order.
  std::vector<VariableOrder> orders_;
  /// By occurrence id.
  std::vector<Occurrence> occurrences_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_CONSTRAINTS_MONO_H_
