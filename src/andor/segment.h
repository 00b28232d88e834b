#ifndef HORNSAFE_ANDOR_SEGMENT_H_
#define HORNSAFE_ANDOR_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "andor/adorn.h"
#include "andor/scc.h"
#include "andor/system.h"
#include "lang/program.h"

namespace hornsafe {

/// Structurally shared node-table segments (DESIGN.md, D15).
///
/// A *segment* is the post-prune node/rule span one weakly connected
/// component of the predicate dependency graph contributes to an
/// `AndOrSystem`, stored in relocatable coordinates. A segment skips
/// the per-rule build entirely: `AndOrSystem::GraftSegment` appends the
/// span's nodes and rules wholesale, resolving each relocation field
/// against the *new* build's predicate ids, adorned-rule indices,
/// occurrence ids and term pool. Only the edited component re-interns.
///
/// Why relocation is exact: ids shift between builds (an edit that adds
/// a predicate renumbers everything after it), but within one component
/// every id is an offset into a dense run — predicate slots in
/// first-appearance order, adorned rules in [ar_begin, ar_end),
/// occurrence ids in [occ_base, occ_base + occ_count) — so storing
/// deltas against the run base makes the encoding independent of where
/// the run lands. Components never share non-terminal nodes (every
/// intern key is scoped to a predicate, adorned rule or occurrence of
/// the component), so a graft can never collide with nodes built for
/// other components, and the rule spans of distinct components never
/// deduplicate against each other.
///
/// Reuse is keyed by the component's ordered rule-guard sequence
/// (ComputeRuleGuard, below) plus the emptiness bits of its predicates
/// and the prune-mode flags — everything the build, emptiness pruning
/// and reduction read. Segments are encoded *after* pruning, with
/// per-rule deleted bits and the span's SccSlice, so a graft also
/// replays the prune verdicts and condensation for free.

/// One relocatable node. Fields mirror PropNode, with ids replaced by
/// run-relative coordinates.
struct SegmentNode {
  PropNodeKind kind = PropNodeKind::kZero;
  bool is_f_node = false;
  /// Component-local predicate slot (first-appearance order over the
  /// component's canonical rules, head then body left-to-right); -1 for
  /// kinds without a predicate.
  int32_t pred_slot = -1;
  uint64_t adornment_mask = 0;
  uint32_t position = 0;
  /// adorned_rule − ar_begin. kHeadArg nodes keep adorned_rule 0 (they
  /// are interned program-wide), so their delta is unused and 0.
  uint32_t ar_delta = 0;
  /// occurrence − occ_base (occurrence kinds only).
  uint32_t occ_delta = 0;
  uint32_t fd_index = 0;
  /// kVariable: where the variable first occurs in its adorned rule —
  /// -1 = head literal, else the body occurrence index. The graft
  /// resolves the new TermId from that argument slot, so variables
  /// relocate without any per-rule variable scan.
  int32_t var_occ = -2;
  /// kVariable: argument position of the first occurrence.
  uint32_t var_pos = 0;
};

/// One propositional rule of the span. Node references are encoded as
/// 0 = the zero terminal, 1 = the one terminal, else local index + 2.
struct SegmentRule {
  uint32_t head = 0;
  std::vector<uint32_t> body;
  /// source_adorned_rule − ar_begin.
  uint32_t ar_delta = 0;
  /// Pruned by Algorithm 3 or 4 in the build this segment was encoded
  /// from; replayed verbatim (prune is deterministic per component).
  bool deleted = false;
};

/// The immutable, shareable encoding of one component's span. Held by
/// `shared_ptr` from both the PipelineCache segment tier and every
/// `AndOrSystem` that grafted it, so retired snapshots keep their
/// segments alive (and pinned-snapshot readers stay safe) even after
/// cache eviction.
struct NodeTableSegment {
  uint32_t num_pred_slots = 0;
  uint32_t num_adorned_rules = 0;
  uint32_t num_occurrences = 0;
  std::vector<SegmentNode> nodes;
  std::vector<SegmentRule> rules;
  /// How the deleted bits split between Algorithm 3 (emptiness) and
  /// Algorithm 4 (reduction), for stitched prune statistics.
  uint64_t pruned_emptiness = 0;
  uint64_t pruned_reduction = 0;
  /// The span's condensation analysis in range-relative coordinates
  /// (scc.h); stitched into the global SccAnalysis at reuse time.
  SccSlice scc;

  /// Approximate resident size in bytes, for memory accounting.
  size_t MemoryBytes() const;
};

/// One weakly connected component of the predicate dependency graph,
/// as a run of canonical rules.
struct PredicateComponent {
  uint32_t first_rule = 0;
  uint32_t num_rules = 0;
};

/// The component partition of a canonical program's rule list.
struct ComponentPartition {
  /// Components in first-rule order.
  std::vector<PredicateComponent> components;
  /// True iff every component's rules form one contiguous run — the
  /// precondition for segment spans (canonicalization keeps a module's
  /// rules together, so this is the common case). When false the
  /// segment path is skipped entirely and the build behaves as before.
  bool contiguous = true;
};

/// Partitions the rules by weak connectivity of their predicates (a
/// rule joins its head predicate with every body predicate).
ComponentPartition ComputeComponentPartition(const Program& canonical);

/// One component's planned treatment for the builder: graft `segment`
/// when non-null (falling back to per-rule processing if the graft is
/// rejected), else build the component's rules normally.
struct SegmentGraft {
  uint32_t first_rule = 0;
  uint32_t num_rules = 0;
  std::shared_ptr<const NodeTableSegment> segment;
  /// New predicate id per component slot (ComponentPredSlots of the
  /// current canonical program).
  std::vector<PredicateId> pred_of_slot;
};

/// The per-component plan for one build, tiling the canonical rule
/// list in order.
struct SegmentPlan {
  std::vector<SegmentGraft> components;
};

/// Tallies of one segment-planned build.
struct SegmentBuildStats {
  uint64_t segments_total = 0;
  uint64_t segments_grafted = 0;
  uint64_t grafts_rejected = 0;
  /// Nodes appended from shared segments vs interned fresh.
  uint64_t nodes_shared = 0;
  uint64_t nodes_owned = 0;
};

/// The component's predicates in first-appearance order (head then body
/// left-to-right over its rules, deduplicated) — the slot coordinate
/// system for SegmentNode::pred_slot.
std::vector<PredicateId> ComponentPredSlots(const Program& canonical,
                                            const PredicateComponent& comp);

/// The reuse guard of rule `rule_index` of `canonical`: two rules with
/// equal guards make Algorithm 2 perform the same node acquisitions and
/// rule emissions, up to the ids a graft relocates. The guard folds
///  * the alpha-invariant structural rule hash — head and body
///    predicates and the argument grouping patterns, which fix the
///    adornment enumeration and the variable grounding pattern;
///  * each body occurrence's predicate kind, which selects step 2
///    grounding and the step 3 / step 4 dispatch;
///  * each infinite-base callee's dependency set and arity, which fix
///    the step 4 determinants;
///  * the use_fd_closure flag, which selects declared vs minimal
///    determinants.
/// Everything else the builder reads (predicate ids, occurrence ids,
/// adorned-rule indices, term ids) is a relocation field of the segment.
uint64_t ComputeRuleGuard(const Program& canonical, uint32_t rule_index,
                          bool use_fd_closure);

/// Encodes one built-and-pruned span as a relocatable segment. Returns
/// null if the span does not relocate cleanly (a node or rule indexes
/// outside the declared runs) — callers simply skip caching it.
/// `empty` is the EmptyPredicates bitmap, used to classify deleted
/// rules into the emptiness/reduction tallies. `scc` is the span's
/// already-computed slice, copied in.
std::shared_ptr<const NodeTableSegment> EncodeSegment(
    const AndOrSystem& system, const AdornedProgram& adorned,
    const std::vector<bool>& empty,
    const std::vector<PredicateId>& pred_of_slot, uint32_t node_begin,
    uint32_t node_end, uint32_t rule_begin, uint32_t rule_end,
    uint32_t ar_begin, uint32_t ar_end, uint32_t occ_base,
    uint32_t occ_count, SccSlice scc);

}  // namespace hornsafe

#endif  // HORNSAFE_ANDOR_SEGMENT_H_
