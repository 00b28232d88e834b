#include "andor/build.h"

#include <algorithm>
#include <unordered_map>

#include "fd/fd.h"

namespace hornsafe {

namespace {

/// Builder for one call to BuildAndOrSystem.
class SystemBuilder {
 public:
  SystemBuilder(const Program& program, const AdornedProgram& adorned,
                const BuildOptions& opts)
      : program_(program), adorned_(adorned), opts_(opts) {}

  Result<AndOrSystem> Run() {
    // One component at a time. Planned segments graft wholesale (nodes,
    // rules, deleted bits — no Intern*/AddRule calls at all); everything
    // else goes through the normal per-rule path. Every component
    // leaves a SegmentSpan so later stages can prune, slice and seal
    // per span. The plan tiles the canonical rules, so the spans tile
    // the system.
    SegmentPlan fresh;
    const SegmentPlan* plan = opts_.segments;
    if (plan == nullptr) {
      fresh = FreshPlan(ComputeComponentPartition(program_));
      plan = &fresh;
    }
    SegmentBuildStats* stats = opts_.segment_stats;
    size_t ai = 0;
    for (const SegmentGraft& comp : plan->components) {
      const uint32_t src_end = comp.first_rule + comp.num_rules;
      size_t aj = ai;
      uint32_t occ_base = 0;
      uint32_t occ_count = 0;
      bool occ_set = false;
      while (aj < adorned_.rules.size() &&
             adorned_.rules[aj].source_rule < src_end) {
        const AdornedRule& ar = adorned_.rules[aj];
        if (!occ_set && !ar.body.empty()) {
          occ_base = ar.body.front().occurrence_id;
          occ_set = true;
        }
        occ_count += static_cast<uint32_t>(ar.body.size());
        ++aj;
      }

      SegmentSpan span;
      span.node_begin = static_cast<uint32_t>(system_.nodes().size());
      span.rule_begin = static_cast<uint32_t>(system_.num_rules());
      span.ar_begin = static_cast<uint32_t>(ai);
      span.ar_end = static_cast<uint32_t>(aj);
      span.occ_base = occ_base;
      span.occ_count = occ_count;

      bool grafted = false;
      if (comp.segment != nullptr) {
        SegmentGraftContext ctx;
        ctx.adorned = &adorned_;
        ctx.ar_begin = static_cast<uint32_t>(ai);
        ctx.ar_count = static_cast<uint32_t>(aj - ai);
        ctx.occ_base = occ_base;
        ctx.occ_count = occ_count;
        ctx.pred_of_slot = &comp.pred_of_slot;
        grafted = system_.GraftSegment(*comp.segment, ctx);
        if (stats != nullptr && !grafted) ++stats->grafts_rejected;
      }
      if (grafted) {
        span.grafted = true;
        span.segment = comp.segment;
      } else {
        ProcessAdornedRange(ai, aj);
      }
      span.node_end = static_cast<uint32_t>(system_.nodes().size());
      span.rule_end = static_cast<uint32_t>(system_.num_rules());
      if (stats != nullptr) {
        ++stats->segments_total;
        if (grafted) {
          ++stats->segments_grafted;
          stats->nodes_shared += span.node_end - span.node_begin;
        } else {
          stats->nodes_owned += span.node_end - span.node_begin;
        }
      }
      system_.NoteSpan(std::move(span));
      ai = aj;
    }
    system_.Freeze();
    return std::move(system_);
  }

 private:
  /// Algorithm 2 over adorned rules [begin, end).
  void ProcessAdornedRange(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ProcessRule(adorned_.rules[i]);
  }

  // --- Algorithm 2 --------------------------------------------------------

  /// The node of the rule's variable in slot `slot` of rule_vars_,
  /// interned on first use: the lazy order keeps node numbering that of
  /// one InternVariable call per use, at one hash lookup per variable.
  NodeId Var(const AdornedRule& ar, uint32_t slot) {
    NodeId& node = var_nodes_[slot];
    if (node == kInvalidNode) {
      node = system_.InternVariable(ar.adorned_index, rule_vars_[slot]);
    }
    return node;
  }

  /// Variable slot of argument `k` of body occurrence `occ_idx`.
  uint32_t BodySlot(size_t occ_idx, uint32_t k) const {
    return arg_slots_[occ_slot_begin_[occ_idx] + k];
  }

  /// A fresh node for argument `k` of body occurrence `occ_idx`
  /// (`mask` for kBodyArgAdorned, `fd_index` for kFdChoice). Occurrence
  /// ids are unique across the adorned program, so the node belongs to
  /// this rule alone and needs no interning.
  NodeId NewOccurrenceNode(PropNodeKind kind, const AdornedRule& ar,
                           size_t occ_idx, uint32_t k, uint64_t mask = 0,
                           uint32_t fd_index = 0) {
    const BodyOccurrence& occ = ar.body[occ_idx];
    PropNode n;
    n.kind = kind;
    n.pred = occ.lit.pred;
    n.adornment_mask = mask;
    n.position = k;
    n.fd_index = fd_index;
    n.occurrence = occ.occurrence_id;
    n.adorned_rule = ar.adorned_index;
    n.is_f_node = kind == PropNodeKind::kFdChoice ||
                  (kind == PropNodeKind::kBodyArg &&
                   occ.kind == PredicateKind::kInfiniteBase);
    return system_.AddNode(n);
  }

  /// The kBodyArg node of argument `k` of body occurrence `occ_idx`,
  /// created on first use: step 2 and steps 3/4 both reach it.
  NodeId BodyArg(const AdornedRule& ar, size_t occ_idx, uint32_t k) {
    NodeId& node = body_arg_nodes_[occ_slot_begin_[occ_idx] + k];
    if (node == kInvalidNode) {
      node = NewOccurrenceNode(PropNodeKind::kBodyArg, ar, occ_idx, k);
    }
    return node;
  }

  void Emit(NodeId head, NodeId body, uint32_t source) {
    system_.AddRule(head, {body}, source);
  }

  /// Distinct variables of the rule in first-occurrence order (head
  /// first, then body left to right): the order step 2 visits them in.
  /// Alongside, the slot of every argument (head args first, then each
  /// body occurrence's), so later steps never search rule_vars_.
  void ComputeRuleVars(const AdornedRule& ar) {
    rule_vars_.clear();
    arg_slots_.clear();
    occ_slot_begin_.clear();
    auto note = [&](TermId v) {
      auto it = std::find(rule_vars_.begin(), rule_vars_.end(), v);
      arg_slots_.push_back(static_cast<uint32_t>(it - rule_vars_.begin()));
      if (it == rule_vars_.end()) rule_vars_.push_back(v);
    };
    for (TermId a : ar.head.args) note(a);
    for (const BodyOccurrence& occ : ar.body) {
      occ_slot_begin_.push_back(static_cast<uint32_t>(arg_slots_.size()));
      for (TermId a : occ.lit.args) note(a);
    }
    var_nodes_.assign(rule_vars_.size(), kInvalidNode);
    body_arg_nodes_.assign(arg_slots_.size(), kInvalidNode);
  }

  /// Appends `slot` to `slots` unless already present.
  static void NoteSlot(std::vector<uint32_t>& slots, uint32_t slot) {
    if (std::find(slots.begin(), slots.end(), slot) == slots.end()) {
      slots.push_back(slot);
    }
  }

  void ProcessRule(const AdornedRule& ar) {
    ComputeRuleVars(ar);
    Step1HeadArgs(ar);
    Step2Variables(ar);
    for (size_t occ_idx = 0; occ_idx < ar.body.size(); ++occ_idx) {
      const BodyOccurrence& occ = ar.body[occ_idx];
      if (occ.kind == PredicateKind::kDerived) {
        Step3DerivedOccurrence(ar, occ_idx);
      } else if (occ.kind == PredicateKind::kInfiniteBase) {
        Step4InfiniteOccurrence(ar, occ_idx);
      }
      // Finite-base occurrences generate no nodes: they only ground
      // variables in step 2.
    }
  }

  void Step1HeadArgs(const AdornedRule& ar) {
    for (uint32_t k = 0; k < ar.head.args.size(); ++k) {
      NodeId head =
          system_.InternHeadArg(ar.head_pred, ar.adornment.bound_mask, k);
      if (ar.adornment.IsBound(k)) {
        // The one rule Algorithm 2 can emit twice: every rule with this
        // head adornment binds k. The first copy is kept.
        if (head >= head_zeroed_.size()) {
          head_zeroed_.resize(system_.nodes().size(), false);
        }
        if (head_zeroed_[head]) continue;
        head_zeroed_[head] = true;
        Emit(head, system_.zero(), ar.adorned_index);
      } else {
        Emit(head, Var(ar, arg_slots_[k]), ar.adorned_index);
      }
    }
  }

  void Step2Variables(const AdornedRule& ar) {
    for (uint32_t slot = 0; slot < rule_vars_.size(); ++slot) {
      const TermId v = rule_vars_[slot];
      NodeId var_node = Var(ar, slot);
      // Bound head positions and finite-base occurrences ground the
      // variable outright.
      bool grounded = false;
      for (uint32_t k = 0; k < ar.head.args.size(); ++k) {
        if (ar.head.args[k] == v && ar.adornment.IsBound(k)) {
          grounded = true;
        }
      }
      for (const BodyOccurrence& occ : ar.body) {
        if (occ.kind != PredicateKind::kFiniteBase) continue;
        if (std::find(occ.lit.args.begin(), occ.lit.args.end(), v) !=
            occ.lit.args.end()) {
          grounded = true;
        }
      }
      if (grounded) {
        Emit(var_node, system_.zero(), ar.adorned_index);
        continue;
      }
      // C_X: every derived/infinite body argument the variable occurs in.
      conjunct_.clear();
      for (size_t occ_idx = 0; occ_idx < ar.body.size(); ++occ_idx) {
        const BodyOccurrence& occ = ar.body[occ_idx];
        if (occ.kind == PredicateKind::kFiniteBase) continue;
        for (uint32_t k = 0; k < occ.lit.args.size(); ++k) {
          if (occ.lit.args[k] == v) {
            conjunct_.push_back(BodyArg(ar, occ_idx, k));
          }
        }
      }
      if (conjunct_.empty()) {
        // The variable occurs only in free head positions: it ranges over
        // the entire (infinite) domain.
        Emit(var_node, system_.one(), ar.adorned_index);
      } else {
        system_.AddRule(var_node, conjunct_, ar.adorned_index);
      }
    }
  }

  void Step3DerivedOccurrence(const AdornedRule& ar, size_t occ_idx) {
    const BodyOccurrence& occ = ar.body[occ_idx];
    const uint32_t arity = static_cast<uint32_t>(occ.lit.args.size());
    const std::vector<Adornment>& adornments =
        adornment_cache_.For(program_.terms(), occ.lit);
    for (uint32_t k = 0; k < arity; ++k) {
      NodeId arg_node = BodyArg(ar, occ_idx, k);
      conjunct_.clear();
      for (const Adornment& a1 : adornments) {
        if (a1.IsBound(k)) continue;
        NodeId adorned_node = NewOccurrenceNode(
            PropNodeKind::kBodyArgAdorned, ar, occ_idx, k, a1.bound_mask);
        conjunct_.push_back(adorned_node);
        // The strategy is inapplicable if a bound variable is unsafe.
        bound_slots_.clear();
        for (uint32_t j = 0; j < arity; ++j) {
          if (a1.IsBound(j)) NoteSlot(bound_slots_, BodySlot(occ_idx, j));
        }
        for (uint32_t y : bound_slots_) {
          Emit(adorned_node, Var(ar, y), ar.adorned_index);
        }
        // Even with safe bindings, the callee's adorned head may be
        // unsafe.
        NodeId callee = system_.InternHeadArg(occ.lit.pred, a1.bound_mask, k);
        Emit(adorned_node, callee, ar.adorned_index);
      }
      // k is free in the all-free adornment, so the conjunct is never
      // empty.
      system_.AddRule(arg_node, conjunct_, ar.adorned_index);
    }
  }

  /// The dependency index of a predicate, built on first use and shared
  /// by every occurrence: closures and determinant lists are memoized
  /// inside, so the 2^arity enumeration of MinimalDeterminants runs at
  /// most once per (predicate, argument).
  FdClosureIndex& FdIndexFor(PredicateId pred) {
    auto it = fd_index_.find(pred);
    if (it == fd_index_.end()) {
      it = fd_index_.emplace(pred, FdClosureIndex(program_.FdsFor(pred)))
               .first;
    }
    return it->second;
  }

  /// Determinants of argument `k` of `pred`.
  const std::vector<AttrSet>& DeterminantsFor(PredicateId pred,
                                              uint32_t arity, uint32_t k) {
    FdClosureIndex& fds = FdIndexFor(pred);
    return opts_.use_fd_closure ? fds.Minimal(arity, k) : fds.Declared(k);
  }

  void Step4InfiniteOccurrence(const AdornedRule& ar, size_t occ_idx) {
    const BodyOccurrence& occ = ar.body[occ_idx];
    uint32_t arity = static_cast<uint32_t>(occ.lit.args.size());
    for (uint32_t k = 0; k < arity; ++k) {
      NodeId arg_node = BodyArg(ar, occ_idx, k);
      const std::vector<AttrSet>& determinants =
          DeterminantsFor(occ.lit.pred, arity, k);
      if (determinants.empty()) {
        // No dependency restricts this argument: unsafe leaf.
        Emit(arg_node, system_.one(), ar.adorned_index);
        continue;
      }
      conjunct_.clear();
      for (uint32_t i = 0; i < determinants.size(); ++i) {
        NodeId choice =
            NewOccurrenceNode(PropNodeKind::kFdChoice, ar, occ_idx, k, 0, i);
        conjunct_.push_back(choice);
        if (determinants[i].Empty()) {
          // An empty antecedent is always applicable: the argument is
          // finite outright through this dependency.
          Emit(choice, system_.zero(), ar.adorned_index);
          continue;
        }
        bound_slots_.clear();
        for (uint64_t b = determinants[i].bits(); b != 0; b &= b - 1) {
          const uint32_t j = static_cast<uint32_t>(__builtin_ctzll(b));
          NoteSlot(bound_slots_, BodySlot(occ_idx, j));
        }
        for (uint32_t y : bound_slots_) {
          Emit(choice, Var(ar, y), ar.adorned_index);
        }
      }
      system_.AddRule(arg_node, conjunct_, ar.adorned_index);
    }
  }

  const Program& program_;
  const AdornedProgram& adorned_;
  BuildOptions opts_;
  AndOrSystem system_;
  AdornmentCache adornment_cache_;
  std::unordered_map<PredicateId, FdClosureIndex> fd_index_;
  /// Distinct variables of the rule being processed, their nodes
  /// (kInvalidNode until first use), the variable slot of every head
  /// and body argument, and where each body occurrence's slots start.
  std::vector<TermId> rule_vars_;
  std::vector<NodeId> var_nodes_;
  std::vector<uint32_t> arg_slots_;
  std::vector<uint32_t> occ_slot_begin_;
  /// The rule's kBodyArg nodes, indexed like arg_slots_ (kInvalidNode
  /// until first use; the head entries stay unused).
  std::vector<NodeId> body_arg_nodes_;
  /// Per node id: head-argument nodes that already have `← 0`.
  std::vector<bool> head_zeroed_;
  /// Reused scratch: the conjunct being assembled and the distinct
  /// variable slots bound by one adornment or determinant.
  std::vector<NodeId> conjunct_;
  std::vector<uint32_t> bound_slots_;
};

}  // namespace

Result<AndOrSystem> BuildAndOrSystem(const Program& canonical,
                                     const AdornedProgram& adorned,
                                     const BuildOptions& opts) {
  return SystemBuilder(canonical, adorned, opts).Run();
}

}  // namespace hornsafe
