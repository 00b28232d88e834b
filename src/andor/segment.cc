#include "andor/segment.h"

#include <algorithm>

#include "fd/fd.h"
#include "lang/struct_hash.h"

namespace hornsafe {

size_t NodeTableSegment::MemoryBytes() const {
  size_t bytes = sizeof(NodeTableSegment);
  bytes += nodes.capacity() * sizeof(SegmentNode);
  bytes += rules.capacity() * sizeof(SegmentRule);
  for (const SegmentRule& r : rules) {
    bytes += r.body.capacity() * sizeof(uint32_t);
  }
  bytes += scc.capable.capacity() + scc.rule_usable.capacity() +
           scc.cycle_reachable.capacity();
  bytes += scc.scc_local.capacity() * sizeof(int32_t);
  bytes += scc.reach.capacity() * sizeof(uint64_t);
  return bytes;
}

ComponentPartition ComputeComponentPartition(const Program& canonical) {
  const std::vector<Rule>& rules = canonical.rules();
  const std::vector<uint32_t> comp =
      RuleComponents(rules, canonical.num_predicates());
  // Components are numbered in first-rule order, so a run ends at rule
  // ri once no component seen so far has rules beyond ri.
  std::vector<uint32_t> last(rules.size(), 0);
  for (uint32_t ri = 0; ri < rules.size(); ++ri) last[comp[ri]] = ri;
  ComponentPartition out;
  uint32_t begin = 0;
  uint32_t end = 0;
  for (uint32_t ri = 0; ri < rules.size(); ++ri) {
    end = std::max(end, last[comp[ri]]);
    if (ri == end) {
      out.components.push_back({begin, ri + 1 - begin});
      begin = ri + 1;
    }
  }
  return out;
}

SegmentPlan FreshPlan(const ComponentPartition& partition) {
  SegmentPlan plan;
  plan.components.reserve(partition.components.size());
  for (const PredicateComponent& comp : partition.components) {
    plan.components.push_back({comp.first_rule, comp.num_rules, nullptr, {}});
  }
  return plan;
}

std::vector<PredicateId> ComponentPredSlots(const Program& canonical,
                                            const PredicateComponent& comp) {
  std::vector<PredicateId> slots;
  auto note = [&](PredicateId p) {
    if (std::find(slots.begin(), slots.end(), p) == slots.end()) {
      slots.push_back(p);
    }
  };
  const auto& rules = canonical.rules();
  for (uint32_t ri = comp.first_rule; ri < comp.first_rule + comp.num_rules;
       ++ri) {
    note(rules[ri].head.pred);
    for (const Literal& b : rules[ri].body) note(b.pred);
  }
  return slots;
}

uint64_t ComputeRuleGuard(const Program& canonical, uint32_t rule_index) {
  const Rule& rule = canonical.rules()[rule_index];
  uint64_t h = MixHash(0x66726167677264ULL);
  h = CombineHash(h, StructuralRuleHash(canonical, rule));
  for (const Literal& lit : rule.body) {
    const PredicateInfo& info = canonical.predicate(lit.pred);
    h = CombineHash(h, static_cast<uint64_t>(info.kind));
    if (info.kind == PredicateKind::kInfiniteBase) {
      h = CombineHash(h, FdSetHash(canonical.FdsFor(lit.pred)));
      h = CombineHash(h, info.arity);
    }
  }
  return h;
}

std::shared_ptr<const NodeTableSegment> EncodeSegment(
    const AndOrSystem& system, const AdornedProgram& adorned,
    const std::vector<bool>& empty,
    const std::vector<PredicateId>& pred_of_slot, uint32_t node_begin,
    uint32_t node_end, uint32_t rule_begin, uint32_t rule_end,
    uint32_t ar_begin, uint32_t ar_end, uint32_t occ_base,
    uint32_t occ_count, SccSlice scc) {
  auto seg = std::make_shared<NodeTableSegment>();
  seg->num_pred_slots = static_cast<uint32_t>(pred_of_slot.size());
  seg->num_adorned_rules = ar_end - ar_begin;
  seg->num_occurrences = occ_count;
  seg->scc = std::move(scc);

  auto slot_of = [&](PredicateId p) -> int32_t {
    for (size_t i = 0; i < pred_of_slot.size(); ++i) {
      if (pred_of_slot[i] == p) return static_cast<int32_t>(i);
    }
    return -1;
  };

  seg->nodes.reserve(node_end - node_begin);
  for (NodeId id = node_begin; id < node_end; ++id) {
    const PropNode& n = system.node(id);
    SegmentNode sn;
    sn.kind = n.kind;
    sn.is_f_node = n.is_f_node;
    sn.adornment_mask = n.adornment_mask;
    sn.position = n.position;
    sn.fd_index = n.fd_index;
    if (n.pred != kInvalidPredicate) {
      sn.pred_slot = slot_of(n.pred);
      if (sn.pred_slot < 0) return nullptr;
    }
    switch (n.kind) {
      case PropNodeKind::kZero:
      case PropNodeKind::kOne:
        // Terminals live outside every span.
        return nullptr;
      case PropNodeKind::kHeadArg:
        // Interned program-wide; adorned_rule stays 0.
        break;
      case PropNodeKind::kVariable: {
        if (n.adorned_rule < ar_begin || n.adorned_rule >= ar_end) {
          return nullptr;
        }
        sn.ar_delta = n.adorned_rule - ar_begin;
        // Record where the variable first occurs in its adorned rule:
        // the graft re-reads the TermId from that argument slot of the
        // *new* rule, which is the same variable under any renaming.
        const AdornedRule& ar = adorned.rules[n.adorned_rule];
        sn.var_occ = -2;
        for (uint32_t k = 0; k < ar.head.args.size() && sn.var_occ == -2;
             ++k) {
          if (ar.head.args[k] == n.var) {
            sn.var_occ = -1;
            sn.var_pos = k;
          }
        }
        for (size_t o = 0; o < ar.body.size() && sn.var_occ == -2; ++o) {
          const Literal& lit = ar.body[o].lit;
          for (uint32_t k = 0; k < lit.args.size(); ++k) {
            if (lit.args[k] == n.var) {
              sn.var_occ = static_cast<int32_t>(o);
              sn.var_pos = k;
              break;
            }
          }
        }
        if (sn.var_occ == -2) return nullptr;
        break;
      }
      case PropNodeKind::kBodyArg:
      case PropNodeKind::kBodyArgAdorned:
      case PropNodeKind::kFdChoice: {
        if (n.adorned_rule < ar_begin || n.adorned_rule >= ar_end) {
          return nullptr;
        }
        sn.ar_delta = n.adorned_rule - ar_begin;
        if (n.occurrence < occ_base ||
            n.occurrence - occ_base >= occ_count) {
          return nullptr;
        }
        sn.occ_delta = n.occurrence - occ_base;
        break;
      }
    }
    seg->nodes.push_back(sn);
  }

  auto encode_ref = [&](NodeId id, uint32_t* out) {
    if (id == system.zero() || id == system.one()) {
      *out = id;
      return true;
    }
    if (id < node_begin || id >= node_end) return false;
    *out = id - node_begin + 2;
    return true;
  };

  seg->rules.reserve(rule_end - rule_begin);
  for (uint32_t ri = rule_begin; ri < rule_end; ++ri) {
    const PropRule& r = system.rule(ri);
    SegmentRule sr;
    if (!encode_ref(r.head, &sr.head)) return nullptr;
    sr.body.reserve(r.body.size());
    for (NodeId b : r.body) {
      uint32_t ref = 0;
      if (!encode_ref(b, &ref)) return nullptr;
      sr.body.push_back(ref);
    }
    if (r.source_adorned_rule < ar_begin ||
        r.source_adorned_rule >= ar_end) {
      return nullptr;
    }
    sr.ar_delta = r.source_adorned_rule - ar_begin;
    sr.deleted = system.rule_deleted(ri);
    if (sr.deleted) {
      // Emptiness pruning runs first and deletes exactly the rules whose
      // head node carries an empty predicate; everything else deleted
      // fell to reduction.
      const PropNode& head = system.node(r.head);
      bool by_emptiness = false;
      switch (head.kind) {
        case PropNodeKind::kHeadArg:
        case PropNodeKind::kBodyArg:
        case PropNodeKind::kBodyArgAdorned:
        case PropNodeKind::kFdChoice:
          by_emptiness = head.pred != kInvalidPredicate &&
                         head.pred < empty.size() && empty[head.pred];
          break;
        case PropNodeKind::kZero:
        case PropNodeKind::kOne:
        case PropNodeKind::kVariable:
          break;
      }
      if (by_emptiness) {
        ++seg->pruned_emptiness;
      } else {
        ++seg->pruned_reduction;
      }
    }
    seg->rules.push_back(std::move(sr));
  }
  return seg;
}

}  // namespace hornsafe
