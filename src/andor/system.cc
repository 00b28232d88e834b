#include "andor/system.h"

#include <algorithm>

#include "andor/segment.h"
#include "util/strings.h"

namespace hornsafe {

namespace {

/// Discriminators for the node interning key.
enum KeyTag : uint64_t {
  kTagHeadArg = 1,
  kTagVariable,
  kTagBodyArg,
  kTagBodyArgAdorned,
  kTagFdChoice,
};

/// Content hash of a rule (head, then the body sequence), the tag of
/// its RuleIdTable slot.
uint32_t HashRule(NodeId head, std::span<const NodeId> body) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ body.size();
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  };
  mix(head);
  for (NodeId b : body) mix(b);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

std::string AdornmentString(uint64_t mask, uint32_t arity) {
  std::string s;
  for (uint32_t k = 0; k < arity; ++k) s += ((mask >> k) & 1) ? 'b' : 'f';
  return s;
}

}  // namespace

AndOrSystem::AndOrSystem() {
  zero_ = AddNode(PropNode{PropNodeKind::kZero, kInvalidPredicate, 0, 0, 0,
                           kInvalidTerm, 0, 0, false});
  one_ = AddNode(PropNode{PropNodeKind::kOne, kInvalidPredicate, 0, 0, 0,
                          kInvalidTerm, 0, 0, false});
}

NodeId AndOrSystem::AddNode(PropNode node) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  rules_by_head_.emplace_back();
  return id;
}

void AndOrSystem::AddRule(NodeId head, std::span<const NodeId> body,
                          uint32_t source_adorned_rule) {
  const uint32_t candidate = static_cast<uint32_t>(rules_.size());
  auto same = [&](uint32_t id) {
    const RuleRecord& r = rules_[id];
    return r.head == head && r.body_size == body.size() &&
           std::equal(body.begin(), body.end(),
                      body_arena_.begin() + r.body_begin);
  };
  if (rule_index_.FindOrInsert(HashRule(head, body), candidate, same) !=
      RuleIdTable::kAbsent) {
    return;
  }
  rules_.push_back(RuleRecord{head,
                              static_cast<uint32_t>(body_arena_.size()),
                              static_cast<uint32_t>(body.size()),
                              source_adorned_rule});
  body_arena_.insert(body_arena_.end(), body.begin(), body.end());
  deleted_.push_back(false);
  rules_by_head_[head].push_back(candidate);
}

void AndOrSystem::DeleteRule(size_t i) {
  if (deleted_[i]) return;
  deleted_[i] = true;
  std::vector<uint32_t>& list = rules_by_head_[rules_[i].head];
  for (size_t j = 0; j < list.size(); ++j) {
    if (list[j] == i) {
      list.erase(list.begin() + static_cast<ptrdiff_t>(j));
      break;
    }
  }
}

const std::vector<uint32_t>& AndOrSystem::RulesFor(NodeId n) const {
  return rules_by_head_[n];
}

size_t AndOrSystem::NumLiveRules() const {
  size_t n = 0;
  for (bool d : deleted_) {
    if (!d) ++n;
  }
  return n;
}

NodeId AndOrSystem::InternKeyed(const std::array<uint64_t, 4>& key,
                                PropNode node) {
  if (const NodeId* found = node_index_.Find(key)) return *found;
  NodeId id = AddNode(node);
  node_index_.Insert(key, id);
  return id;
}

NodeId AndOrSystem::InternHeadArg(PredicateId pred, uint64_t adornment_mask,
                                  uint32_t position) {
  PropNode n;
  n.kind = PropNodeKind::kHeadArg;
  n.pred = pred;
  n.adornment_mask = adornment_mask;
  n.position = position;
  return InternKeyed({kTagHeadArg, (uint64_t{pred} << 32) | position,
                      adornment_mask, 0},
                     n);
}

NodeId AndOrSystem::InternVariable(uint32_t adorned_rule, TermId var) {
  PropNode n;
  n.kind = PropNodeKind::kVariable;
  n.adorned_rule = adorned_rule;
  n.var = var;
  return InternKeyed({kTagVariable, adorned_rule, var, 0}, n);
}

NodeId AndOrSystem::InternBodyArg(uint32_t occurrence, uint32_t position,
                                  PredicateId pred, uint32_t adorned_rule,
                                  bool is_f_node) {
  PropNode n;
  n.kind = PropNodeKind::kBodyArg;
  n.pred = pred;
  n.position = position;
  n.occurrence = occurrence;
  n.adorned_rule = adorned_rule;
  n.is_f_node = is_f_node;
  return InternKeyed({kTagBodyArg, (uint64_t{occurrence} << 32) | position,
                      0, 0},
                     n);
}

NodeId AndOrSystem::InternBodyArgAdorned(uint32_t occurrence,
                                         uint64_t adornment_mask,
                                         uint32_t position, PredicateId pred,
                                         uint32_t adorned_rule) {
  PropNode n;
  n.kind = PropNodeKind::kBodyArgAdorned;
  n.pred = pred;
  n.adornment_mask = adornment_mask;
  n.position = position;
  n.occurrence = occurrence;
  n.adorned_rule = adorned_rule;
  return InternKeyed({kTagBodyArgAdorned,
                      (uint64_t{occurrence} << 32) | position,
                      adornment_mask, 0},
                     n);
}

NodeId AndOrSystem::InternFdChoice(uint32_t occurrence, uint32_t position,
                                   uint32_t fd_index, PredicateId pred,
                                   uint32_t adorned_rule) {
  PropNode n;
  n.kind = PropNodeKind::kFdChoice;
  n.pred = pred;
  n.position = position;
  n.occurrence = occurrence;
  n.fd_index = fd_index;
  n.adorned_rule = adorned_rule;
  n.is_f_node = true;
  return InternKeyed({kTagFdChoice, (uint64_t{occurrence} << 32) | position,
                      fd_index, 0},
                     n);
}

bool AndOrSystem::GraftSegment(const NodeTableSegment& seg,
                               const SegmentGraftContext& ctx) {
  if (ctx.adorned == nullptr || ctx.pred_of_slot == nullptr) return false;
  if (seg.num_adorned_rules != ctx.ar_count ||
      seg.num_occurrences != ctx.occ_count ||
      seg.num_pred_slots != ctx.pred_of_slot->size() ||
      static_cast<size_t>(ctx.ar_begin) + ctx.ar_count >
          ctx.adorned->rules.size()) {
    return false;
  }

  // Validate every relocation before touching the table: a rejected
  // graft must leave the system byte-identical to before the call.
  size_t indexed_nodes = 0;
  for (const SegmentNode& sn : seg.nodes) {
    if (sn.pred_slot >= 0 &&
        static_cast<size_t>(sn.pred_slot) >= ctx.pred_of_slot->size()) {
      return false;
    }
    switch (sn.kind) {
      case PropNodeKind::kZero:
      case PropNodeKind::kOne:
        return false;
      case PropNodeKind::kHeadArg:
        if (sn.pred_slot < 0) return false;
        ++indexed_nodes;
        break;
      case PropNodeKind::kVariable: {
        if (sn.ar_delta >= ctx.ar_count) return false;
        const AdornedRule& ar =
            ctx.adorned->rules[ctx.ar_begin + sn.ar_delta];
        if (sn.var_occ == -1) {
          if (sn.var_pos >= ar.head.args.size()) return false;
        } else if (sn.var_occ >= 0) {
          if (static_cast<size_t>(sn.var_occ) >= ar.body.size() ||
              sn.var_pos >= ar.body[sn.var_occ].lit.args.size()) {
            return false;
          }
        } else {
          return false;
        }
        ++indexed_nodes;
        break;
      }
      case PropNodeKind::kBodyArg:
      case PropNodeKind::kBodyArgAdorned:
      case PropNodeKind::kFdChoice:
        if (sn.pred_slot < 0 || sn.ar_delta >= ctx.ar_count ||
            sn.occ_delta >= ctx.occ_count) {
          return false;
        }
        break;
    }
  }
  for (const SegmentRule& sr : seg.rules) {
    if (sr.ar_delta >= ctx.ar_count) return false;
    if (sr.head >= 2 && sr.head - 2 >= seg.nodes.size()) return false;
    for (uint32_t ref : sr.body) {
      if (ref >= 2 && ref - 2 >= seg.nodes.size()) return false;
    }
  }

  const NodeId base = static_cast<NodeId>(nodes_.size());
  // Grow geometrically, never to the exact fit: consecutive grafts
  // would otherwise reallocate (and copy) the whole table once per
  // component, turning the append back into O(program) memmove.
  auto grow = [](auto& v, size_t extra) {
    if (v.capacity() < v.size() + extra) {
      v.reserve(std::max(v.size() + extra, v.capacity() * 2));
    }
  };
  grow(nodes_, seg.nodes.size());
  grow(rules_by_head_, seg.nodes.size());
  grow(rules_, seg.rules.size());
  grow(deleted_, seg.rules.size());
  node_index_.Reserve(node_index_.size() + indexed_nodes);

  for (const SegmentNode& sn : seg.nodes) {
    PropNode n;
    n.kind = sn.kind;
    n.is_f_node = sn.is_f_node;
    n.adornment_mask = sn.adornment_mask;
    n.position = sn.position;
    n.fd_index = sn.fd_index;
    if (sn.pred_slot >= 0) n.pred = (*ctx.pred_of_slot)[sn.pred_slot];
    switch (sn.kind) {
      case PropNodeKind::kZero:
      case PropNodeKind::kOne:
      case PropNodeKind::kHeadArg:
        // kHeadArg is interned program-wide: adorned_rule stays 0.
        break;
      case PropNodeKind::kVariable: {
        n.adorned_rule = ctx.ar_begin + sn.ar_delta;
        const AdornedRule& ar = ctx.adorned->rules[n.adorned_rule];
        n.var = sn.var_occ == -1
                    ? ar.head.args[sn.var_pos]
                    : ar.body[sn.var_occ].lit.args[sn.var_pos];
        break;
      }
      case PropNodeKind::kBodyArg:
      case PropNodeKind::kBodyArgAdorned:
      case PropNodeKind::kFdChoice:
        n.adorned_rule = ctx.ar_begin + sn.ar_delta;
        n.occurrence = ctx.occ_base + sn.occ_delta;
        break;
    }
    NodeId id = AddNode(n);
    // Re-register the externally queried intern keys (FindHeadArg roots
    // the searches; FindVariable serves finiteness/termination). Done
    // eagerly: lazy registration would race with concurrent readers of
    // a published snapshot. The other kinds are never looked up.
    if (n.kind == PropNodeKind::kHeadArg) {
      node_index_.Insert({kTagHeadArg, (uint64_t{n.pred} << 32) | n.position,
                          n.adornment_mask, 0},
                         id);
    } else if (n.kind == PropNodeKind::kVariable) {
      node_index_.Insert({kTagVariable, n.adorned_rule, n.var, 0}, id);
    }
  }

  for (const SegmentRule& sr : seg.rules) {
    auto decode = [&](uint32_t ref) -> NodeId {
      if (ref == 0) return zero_;
      if (ref == 1) return one_;
      return base + (ref - 2);
    };
    const uint32_t body_begin = static_cast<uint32_t>(body_arena_.size());
    for (uint32_t ref : sr.body) body_arena_.push_back(decode(ref));
    // Deleted rules keep their slot but never enter RulesFor — the
    // exact state DeleteRule leaves behind.
    const NodeId head = decode(sr.head);
    const uint32_t idx = static_cast<uint32_t>(rules_.size());
    rules_.push_back(RuleRecord{head, body_begin,
                                static_cast<uint32_t>(sr.body.size()),
                                ctx.ar_begin + sr.ar_delta});
    deleted_.push_back(sr.deleted);
    if (!sr.deleted) rules_by_head_[head].push_back(idx);
  }
  return true;
}

NodeId AndOrSystem::FindHeadArg(PredicateId pred, uint64_t adornment_mask,
                                uint32_t position) const {
  const NodeId* found = node_index_.Find(
      {kTagHeadArg, (uint64_t{pred} << 32) | position, adornment_mask, 0});
  return found == nullptr ? kInvalidNode : *found;
}

NodeId AndOrSystem::FindVariable(uint32_t adorned_rule, TermId var) const {
  const NodeId* found =
      node_index_.Find({kTagVariable, adorned_rule, var, 0});
  return found == nullptr ? kInvalidNode : *found;
}

std::string AndOrSystem::NodeName(NodeId id, const Program& program) const {
  const PropNode& n = nodes_[id];
  switch (n.kind) {
    case PropNodeKind::kZero:
      return "0";
    case PropNodeKind::kOne:
      return "1";
    case PropNodeKind::kHeadArg:
      return StrCat(program.PredicateName(n.pred), "^",
                    AdornmentString(n.adornment_mask,
                                    program.predicate(n.pred).arity),
                    ".", n.position + 1);
    case PropNodeKind::kVariable:
      return StrCat(program.terms().ToString(n.var, program.symbols()), "@",
                    n.adorned_rule);
    case PropNodeKind::kBodyArg:
      return StrCat(program.PredicateName(n.pred), "#", n.occurrence, ".",
                    n.position + 1);
    case PropNodeKind::kBodyArgAdorned:
      return StrCat(program.PredicateName(n.pred), "#", n.occurrence, "^",
                    AdornmentString(n.adornment_mask,
                                    program.predicate(n.pred).arity),
                    ".", n.position + 1);
    case PropNodeKind::kFdChoice:
      return StrCat(program.PredicateName(n.pred), "#", n.occurrence, ".",
                    n.position + 1, "~fd", n.fd_index);
  }
  return "?";
}

std::string AndOrSystem::ToString(const Program& program) const {
  std::string out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (deleted_[i]) continue;
    const PropRule r = rule(i);
    out += NodeName(r.head, program);
    out += " <- ";
    out += JoinMapped(r.body, ", ",
                      [&](NodeId b) { return NodeName(b, program); });
    out += "\n";
  }
  return out;
}

}  // namespace hornsafe
