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
};

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
  Freeze();
}

NodeId AndOrSystem::AddNode(PropNode node) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  frozen_ = false;
  return id;
}

void AndOrSystem::AddRule(NodeId head, std::span<const NodeId> body,
                          uint32_t source_adorned_rule) {
  rules_.push_back(RuleRecord{head,
                              static_cast<uint32_t>(body_arena_.size()),
                              static_cast<uint32_t>(body.size()),
                              source_adorned_rule});
  body_arena_.insert(body_arena_.end(), body.begin(), body.end());
  deleted_.push_back(false);
  ++num_live_;
  frozen_ = false;
}

void AndOrSystem::Freeze() {
  // Counting sort of the live rules by head; a scan in rule-id order
  // keeps every slice in rule-id order. live_count_ doubles as the fill
  // cursor and ends as the per-head count again.
  const size_t n = nodes_.size();
  head_offset_.assign(n + 1, 0);
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (!deleted_[i]) ++head_offset_[rules_[i].head + 1];
  }
  for (size_t v = 0; v < n; ++v) head_offset_[v + 1] += head_offset_[v];
  live_count_.assign(n, 0);
  head_rules_.resize(head_offset_[n]);
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (deleted_[i]) continue;
    const NodeId h = rules_[i].head;
    head_rules_[head_offset_[h] + live_count_[h]++] =
        static_cast<uint32_t>(i);
  }
  frozen_ = true;
}

void AndOrSystem::DeleteRule(size_t i) {
  if (deleted_[i]) return;
  deleted_[i] = true;
  --num_live_;
  if (!frozen_) return;
  const NodeId head = rules_[i].head;
  uint32_t* begin = head_rules_.data() + head_offset_[head];
  uint32_t* end = begin + live_count_[head];
  uint32_t* it = std::lower_bound(begin, end, static_cast<uint32_t>(i));
  std::copy(it + 1, end, it);
  --live_count_[head];
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
    rules_.push_back(RuleRecord{decode(sr.head), body_begin,
                                static_cast<uint32_t>(sr.body.size()),
                                ctx.ar_begin + sr.ar_delta});
    deleted_.push_back(sr.deleted);
    if (!sr.deleted) ++num_live_;
  }
  frozen_ = false;
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
