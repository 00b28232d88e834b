#include "constraints/mono.h"

#include <algorithm>

namespace hornsafe {

MonotonicityAnalyzer::MonotonicityAnalyzer(const Program& canonical,
                                           const AdornedProgram& adorned,
                                           const AndOrSystem& system)
    : program_(canonical), adorned_(adorned), system_(system) {
  orders_.reserve(canonical.rules().size());
  for (const Rule& r : canonical.rules()) {
    orders_.emplace_back(canonical, r);
  }
  for (uint32_t t = 0; t < adorned_.rules.size(); ++t) {
    const AdornedRule& ar = adorned_.rules[t];
    for (const BodyOccurrence& bo : ar.body) {
      if (bo.occurrence_id >= occurrences_.size()) {
        occurrences_.resize(bo.occurrence_id + 1);
      }
      Occurrence& occ = occurrences_[bo.occurrence_id];
      occ.adorned_rule = t;
      occ.lit = &bo.lit;
      if (bo.kind == PredicateKind::kDerived) {
        occ.mapping = ArgumentMapping::Build(
            canonical, canonical.rules()[ar.source_rule],
            orders_[ar.source_rule], bo.lit);
      }
    }
  }
}

GraphEscape MonotonicityAnalyzer::MakeEscape() const {
  return [this](const ChosenGraph& g) { return GraphSatisfiesTheorem5(g); };
}

std::vector<MonotonicityAnalyzer::MetaEdge>
MonotonicityAnalyzer::CyclicCallEdges(const ChosenGraph& g) const {
  ChosenScc& scc = *g.scc;
  scc.Start(system_, g.rule_of, /*skip_f=*/false);
  for (NodeId n : g.nodes) scc.Visit(n);
  std::vector<MetaEdge> edges;
  for (NodeId node : g.nodes) {
    const PropNode& pn = system_.node(node);
    if (pn.kind != PropNodeKind::kBodyArgAdorned) continue;
    const PropRule& pr = system_.rule(g.rule_of[node]);
    // Only the "call" rule q^a_k <- l^a_k links two rule instances.
    if (pr.body.size() != 1) continue;
    NodeId callee = pr.body[0];
    if (system_.node(callee).kind != PropNodeKind::kHeadArg) continue;
    // The call must lie on a cycle of the chosen subgraph (an unchosen
    // callee has component -1).
    if (scc.comp(callee) != scc.comp(node)) continue;
    const Occurrence* occ = &occurrences_[pn.occurrence];
    uint32_t to_rule = system_.rule(g.rule_of[callee]).source_adorned_rule;
    edges.push_back(MetaEdge{occ, to_rule, node});
  }
  return edges;
}

bool MonotonicityAnalyzer::CycleCertified(
    const std::vector<const MetaEdge*>& cycle) const {
  // Certification may depend on which rule anchors the composition (a
  // bound position of one participating adornment bounds the whole
  // track), so try every rotation.
  for (size_t pivot = 0; pivot < cycle.size(); ++pivot) {
    if (CycleCertifiedAtPivot(cycle, pivot)) return true;
  }
  return false;
}

bool MonotonicityAnalyzer::CycleCertifiedAtPivot(
    const std::vector<const MetaEdge*>& cycle, size_t pivot) const {
  // Compose the argument mappings head(t₁) -> occ(t₁) = head(t₂) -> ...
  // around the cycle, starting at the pivot, into a self-mapping on the
  // pivot predicate.
  ArgumentMapping total = cycle[pivot]->occ->mapping;
  for (size_t k = 1; k < cycle.size(); ++k) {
    total = total.Compose(cycle[(pivot + k) % cycle.size()]->occ->mapping);
  }
  if (total.Invalid()) return true;  // contradictory: derives nothing

  const MetaEdge* pe = cycle[pivot];
  const AdornedRule& par = adorned_.rules[pe->occ->adorned_rule];
  const Rule& pivot_rule = program_.rules()[par.source_rule];
  const VariableOrder& order = orders_[par.source_rule];
  for (uint32_t i = 0; i < total.head_arity() && i < total.occ_arity();
       ++i) {
    uint8_t bits = total.rel(i, i);
    TermId head_var = pivot_rule.head.args[i];
    TermId occ_var = pe->occ->lit->args[i];
    // "A cycle is bounded above and below if it contains a safe node":
    // a strictly monotone cycle through a position bound by the
    // adornment draws its values from a finite set and can only be
    // traversed finitely often.
    if ((bits & (kRelGt | kRelLt)) && par.adornment.IsBound(i)) {
      return true;
    }
    if (bits & kRelLt) {
      // Decreasing cycle: bounded below => finitely traversable.
      if (order.BoundedBelow(head_var) || order.BoundedBelow(occ_var)) {
        return true;
      }
    }
    if (bits & kRelGt) {
      // Increasing cycle: bounded above => finitely traversable.
      if (order.BoundedAbove(head_var) || order.BoundedAbove(occ_var)) {
        return true;
      }
    }
  }
  return false;
}

bool MonotonicityAnalyzer::GraphSatisfiesTheorem5(
    const ChosenGraph& g) const {
  std::vector<MetaEdge> edges = CyclicCallEdges(g);
  if (edges.empty()) return false;
  // CyclicCallEdges left the components of the whole chosen subgraph
  // in g.scc, in pop order: an edge leaving a component points at an
  // earlier one.
  const ChosenScc& scc = *g.scc;

  // Enumerate simple meta cycles up to kMaxCycleLength by DFS, each
  // once: from its smallest rule, through larger rules only
  // (certification already tries every rotation). The components of
  // every certified cycle become finite seeds.
  std::vector<char> finite(scc.num_components(), 0);
  bool any_certified = false;
  std::vector<const MetaEdge*> path;
  auto on_path = [&](uint32_t rule) {
    for (const MetaEdge* p : path) {
      if (p->to_rule == rule) return true;
    }
    return false;
  };
  auto dfs = [&](auto& self, uint32_t start, uint32_t at) -> void {
    for (const MetaEdge& e : edges) {
      if (e.occ->adorned_rule != at) continue;
      if (e.to_rule == start) {
        // Closing the cycle: certify it.
        path.push_back(&e);
        if (CycleCertified(path)) {
          for (const MetaEdge* c : path) finite[scc.comp(c->call_node)] = 1;
          any_certified = true;
        }
        path.pop_back();
        continue;
      }
      if (e.to_rule < start || on_path(e.to_rule)) continue;
      if (path.size() + 1 >= static_cast<size_t>(kMaxCycleLength)) continue;
      path.push_back(&e);
      self(self, start, e.to_rule);
      path.pop_back();
    }
  };
  std::vector<uint32_t> starts;
  starts.reserve(edges.size());
  for (const MetaEdge& e : edges) starts.push_back(e.occ->adorned_rule);
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  for (uint32_t st : starts) dfs(dfs, st, st);
  if (!any_certified) return false;

  // Propagate finiteness to the root: a chosen rule's body is an
  // intersection of binding sources, so one finite member makes the
  // head finite, and with it every node of its component (each reaches
  // it). Pop order settles a component's targets before the component.
  for (int32_t c = 0; c < scc.num_components(); ++c) {
    for (NodeId u : scc.Members(c)) {
      if (finite[c]) break;
      for (NodeId b : system_.rule(g.rule_of[u]).body) {
        int32_t cb = scc.comp(b);
        if ((cb >= 0 && finite[cb]) ||
            system_.node(b).kind == PropNodeKind::kZero) {
          finite[c] = 1;
          break;
        }
      }
    }
  }
  int32_t root_comp = scc.comp(g.root);
  return root_comp >= 0 && finite[root_comp] != 0;
}

}  // namespace hornsafe
