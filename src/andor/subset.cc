#include "andor/subset.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "andor/scc.h"
#include "util/strings.h"

namespace hornsafe {

const char* SafetyName(Safety s) {
  switch (s) {
    case Safety::kSafe:
      return "safe";
    case Safety::kUnsafe:
      return "unsafe";
    case Safety::kUndecided:
      return "undecided";
  }
  return "?";
}

std::string AndGraph::Describe(const AndOrSystem& system,
                               const Program& program) const {
  std::string out = StrCat("AND-graph rooted at ",
                           system.NodeName(root, program), ":\n");
  // Stable order: by node id.
  std::vector<std::pair<NodeId, uint32_t>> entries(chosen.begin(),
                                                   chosen.end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [node, rule_idx] : entries) {
    const PropRule& r = system.rule(rule_idx);
    out += StrCat("  ", system.NodeName(node, program), " <- ",
                  JoinMapped(r.body, ", ",
                             [&](NodeId b) {
                               return system.NodeName(b, program);
                             }),
                  "\n");
  }
  return out;
}

std::string AndGraph::ToDot(const AndOrSystem& system,
                            const Program& program) const {
  std::string out = "digraph and_graph {\n  rankdir=TB;\n";
  auto quoted = [&](NodeId n) {
    std::string name = system.NodeName(n, program);
    std::string escaped;
    for (char c : name) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return StrCat("\"", escaped, "\"");
  };
  // Stable order: by node id.
  std::vector<std::pair<NodeId, uint32_t>> entries(chosen.begin(),
                                                   chosen.end());
  std::sort(entries.begin(), entries.end());
  std::unordered_set<NodeId> declared;
  auto declare = [&](NodeId n) {
    if (!declared.insert(n).second) return;
    const PropNode& pn = system.node(n);
    std::string attrs;
    if (pn.is_f_node) {
      attrs = "shape=diamond";
    } else if (pn.kind == PropNodeKind::kHeadArg) {
      attrs = "shape=box";
    } else if (pn.kind == PropNodeKind::kZero ||
               pn.kind == PropNodeKind::kOne) {
      attrs = "shape=plaintext";
    } else {
      attrs = "shape=ellipse";
    }
    if (n == root) attrs += ",peripheries=2";
    out += StrCat("  ", quoted(n), " [", attrs, "];\n");
  };
  for (const auto& [node, rule_idx] : entries) {
    declare(node);
    const PropRule& r = system.rule(rule_idx);
    for (NodeId b : r.body) {
      declare(b);
      bool forward = system.node(node).kind == PropNodeKind::kHeadArg &&
                     system.node(b).kind == PropNodeKind::kVariable;
      out += StrCat("  ", quoted(node), " -> ", quoted(b),
                    forward ? " [style=dashed]" : "", ";\n");
    }
  }
  out += "}\n";
  return out;
}

void ChosenScc::Start(const AndOrSystem& system, const uint32_t* rule_of,
                      bool skip_f) {
  const size_t n = system.nodes().size();
  if (index_.size() != n) {
    index_.assign(n, -1);
    low_.assign(n, 0);
    comp_.assign(n, -1);
  } else {
    // Only the previous run's visits are stale.
    for (NodeId v : order_) index_[v] = -1;
  }
  order_.clear();
  comp_begin_.assign(1, 0);
  next_index_ = 0;
  system_ = &system;
  rule_of_ = rule_of;
  skip_f_ = skip_f;
}

bool ChosenScc::InSubgraph(NodeId n) const {
  return rule_of_[n] != kNoRule && !(skip_f_ && system_->node(n).is_f_node);
}

int32_t ChosenScc::Visit(NodeId from) {
  if (!InSubgraph(from)) return -1;
  if (index_[from] >= 0) return comp_[from];
  auto enter = [&](NodeId v) {
    index_[v] = low_[v] = next_index_++;
    comp_[v] = -1;
    stack_.push_back(v);
    frames_.emplace_back(v, 0);
  };
  enter(from);
  while (!frames_.empty()) {
    auto& [v, next] = frames_.back();
    const std::span<const NodeId> body = system_->rule(rule_of_[v]).body;
    if (next < body.size()) {
      NodeId w = body[next++];
      if (!InSubgraph(w)) continue;
      if (index_[w] < 0) {
        enter(w);
      } else if (comp_[w] < 0) {  // on the stack
        low_[v] = std::min(low_[v], index_[w]);
      }
      continue;
    }
    const NodeId done = v;
    frames_.pop_back();
    if (!frames_.empty()) {
      NodeId parent = frames_.back().first;
      low_[parent] = std::min(low_[parent], low_[done]);
    }
    if (low_[done] == index_[done]) {
      const int32_t c = num_components();
      NodeId w;
      do {
        w = stack_.back();
        stack_.pop_back();
        comp_[w] = c;
        order_.push_back(w);
      } while (w != done);
      comp_begin_.push_back(static_cast<uint32_t>(order_.size()));
    }
  }
  return comp_[from];
}

namespace {

bool IsTerminalNode(const AndOrSystem& system, NodeId n) {
  PropNodeKind k = system.node(n).kind;
  return k == PropNodeKind::kZero || k == PropNodeKind::kOne;
}

/// True iff component `c` of `cycles`' current f-free run contains a
/// forward edge (head argument -> variable): with both ends in one
/// component of the f-node-free chosen subgraph, that edge closes an
/// f-node-free forward cycle.
bool HasForwardEdgeIn(const AndOrSystem& system, const uint32_t* rule_of,
                      const ChosenScc& cycles, int32_t c) {
  for (NodeId u : cycles.Members(c)) {
    if (system.node(u).kind != PropNodeKind::kHeadArg) continue;
    for (NodeId b : system.rule(rule_of[u]).body) {
      if (system.node(b).kind == PropNodeKind::kVariable &&
          cycles.comp(b) == c) {
        return true;
      }
    }
  }
  return false;
}

/// The counterexample search. Two execution modes share the state:
///
///  * Joint mode (the pre-memo algorithm): one DFS over rule choices
///    for every reachable node, with the partial-cycle prune. Used when
///    a Theorem 5 escape is installed (the escape inspects whole
///    graphs, so subproblems are not context-free), when memoization is
///    disabled, or when the condensation was too wide for reach sets.
///
///  * Fragment mode: the same DFS, but a body node b that comes up for
///    expansion while reach_sccs(b) is disjoint from the components of
///    every currently chosen node (across all active fragments) is an
///    *independence frontier*: whether b can anchor a closed, 0-free,
///    cycle-free assignment is a context-free fact. It is decided once
///    by a nested fragment search and memoized by node id. Soundness of
///    skipping b rests on two facts: a cycle of any chosen subgraph
///    lies inside a single union-graph SCC (choices only remove edges),
///    and with the disjointness guard no cycle can span a fragment
///    boundary — so independently found fragments merge with the rest
///    of the graph (earliest fragment preferred per node) into a valid
///    counterexample. Without the guard, node-keyed caching is unsound:
///    inside an active SCC the existence of a cycle through b depends
///    on the ancestors' rule choices.
class SubsetSearch {
 public:
  SubsetSearch(const AndOrSystem& system, NodeId root,
               const SubsetOptions& opts, const SccAnalysis* scc)
      : system_(system), root_(root), opts_(opts), scc_(scc) {}

  SubsetResult Run() {
    SubsetResult result;
    if (root_ == kInvalidNode || system_.RulesFor(root_).empty()) {
      // No graph can be rooted here: vacuously safe (the node can never
      // produce a binding).
      result.verdict = Safety::kSafe;
      return result;
    }
    if (scc_ == nullptr) ComputeCapability();
    if (!Capable(root_)) {
      // Every completion of every graph rooted here contains a 0-node:
      // the subset condition holds without search.
      result.verdict = Safety::kSafe;
      if (scc_ != nullptr && opts_.use_scc) result.scc_short_circuits = 1;
      return result;
    }
    const bool has_escape = static_cast<bool>(opts_.escape);
    if (opts_.use_scc && scc_ != nullptr && !has_escape &&
        !scc_->cycle_reachable(root_)) {
      // No reachable union-graph component can host an f-node-free
      // forward cycle, so *any* greedy 0-free completion is already a
      // counterexample: unsafe with zero enumeration.
      result.verdict = Safety::kUnsafe;
      AndGraph g;
      g.root = root_;
      GreedyClose(root_, &g.chosen);
      result.witness = std::move(g);
      result.scc_short_circuits = 1;
      return result;
    }

    // Pre-expired deadlines (and already-triggered cancellations) stop
    // before the first step, so every search under them degrades
    // identically at any job count; only the cheap O(1) short-circuits
    // above still resolve.
    if (StopReason r = opts_.exec.ShouldStop(); r != StopReason::kNone) {
      exhausted_ = true;
      stop_reason_ = r;
      result.verdict = Safety::kUndecided;
      result.stop_reason = r;
      return result;
    }

    memo_mode_ = opts_.use_memo && scc_ != nullptr && !has_escape &&
                 scc_->has_reach_sets();
    rule_of_.assign(system_.nodes().size(), kNoRule);
    Fragment top;
    top.root = root_;
    top.worklist.push_back(root_);
    bool found = false;
    if (memo_mode_) {
      memo_.assign(system_.nodes().size(), kUnsolved);
      active_count_.assign(scc_->num_sccs(), 0);
      active_bits_.assign(scc_->reach_blocks(), 0);
      found = FragmentSearch(top, 0);
      if (found && !exhausted_) {
        for (NodeId n : top.chosen) fragment_rule_.emplace(n, rule_of_[n]);
        result.witness = ExtractWitness();
      }
    } else {
      JointSearch(top, 0, &found);
      if (found) {
        AndGraph g;
        g.root = root_;
        for (NodeId n : top.chosen) g.chosen.emplace(n, rule_of_[n]);
        result.witness = std::move(g);
      }
    }
    result.graphs_checked = graphs_checked_;
    result.steps = steps_;
    result.memo_hits = memo_hits_;
    result.memo_misses = memo_misses_;
    result.scc_short_circuits = scc_short_;
    if (found && !exhausted_) {
      result.verdict = Safety::kUnsafe;
    } else if (exhausted_) {
      result.verdict = Safety::kUndecided;
      result.stop_reason = stop_reason_;
      result.witness.reset();
    } else {
      result.verdict = Safety::kSafe;
    }
    return result;
  }

 private:
  /// One DFS over rule choices; the top-level search and every
  /// delegated subproblem each own one. The chosen rules themselves live
  /// in the search-wide `rule_of_`: the fragments active at one time
  /// choose disjoint node sets (a delegated root reaches no active
  /// component), and a completed fragment's entries are cleared.
  struct Fragment {
    NodeId root = kInvalidNode;
    std::vector<NodeId> worklist;
    /// The nodes this fragment chose, in choice order.
    std::vector<NodeId> chosen;
  };

  /// Frontier memo entry per node: can it anchor a closed, 0-free,
  /// cycle-free assignment?
  enum Memo : uint8_t { kUnsolved, kAnchors, kNoAnchor };

  bool IsTerminal(NodeId n) const { return IsTerminalNode(system_, n); }
  bool Chosen(NodeId n) const { return rule_of_[n] != kNoRule; }

  void Choose(Fragment& f, NodeId n, uint32_t ri) {
    rule_of_[n] = ri;
    f.chosen.push_back(n);
  }

  /// Undoes the fragment's latest choice (choices unwind in stack order).
  void Unchoose(Fragment& f) {
    rule_of_[f.chosen.back()] = kNoRule;
    f.chosen.pop_back();
  }

  /// Queues the non-terminal members of rule `ri`'s body; true iff one
  /// of them is already chosen, i.e. the choice closed a back edge.
  bool PushBody(Fragment& f, uint32_t ri) {
    bool closes_back_edge = false;
    for (NodeId b : system_.rule(ri).body) {
      if (IsTerminal(b)) continue;
      f.worklist.push_back(b);
      closes_back_edge |= Chosen(b);
    }
    return closes_back_edge;
  }

  /// True iff choosing `n` closed an f-node-free forward cycle. The
  /// graph before the choice had none (every choice that closes a back
  /// edge is checked here, and a positive check prunes it), and every
  /// edge the choice adds starts or ends at `n`, so any new cycle passes
  /// through `n`: only n's component of the f-free chosen subgraph needs
  /// a look. The same invariant means a complete graph never has one.
  bool ClosesCountedCycle(NodeId n) {
    cycles_.Start(system_, rule_of_.data(), /*skip_f=*/true);
    int32_t c = cycles_.Visit(n);
    return c >= 0 && HasForwardEdgeIn(system_, rule_of_.data(), cycles_, c);
  }

  /// One DFS step: the exact per-step budget check plus a periodic
  /// deadline/cancellation check (every kCheckInterval steps, so the
  /// steady_clock read stays off the per-step path). Returns true when
  /// the search must unwind; `exhausted_`/`stop_reason_` are set.
  bool StepStops() {
    if (++steps_ > opts_.budget) {
      exhausted_ = true;
      stop_reason_ = StopReason::kBudget;
      return true;
    }
    if (opts_.exec.active() &&
        (steps_ & (ExecContext::kCheckInterval - 1)) == 0) {
      if (StopReason r = opts_.exec.ShouldStop(); r != StopReason::kNone) {
        exhausted_ = true;
        stop_reason_ = r;
        return true;
      }
    }
    return false;
  }

  bool Capable(NodeId n) const {
    return scc_ != nullptr ? scc_->capable(n) : capable_[n] != 0;
  }

  /// A counterexample graph cannot use a rule that mentions 0 (it would
  /// contain a 0-node) or a node that cannot itself be expanded into a
  /// 0-free subgraph.
  bool RuleUsable(uint32_t rule_index) const {
    if (scc_ != nullptr) return scc_->rule_usable(rule_index);
    const PropRule& r = system_.rule(rule_index);
    for (NodeId b : r.body) {
      if (b == system_.zero()) return false;
      if (!IsTerminal(b) && !capable_[b]) return false;
    }
    return true;
  }

  /// Greatest-fixpoint pre-pass used only when no SccAnalysis was
  /// supplied or requested: a node is *capable* of appearing in a
  /// counterexample graph iff it has a live rule whose body avoids 0
  /// and whose non-terminal members are all capable.
  void ComputeCapability() {
    const size_t n = system_.nodes().size();
    capable_.assign(n, 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId v = 0; v < n; ++v) {
        if (!capable_[v] || IsTerminal(v)) continue;
        bool has_usable = false;
        for (uint32_t ri : system_.RulesFor(v)) {
          const PropRule& r = system_.rule(ri);
          bool usable = true;
          for (NodeId b : r.body) {
            if (b == system_.zero() ||
                (!IsTerminal(b) && !capable_[b])) {
              usable = false;
              break;
            }
          }
          if (usable) {
            has_usable = true;
            break;
          }
        }
        if (!has_usable) {
          capable_[v] = 0;
          changed = true;
        }
      }
    }
  }

  /// Joint-mode DFS (exactly the pre-memo algorithm). Sets *found when
  /// a counterexample graph is confirmed; sets exhausted_ when the
  /// budget runs out.
  void JointSearch(Fragment& f, size_t from, bool* found) {
    if (*found || exhausted_) return;
    if (StepStops()) return;
    // Next unchosen non-terminal node.
    size_t i = from;
    while (i < f.worklist.size() &&
           (IsTerminal(f.worklist[i]) || Chosen(f.worklist[i]))) {
      ++i;
    }
    if (i == f.worklist.size()) {
      // Complete graph, free of f-free forward cycles by the invariant
      // of ClosesCountedCycle: only the escape can still rescue it.
      ++graphs_checked_;
      if (!(opts_.escape && EscapeAccepts(f))) *found = true;
      return;
    }
    NodeId n = f.worklist[i];
    for (uint32_t ri : system_.RulesFor(n)) {
      if (!RuleUsable(ri)) continue;
      Choose(f, n, ri);
      size_t mark = f.worklist.size();
      // Cycles persist under completion, so once the partial graph
      // already satisfies the subset condition (an f-free forward cycle,
      // or the Theorem 5 escape), no completion below this choice can be
      // a counterexample: prune the whole subtree.
      const bool closes_back_edge = PushBody(f, ri);
      bool pruned = closes_back_edge &&
                    (ClosesCountedCycle(n) ||
                     (opts_.escape && EscapeAccepts(f)));
      if (!pruned) {
        JointSearch(f, i + 1, found);
        if (*found) return;  // keep the choices intact as the witness
      }
      f.worklist.resize(mark);
      Unchoose(f);
      if (exhausted_) return;
    }
  }

  bool EscapeAccepts(const Fragment& f) {
    return opts_.escape(ChosenGraph{root_, rule_of_.data(), f.chosen,
                                    &cycles_});
  }

  /// Fragment-mode DFS. Returns true when the fragment completed a
  /// closed (modulo delegation), 0-free, cycle-free assignment; the
  /// assignment is left chosen. Returns false on exhaustive failure or
  /// when exhausted_ was set.
  bool FragmentSearch(Fragment& f, size_t from) {
    if (exhausted_) return false;
    if (StepStops()) return false;
    // Next unchosen non-terminal node; delegate independence frontiers.
    size_t i = from;
    NodeId n = kInvalidNode;
    while (i < f.worklist.size()) {
      NodeId cand = f.worklist[i];
      if (IsTerminal(cand) || Chosen(cand)) {
        ++i;
        continue;
      }
      if (cand != f.root) {
        if (memo_[cand] == kNoAnchor) {
          // Context-free: no closed cycle-free assignment contains
          // cand, so no completion of this branch exists.
          ++memo_hits_;
          return false;
        }
        // A fragment must not delegate its own root (its memo entry is
        // the one being computed), hence the cand != f.root guard; any
        // deeper re-entry is excluded by the disjointness check because
        // the root's component is active once chosen.
        if (Delegable(cand)) {
          if (memo_[cand] != kUnsolved) {
            ++memo_hits_;
            ++i;
            continue;
          }
          ++memo_misses_;
          if (!DelegateCompute(cand)) return false;
          ++i;
          continue;
        }
      }
      n = cand;
      break;
    }
    if (n == kInvalidNode) {
      // Complete (modulo delegated members, which merge cycle-free by
      // the frontier guarantee), and cycle-free by the invariant of
      // ClosesCountedCycle.
      ++graphs_checked_;
      return true;
    }
    for (uint32_t ri : system_.RulesFor(n)) {
      if (!RuleUsable(ri)) continue;
      const PropRule& r = system_.rule(ri);
      bool dead = false;
      for (NodeId b : r.body) {
        if (memo_[b] == kNoAnchor) {  // never set for terminals
          dead = true;
          break;
        }
      }
      if (dead) {
        ++memo_hits_;
        continue;
      }
      Choose(f, n, ri);
      ActivateChoice(n);
      size_t mark = f.worklist.size();
      const bool closes_back_edge = PushBody(f, ri);
      bool pruned = closes_back_edge && ClosesCountedCycle(n);
      if (!pruned) {
        if (FragmentSearch(f, i + 1)) return true;  // keep chosen intact
      }
      f.worklist.resize(mark);
      Unchoose(f);
      DeactivateChoice(n);
      if (exhausted_) return false;
    }
    return false;
  }

  /// An independence frontier: nothing reachable from n shares a
  /// component with any currently chosen node, so no cycle can connect
  /// n's closure to the graphs under construction.
  bool Delegable(NodeId n) const {
    int32_t s = scc_->scc_of(n);
    if (s < 0) return false;
    return !scc_->ReachesAny(s, active_bits_.data());
  }

  /// Decides (and memoizes) whether `b` can anchor a closed, 0-free,
  /// cycle-free assignment. On success the fragment's rules are merged
  /// into fragment_rule_ (earliest fragment wins) for later witness
  /// assembly. Returns false on infeasible *or* exhausted_.
  bool DelegateCompute(NodeId b) {
    if (opts_.use_scc && !scc_->cycle_reachable(b)) {
      // No component reachable from b can host a counted cycle: any
      // greedy 0-free closure anchors b.
      std::unordered_map<NodeId, uint32_t> closure;
      GreedyClose(b, &closure);
      for (const auto& [n, ri] : closure) fragment_rule_.emplace(n, ri);
      ++scc_short_;
      memo_[b] = kAnchors;
      return true;
    }
    Fragment f;
    f.root = b;
    f.worklist.push_back(b);
    bool feasible = FragmentSearch(f, 0);
    if (exhausted_) return false;  // verdict unknown: do not memoize
    if (feasible) {
      for (NodeId n : f.chosen) {
        fragment_rule_.emplace(n, rule_of_[n]);
        // The success path never backtracked these choices; release
        // them now that the fragment is closed.
        rule_of_[n] = kNoRule;
        DeactivateChoice(n);
      }
    }
    memo_[b] = feasible ? kAnchors : kNoAnchor;
    return feasible;
  }

  void ActivateChoice(NodeId n) {
    int32_t s = scc_->scc_of(n);
    if (s < 0) return;
    if (active_count_[s]++ == 0) {
      active_bits_[s / 64] |= uint64_t{1} << (s % 64);
    }
  }

  void DeactivateChoice(NodeId n) {
    int32_t s = scc_->scc_of(n);
    if (s < 0) return;
    if (--active_count_[s] == 0) {
      active_bits_[s / 64] &= ~(uint64_t{1} << (s % 64));
    }
  }

  /// Closes `from` downward using the first usable rule per node. Only
  /// called below nodes with no reachable cycle-capable component, so
  /// the result is automatically a valid counterexample piece.
  void GreedyClose(NodeId from,
                   std::unordered_map<NodeId, uint32_t>* out) const {
    std::vector<NodeId> stack{from};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (IsTerminal(v) || out->count(v)) continue;
      for (uint32_t ri : system_.RulesFor(v)) {
        if (!RuleUsable(ri)) continue;
        out->emplace(v, ri);
        for (NodeId b : system_.rule(ri).body) {
          if (!IsTerminal(b)) stack.push_back(b);
        }
        break;
      }
    }
  }

  /// Resolves the final witness from fragment_rule_ by walking from the
  /// root. Every reachable node is covered: the top fragment merged its
  /// domain last, delegated nodes were merged at their fragments'
  /// completion, and earliest-fragment preference keeps every edge
  /// inside the chosen fragment or one completed before it — so the
  /// merged graph inherits cycle-freeness from the per-fragment checks.
  AndGraph ExtractWitness() const {
    AndGraph g;
    g.root = root_;
    std::vector<NodeId> stack{root_};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (IsTerminal(v) || g.chosen.count(v)) continue;
      auto it = fragment_rule_.find(v);
      if (it == fragment_rule_.end()) continue;  // unreachable by design
      g.chosen.emplace(v, it->second);
      for (NodeId b : system_.rule(it->second).body) {
        if (!IsTerminal(b)) stack.push_back(b);
      }
    }
    return g;
  }

  const AndOrSystem& system_;
  NodeId root_;
  const SubsetOptions& opts_;
  const SccAnalysis* scc_;
  /// Joint-mode capability map (scc_ == nullptr only).
  std::vector<char> capable_;

  bool memo_mode_ = false;
  bool exhausted_ = false;
  StopReason stop_reason_ = StopReason::kNone;
  /// node -> chosen rule (kNoRule if unchosen), shared by the active
  /// fragments.
  std::vector<uint32_t> rule_of_;
  /// Cycle scratch for the per-choice check and the escape.
  ChosenScc cycles_;
  /// Memo mode: per-node frontier memo.
  std::vector<Memo> memo_;
  /// node -> rule from the earliest completed fragment containing it.
  std::unordered_map<NodeId, uint32_t> fragment_rule_;
  /// Per-SCC count/bitset of components of currently chosen nodes.
  std::vector<uint32_t> active_count_;
  std::vector<uint64_t> active_bits_;

  uint64_t steps_ = 0;
  uint64_t graphs_checked_ = 0;
  uint64_t memo_hits_ = 0;
  uint64_t memo_misses_ = 0;
  uint64_t scc_short_ = 0;
};

}  // namespace

SubsetResult CheckSubsetCondition(const AndOrSystem& system, NodeId root,
                                  const SubsetOptions& opts) {
  const SccAnalysis* scc = opts.scc;
  std::optional<SccAnalysis> local;
  if (scc == nullptr && (opts.use_scc || opts.use_memo) &&
      root != kInvalidNode && !system.RulesFor(root).empty()) {
    local = SccAnalysis::Compute(system);
    scc = &*local;
  }
  return SubsetSearch(system, root, opts, scc).Run();
}

bool IsCounterexampleGraph(const AndOrSystem& system, const AndGraph& graph) {
  if (graph.root == kInvalidNode || !graph.chosen.count(graph.root)) {
    return false;
  }
  for (const auto& [node, rule_idx] : graph.chosen) {
    if (IsTerminalNode(system, node)) return false;
    // The rule must be a live rule of this node.
    bool owns = false;
    for (uint32_t ri : system.RulesFor(node)) {
      if (ri == rule_idx) {
        owns = true;
        break;
      }
    }
    if (!owns) return false;
    for (NodeId b : system.rule(rule_idx).body) {
      if (b == system.zero()) return false;
      if (!IsTerminalNode(system, b) && !graph.chosen.count(b)) {
        return false;  // not closed
      }
    }
  }
  std::vector<uint32_t> rule_of(system.nodes().size(), kNoRule);
  for (const auto& [node, rule_idx] : graph.chosen) rule_of[node] = rule_idx;
  ChosenScc cycles;
  cycles.Start(system, rule_of.data(), /*skip_f=*/true);
  for (const auto& [node, rule_idx] : graph.chosen) cycles.Visit(node);
  for (int32_t c = 0; c < cycles.num_components(); ++c) {
    if (HasForwardEdgeIn(system, rule_of.data(), cycles, c)) return false;
  }
  return true;
}

}  // namespace hornsafe
