// Randomised check of ChosenScc, the one cycle routine of the subset
// search and the Theorem 5 escape, against a brute-force reference on
// random chosen subgraphs with f-nodes, terminals in bodies and
// self-loops. The reference answers every question by breadth-first
// search over the chosen edges:
//
//   * two subgraph nodes share a component iff each reaches the other;
//   * components come in pop order (an edge between two components
//     points at the earlier one), and Members() partitions the visited
//     nodes;
//   * the chosen subgraph has an f-node-free forward cycle iff for some
//     forward edge u -> v (head argument -> variable) v reaches u
//     through non-f chosen nodes;
//   * the per-choice check of the search — a forward edge inside the
//     component of the newly chosen node, visited from that node only —
//     agrees with that whole-graph answer whenever the graph before the
//     choice had no such cycle.

#include <gtest/gtest.h>

#include <deque>
#include <span>
#include <vector>

#include "andor/subset.h"
#include "andor/system.h"
#include "util/rng.h"

namespace hornsafe {
namespace {

/// A random system over `n` non-terminal nodes of mixed kinds, each with
/// 1-3 rules of 1-3 body members drawn from every node (itself included,
/// so self-loops occur) and the two terminals.
AndOrSystem RandomSystem(Rng* rng, uint32_t n) {
  AndOrSystem system;
  const NodeId first = static_cast<NodeId>(system.nodes().size());
  for (uint32_t i = 0; i < n; ++i) {
    PropNode node;
    switch (rng->Below(3)) {
      case 0:
        node.kind = PropNodeKind::kHeadArg;
        break;
      case 1:
        node.kind = PropNodeKind::kVariable;
        break;
      default:
        node.kind = PropNodeKind::kBodyArg;
        node.is_f_node = rng->Chance(1, 2);
        break;
    }
    system.AddNode(node);
  }
  for (uint32_t i = 0; i < n; ++i) {
    const int rules = 1 + static_cast<int>(rng->Below(3));
    for (int r = 0; r < rules; ++r) {
      std::vector<NodeId> body;
      const int len = 1 + static_cast<int>(rng->Below(3));
      for (int k = 0; k < len; ++k) {
        if (rng->Chance(1, 10)) {
          body.push_back(rng->Chance(1, 2) ? system.zero() : system.one());
        } else {
          body.push_back(first + static_cast<NodeId>(rng->Below(n)));
        }
      }
      system.AddRule(first + i, body, 0);
    }
  }
  system.Freeze();
  return system;
}

bool InSubgraph(const AndOrSystem& system,
                const std::vector<uint32_t>& rule_of, bool skip_f, NodeId v) {
  return rule_of[v] != kNoRule && !(skip_f && system.node(v).is_f_node);
}

/// reach[u][v]: v is reachable from u (u itself included) through
/// subgraph edges.
std::vector<std::vector<char>> Reachability(
    const AndOrSystem& system, const std::vector<uint32_t>& rule_of,
    bool skip_f) {
  const size_t n = system.nodes().size();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (NodeId s = 0; s < n; ++s) {
    if (!InSubgraph(system, rule_of, skip_f, s)) continue;
    std::deque<NodeId> queue{s};
    reach[s][s] = 1;
    while (!queue.empty()) {
      NodeId v = queue.front();
      queue.pop_front();
      for (NodeId w : system.rule(rule_of[v]).body) {
        if (!InSubgraph(system, rule_of, skip_f, w) || reach[s][w]) continue;
        reach[s][w] = 1;
        queue.push_back(w);
      }
    }
  }
  return reach;
}

bool IsForwardEdge(const AndOrSystem& system, NodeId u, NodeId v) {
  return system.node(u).kind == PropNodeKind::kHeadArg &&
         system.node(v).kind == PropNodeKind::kVariable;
}

/// Reference: some forward edge u -> v of the f-free subgraph with v
/// reaching back to u.
bool BruteForceForwardCycle(const AndOrSystem& system,
                            const std::vector<uint32_t>& rule_of) {
  std::vector<std::vector<char>> reach =
      Reachability(system, rule_of, /*skip_f=*/true);
  for (NodeId u = 0; u < system.nodes().size(); ++u) {
    if (!InSubgraph(system, rule_of, true, u)) continue;
    for (NodeId v : system.rule(rule_of[u]).body) {
      if (InSubgraph(system, rule_of, true, v) &&
          IsForwardEdge(system, u, v) && reach[v][u]) {
        return true;
      }
    }
  }
  return false;
}

/// The routine's answer for component `c`: a forward edge inside it.
bool ForwardEdgeInComponent(const AndOrSystem& system,
                            const std::vector<uint32_t>& rule_of,
                            const ChosenScc& scc, int32_t c) {
  for (NodeId u : scc.Members(c)) {
    for (NodeId v : system.rule(rule_of[u]).body) {
      if (IsForwardEdge(system, u, v) && scc.comp(v) == c) return true;
    }
  }
  return false;
}

/// A random chosen subgraph: each non-terminal node picks one of its
/// rules with probability 2/3.
std::vector<uint32_t> RandomChoice(Rng* rng, const AndOrSystem& system) {
  std::vector<uint32_t> rule_of(system.nodes().size(), kNoRule);
  for (NodeId v = 0; v < system.nodes().size(); ++v) {
    const std::span<const uint32_t> rules = system.RulesFor(v);
    if (rules.empty() || !rng->Chance(2, 3)) continue;
    rule_of[v] = rules[rng->Below(rules.size())];
  }
  return rule_of;
}

TEST(ChosenSccPropertyTest, ComponentsMatchMutualReachability) {
  Rng rng(20260417);
  ChosenScc scc;  // one scratch across every run, as in a search
  for (int trial = 0; trial < 400; ++trial) {
    AndOrSystem system =
        RandomSystem(&rng, 2 + static_cast<uint32_t>(rng.Below(14)));
    std::vector<uint32_t> rule_of = RandomChoice(&rng, system);
    for (bool skip_f : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " skip_f " << skip_f);
      std::vector<std::vector<char>> reach =
          Reachability(system, rule_of, skip_f);
      scc.Start(system, rule_of.data(), skip_f);
      // Visit in a scrambled order: components must not depend on it.
      const size_t n = system.nodes().size();
      const size_t offset = rng.Below(n);
      for (size_t k = 0; k < n; ++k) {
        NodeId v = static_cast<NodeId>((k + offset) % n);
        int32_t c = scc.Visit(v);
        EXPECT_EQ(c >= 0, InSubgraph(system, rule_of, skip_f, v)) << v;
        EXPECT_EQ(c, scc.comp(v)) << v;
      }
      size_t members = 0;
      for (int32_t c = 0; c < scc.num_components(); ++c) {
        for (NodeId v : scc.Members(c)) EXPECT_EQ(scc.comp(v), c);
        members += scc.Members(c).size();
      }
      size_t in_subgraph = 0;
      for (NodeId u = 0; u < n; ++u) {
        if (!InSubgraph(system, rule_of, skip_f, u)) continue;
        ++in_subgraph;
        for (NodeId v = 0; v < n; ++v) {
          if (!InSubgraph(system, rule_of, skip_f, v)) continue;
          EXPECT_EQ(scc.comp(u) == scc.comp(v), reach[u][v] && reach[v][u])
              << u << " " << v;
        }
        for (NodeId w : system.rule(rule_of[u]).body) {
          if (InSubgraph(system, rule_of, skip_f, w)) {
            EXPECT_LE(scc.comp(w), scc.comp(u)) << u << " -> " << w;
          }
        }
      }
      EXPECT_EQ(members, in_subgraph);
    }
  }
}

TEST(ChosenSccPropertyTest, ForwardCycleCheckMatchesBruteForce) {
  Rng rng(7);
  ChosenScc scc;
  int with_cycle = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    AndOrSystem system =
        RandomSystem(&rng, 2 + static_cast<uint32_t>(rng.Below(14)));
    std::vector<uint32_t> rule_of = RandomChoice(&rng, system);
    scc.Start(system, rule_of.data(), /*skip_f=*/true);
    for (NodeId v = 0; v < system.nodes().size(); ++v) scc.Visit(v);
    bool found = false;
    for (int32_t c = 0; c < scc.num_components(); ++c) {
      found |= ForwardEdgeInComponent(system, rule_of, scc, c);
    }
    bool expected = BruteForceForwardCycle(system, rule_of);
    EXPECT_EQ(found, expected);
    with_cycle += expected ? 1 : 0;
  }
  // The generator must exercise both answers.
  EXPECT_GT(with_cycle, 40);
  EXPECT_LT(with_cycle, 360);
}

TEST(ChosenSccPropertyTest, PerChoiceCheckSeesEveryNewCycle) {
  Rng rng(99);
  ChosenScc scc;
  int closed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    AndOrSystem system =
        RandomSystem(&rng, 2 + static_cast<uint32_t>(rng.Below(14)));
    std::vector<uint32_t> target = RandomChoice(&rng, system);
    // Choose the target's nodes one at a time in a random order, as a
    // search would, until a choice closes a counted cycle (the search
    // prunes there).
    std::vector<NodeId> order;
    for (NodeId v = 0; v < system.nodes().size(); ++v) {
      if (target[v] != kNoRule) order.push_back(v);
    }
    for (size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.Below(k)]);
    }
    std::vector<uint32_t> rule_of(system.nodes().size(), kNoRule);
    for (NodeId n : order) {
      rule_of[n] = target[n];
      scc.Start(system, rule_of.data(), /*skip_f=*/true);
      int32_t c = scc.Visit(n);
      bool per_choice =
          c >= 0 && ForwardEdgeInComponent(system, rule_of, scc, c);
      bool whole_graph = BruteForceForwardCycle(system, rule_of);
      EXPECT_EQ(per_choice, whole_graph) << "choosing " << n;
      if (whole_graph) {
        ++closed;
        break;
      }
    }
  }
  EXPECT_GT(closed, 40);
}

}  // namespace
}  // namespace hornsafe
