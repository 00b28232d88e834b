// Property tests for SccAnalysis (andor/scc.h): Compute must agree,
// field for field, with a naive reference kept here — capability by
// passes until nothing changes, recursive Tarjan over vector-of-vector
// adjacency, and reachability by plain graph search — on random
// systems, WideHead(3..5) and the paper's examples. Stitching
// per-span slices must reproduce Compute exactly.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "andor/build.h"
#include "andor/emptiness.h"
#include "andor/reduce.h"
#include "andor/scc.h"
#include "canonical/canonical.h"
#include "parser/parser.h"
#include "tests/andor/andor_test_util.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

bool IsTerminal(const AndOrSystem& system, NodeId v) {
  PropNodeKind k = system.node(v).kind;
  return k == PropNodeKind::kZero || k == PropNodeKind::kOne;
}

/// The reference analysis, computed the slow, obvious way.
struct Reference {
  std::vector<char> capable;
  std::vector<char> rule_usable;
  std::vector<char> cycle_reachable;
  std::vector<int32_t> scc;
  int32_t num_sccs = 0;
  /// reach[s][t]: SCC t is reachable from SCC s (s itself included).
  std::vector<std::vector<char>> reach;
};

bool RuleUsable(const AndOrSystem& system, const std::vector<char>& capable,
                uint32_t ri) {
  for (NodeId b : system.rule(ri).body) {
    if (b == system.zero()) return false;
    if (!IsTerminal(system, b) && !capable[b]) return false;
  }
  return true;
}

/// Recursive Tarjan, roots in ascending node order, components numbered
/// in pop order.
struct Tarjan {
  const std::vector<std::vector<NodeId>>& adj;
  const std::vector<char>& in_graph;
  std::vector<int32_t> index, low, comp;
  std::vector<char> on_stack;
  std::vector<NodeId> stack;
  int32_t next = 0;
  int32_t count = 0;

  Tarjan(const std::vector<std::vector<NodeId>>& a, const std::vector<char>& g)
      : adj(a),
        in_graph(g),
        index(a.size(), -1),
        low(a.size(), 0),
        comp(a.size(), -1),
        on_stack(a.size(), 0) {
    for (NodeId v = 0; v < adj.size(); ++v) {
      if (in_graph[v] && index[v] < 0) Visit(v);
    }
  }

  void Visit(NodeId v) {
    index[v] = low[v] = next++;
    stack.push_back(v);
    on_stack[v] = 1;
    for (NodeId w : adj[v]) {
      if (!in_graph[w]) continue;
      if (index[w] < 0) {
        Visit(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] != index[v]) return;
    while (true) {
      NodeId w = stack.back();
      stack.pop_back();
      on_stack[w] = 0;
      comp[w] = count;
      if (w == v) break;
    }
    ++count;
  }
};

Reference ComputeReference(const AndOrSystem& system) {
  const size_t n = system.nodes().size();
  Reference ref;
  ref.capable.assign(n, 1);
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId v = 0; v < n; ++v) {
      if (IsTerminal(system, v) || !ref.capable[v]) continue;
      bool any = false;
      for (uint32_t ri : system.RulesFor(v)) {
        any = any || RuleUsable(system, ref.capable, ri);
      }
      if (!any) {
        ref.capable[v] = 0;
        changed = true;
      }
    }
  }
  ref.rule_usable.assign(system.num_rules(), 0);
  std::vector<std::vector<NodeId>> adj(n);
  std::vector<char> in_graph(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (IsTerminal(system, v)) continue;
    for (uint32_t ri : system.RulesFor(v)) {
      ref.rule_usable[ri] = RuleUsable(system, ref.capable, ri);
    }
    if (!ref.capable[v]) continue;
    in_graph[v] = 1;
    for (uint32_t ri : system.RulesFor(v)) {
      if (!ref.rule_usable[ri]) continue;
      for (NodeId b : system.rule(ri).body) {
        if (!IsTerminal(system, b)) adj[v].push_back(b);
      }
    }
  }
  Tarjan scc(adj, in_graph);
  ref.scc = scc.comp;
  ref.num_sccs = scc.count;

  std::vector<char> in_ffree(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    in_ffree[v] = in_graph[v] && !system.node(v).is_f_node;
  }
  Tarjan ffree(adj, in_ffree);
  std::vector<char> cycle_possible(ref.num_sccs, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (!in_ffree[u] || system.node(u).kind != PropNodeKind::kHeadArg) {
      continue;
    }
    for (NodeId v : adj[u]) {
      if (in_ffree[v] && system.node(v).kind == PropNodeKind::kVariable &&
          ffree.comp[u] == ffree.comp[v]) {
        cycle_possible[ref.scc[u]] = 1;
      }
    }
  }

  // SCC reachability by a plain search from every component's members.
  ref.reach.assign(ref.num_sccs, std::vector<char>(ref.num_sccs, 0));
  for (NodeId root = 0; root < n; ++root) {
    if (!in_graph[root]) continue;
    std::vector<char>& row = ref.reach[ref.scc[root]];
    std::vector<char> seen(n, 0);
    std::vector<NodeId> todo{root};
    seen[root] = 1;
    while (!todo.empty()) {
      NodeId v = todo.back();
      todo.pop_back();
      row[ref.scc[v]] = 1;
      for (NodeId w : adj[v]) {
        if (in_graph[w] && !seen[w]) {
          seen[w] = 1;
          todo.push_back(w);
        }
      }
    }
  }
  ref.cycle_reachable.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (!in_graph[v]) continue;
    for (int32_t t = 0; t < ref.num_sccs; ++t) {
      if (ref.reach[ref.scc[v]][t] && cycle_possible[t]) {
        ref.cycle_reachable[v] = 1;
      }
    }
  }
  return ref;
}

/// reaches[t][s]: `a`'s reach bitsets say SCC s reaches SCC t.
std::vector<std::vector<char>> ReachedBy(const SccAnalysis& a) {
  std::vector<std::vector<char>> out(a.num_sccs(),
                                     std::vector<char>(a.num_sccs(), 0));
  std::vector<uint64_t> active(a.reach_blocks(), 0);
  for (int32_t t = 0; t < a.num_sccs(); ++t) {
    active[t / 64] = uint64_t{1} << (t % 64);
    for (int32_t s = 0; s < a.num_sccs(); ++s) {
      out[t][s] = a.ReachesAny(s, active.data());
    }
    active[t / 64] = 0;
  }
  return out;
}

void ExpectMatchesReference(const AndOrSystem& system, const SccAnalysis& a,
                            const std::string& label) {
  SCOPED_TRACE(label);
  const Reference ref = ComputeReference(system);
  ASSERT_EQ(a.num_sccs(), ref.num_sccs);
  for (NodeId v = 0; v < system.nodes().size(); ++v) {
    ASSERT_EQ(a.capable(v), ref.capable[v] != 0) << "node " << v;
    ASSERT_EQ(a.scc_of(v), ref.scc[v]) << "node " << v;
    ASSERT_EQ(a.cycle_reachable(v), ref.cycle_reachable[v] != 0)
        << "node " << v;
  }
  for (uint32_t ri = 0; ri < system.num_rules(); ++ri) {
    ASSERT_EQ(a.rule_usable(ri), ref.rule_usable[ri] != 0) << "rule " << ri;
  }
  ASSERT_EQ(a.has_reach_sets(), ref.num_sccs > 0);
  const std::vector<std::vector<char>> reached = ReachedBy(a);
  for (int32_t s = 0; s < ref.num_sccs; ++s) {
    for (int32_t t = 0; t < ref.num_sccs; ++t) {
      ASSERT_EQ(reached[t][s], ref.reach[s][t]) << "scc " << s << " -> " << t;
    }
  }
}

void ExpectSameAnalysis(const AndOrSystem& system, const SccAnalysis& a,
                        const SccAnalysis& b) {
  ASSERT_EQ(a.num_sccs(), b.num_sccs());
  ASSERT_EQ(a.reach_blocks(), b.reach_blocks());
  for (NodeId v = 0; v < system.nodes().size(); ++v) {
    ASSERT_EQ(a.capable(v), b.capable(v)) << "node " << v;
    ASSERT_EQ(a.scc_of(v), b.scc_of(v)) << "node " << v;
    ASSERT_EQ(a.cycle_reachable(v), b.cycle_reachable(v)) << "node " << v;
  }
  for (uint32_t ri = 0; ri < system.num_rules(); ++ri) {
    ASSERT_EQ(a.rule_usable(ri), b.rule_usable(ri)) << "rule " << ri;
  }
  ASSERT_TRUE(ReachedBy(a) == ReachedBy(b));
}

/// One closed node/rule range of a system.
struct Block {
  uint32_t node_begin, node_end, rule_begin, rule_end;
};

/// Stitches per-block slices and checks the result equals Compute.
void ExpectStitchMatchesCompute(const AndOrSystem& system,
                                const std::vector<Block>& blocks) {
  std::vector<SccSlice> slices;
  slices.reserve(blocks.size());
  for (const Block& b : blocks) {
    std::optional<SccSlice> s = SccAnalysis::ComputeSlice(
        system, b.node_begin, b.node_end, b.rule_begin, b.rule_end);
    ASSERT_TRUE(s.has_value());
    slices.push_back(std::move(*s));
  }
  std::vector<const SccSlice*> pieces;
  for (const SccSlice& s : slices) pieces.push_back(&s);
  std::optional<SccAnalysis> stitched = SccAnalysis::Stitch(system, pieces);
  ASSERT_TRUE(stitched.has_value());
  ExpectSameAnalysis(system, SccAnalysis::Compute(system), *stitched);
}

/// A random system of `num_blocks` closed blocks: each block's nodes and
/// rules are contiguous, rule bodies draw from the block's own nodes
/// and the terminals, and some rules are deleted afterwards.
AndOrSystem RandomBlockSystem(Rng* rng, int num_blocks,
                              std::vector<Block>* blocks) {
  AndOrSystem system;
  for (int bi = 0; bi < num_blocks; ++bi) {
    Block b;
    b.node_begin = static_cast<uint32_t>(system.nodes().size());
    b.rule_begin = static_cast<uint32_t>(system.num_rules());
    const uint32_t n = 1 + static_cast<uint32_t>(rng->Below(12));
    for (uint32_t i = 0; i < n; ++i) {
      PropNode node;
      switch (rng->Below(4)) {
        case 0:
          node.kind = PropNodeKind::kHeadArg;
          break;
        case 1:
          node.kind = PropNodeKind::kVariable;
          break;
        default:
          node.kind = PropNodeKind::kBodyArg;
          node.is_f_node = rng->Chance(1, 3);
          break;
      }
      system.AddNode(node);
    }
    for (uint32_t i = 0; i < n; ++i) {
      const int rules = static_cast<int>(rng->Below(4));
      for (int r = 0; r < rules; ++r) {
        std::vector<NodeId> body;
        const int len = 1 + static_cast<int>(rng->Below(3));
        for (int k = 0; k < len; ++k) {
          if (rng->Chance(1, 8)) {
            body.push_back(rng->Chance(1, 2) ? system.zero() : system.one());
          } else {
            body.push_back(b.node_begin + static_cast<NodeId>(rng->Below(n)));
          }
        }
        system.AddRule(b.node_begin + i, body, 0);
      }
    }
    b.node_end = static_cast<uint32_t>(system.nodes().size());
    b.rule_end = static_cast<uint32_t>(system.num_rules());
    blocks->push_back(b);
  }
  system.Freeze();
  for (uint32_t ri = 0; ri < system.num_rules(); ++ri) {
    if (rng->Chance(1, 10)) system.DeleteRule(ri);
  }
  return system;
}

TEST(SccPropertyTest, RandomSystemsMatchReference) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::vector<Block> blocks;
    AndOrSystem system =
        RandomBlockSystem(&rng, 1 + static_cast<int>(rng.Below(4)), &blocks);
    ExpectMatchesReference(system, SccAnalysis::Compute(system),
                           StrCat("seed ", seed));
    if (HasFatalFailure()) return;
  }
}

TEST(SccPropertyTest, StitchedBlockSlicesEqualCompute) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    std::vector<Block> blocks;
    AndOrSystem system =
        RandomBlockSystem(&rng, 1 + static_cast<int>(rng.Below(5)), &blocks);
    ExpectStitchMatchesCompute(system, blocks);
    if (HasFatalFailure()) return;
  }
}

TEST(SccPropertyTest, SliceRejectsRangeThatIsNotClosed) {
  AndOrSystem system;
  PropNode head_arg;
  head_arg.kind = PropNodeKind::kHeadArg;
  PropNode var;
  var.kind = PropNodeKind::kVariable;
  NodeId a = system.AddNode(head_arg);
  NodeId b = system.AddNode(var);
  system.AddRule(a, {b}, 0);
  system.AddRule(b, {system.one()}, 0);
  system.Freeze();
  EXPECT_FALSE(SccAnalysis::ComputeSlice(system, a, a + 1, 0, 1));
  EXPECT_TRUE(SccAnalysis::ComputeSlice(system, a, b + 1, 0, 2));
}

void CheckProgram(const std::string& label, const std::string& text) {
  for (bool prune : {false, true}) {
    SCOPED_TRACE(StrCat(label, prune ? " (pruned)" : " (unpruned)"));
    PipelineOptions opts;
    opts.apply_emptiness = prune;
    opts.apply_reduce = prune;
    TestPipeline b;
    ASSERT_TRUE(TryMakePipeline(text, opts, &b));
    ExpectMatchesReference(b.system, SccAnalysis::Compute(b.system), label);
    if (::testing::Test::HasFatalFailure()) return;
    std::vector<Block> blocks;
    for (const SegmentSpan& s : b.system.spans()) {
      blocks.push_back({s.node_begin, s.node_end, s.rule_begin, s.rule_end});
    }
    ExpectStitchMatchesCompute(b.system, blocks);
  }
}

TEST(SccPropertyTest, WideHeadMatchesReference) {
  for (int arity = 3; arity <= 5; ++arity) {
    CheckProgram(StrCat("WideHead(", arity, ")"), WideHeadText(arity));
    if (HasFatalFailure()) return;
  }
}

TEST(SccPropertyTest, PaperExamplesMatchReference) {
  const char* kExamples[] = {
      // Example 9/10: the FD f2,f3 -> f1.
      R"(.infinite f/3.
         .fd f: 2 3 -> 1.
         r(X,Y) :- f(X,U,V), r(U,V), b(U,Y).
         r(X,Y) :- b(X,Y).)",
      // Example 4: no dependency, unsafe.
      R"(.infinite t/2.
         r(X) :- t(X,Y), r(Y), a(Y).
         r(X) :- b(X).
         ?- r(X).)",
      // Example 7: concat.
      R"(concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
         concat([], Z, Z).
         ?- concat(A, B, C).)",
      // Example 11: ungrounded recursion through an FD.
      R"(.infinite f/2.
         .fd f: 2 -> 1.
         r(X) :- f(X,Y), r(Y).
         ?- r(X).)",
  };
  int i = 0;
  for (const char* text : kExamples) {
    CheckProgram(StrCat("inline example ", i++), text);
    if (HasFatalFailure()) return;
  }
  for (const char* name : {"ancestor.hs", "concat.hs", "example13.hs",
                           "unsafe_projection.hs", "weighted_paths.hs"}) {
    std::ifstream in(StrCat(HORNSAFE_PROGRAMS_DIR, "/", name));
    ASSERT_TRUE(in) << name;
    std::stringstream text;
    text << in.rdbuf();
    CheckProgram(name, text.str());
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hornsafe
