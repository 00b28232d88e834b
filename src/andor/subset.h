#ifndef HORNSAFE_ANDOR_SUBSET_H_
#define HORNSAFE_ANDOR_SUBSET_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "andor/system.h"
#include "lang/program.h"
#include "util/deadline.h"

namespace hornsafe {

class SccAnalysis;

/// Three-valued safety verdict.
enum class Safety : uint8_t {
  kSafe,
  kUnsafe,
  /// The search budget ran out before the space of AND-graphs was
  /// exhausted; the argument must be treated as potentially unsafe.
  kUndecided,
};

const char* SafetyName(Safety s);

/// One fully chosen AND-graph And_H(p): exactly one live rule per
/// reachable non-terminal node.
struct AndGraph {
  NodeId root = kInvalidNode;
  /// node -> index of the chosen rule in the AndOrSystem.
  std::unordered_map<NodeId, uint32_t> chosen;

  /// Multi-line rendering for explanations.
  std::string Describe(const AndOrSystem& system,
                       const Program& program) const;

  /// Graphviz rendering: box = head argument, ellipse = variable,
  /// diamond = f-node (infinite-relation argument), doubled border =
  /// the root; dashed edges are the forward (head-to-variable) edges.
  std::string ToDot(const AndOrSystem& system, const Program& program) const;
};

/// `rule_of` entry of a node with no chosen rule.
inline constexpr uint32_t kNoRule = static_cast<uint32_t>(-1);

/// Strongly connected components of a chosen subgraph: the nodes v with
/// `rule_of[v] != kNoRule`, with an edge v -> w for every chosen body
/// member w of v's chosen rule. With `skip_f` the f-nodes are left out
/// (the subset condition counts only f-node-free cycles). One iterative
/// Tarjan over dense per-NodeId arrays that are sized on first use and
/// reused by every later run, so a run allocates nothing after warm-up
/// and costs O(nodes and edges it visits). Not thread-safe: each search
/// owns one.
class ChosenScc {
 public:
  /// Starts a run over `system`: forgets the previous run's components
  /// and binds the subgraph. `rule_of` has one entry per system node
  /// and must outlive the run; terminal nodes must be unchosen.
  void Start(const AndOrSystem& system, const uint32_t* rule_of,
             bool skip_f);

  /// Visits every subgraph node reachable from `from` that this run has
  /// not visited yet and returns the component of `from` (-1 if `from`
  /// is not in the subgraph). Components are numbered in pop order from
  /// 0, so the component of a fresh `from` is the run's latest.
  int32_t Visit(NodeId from);

  /// Component of `n`, or -1 if this run has not visited it.
  int32_t comp(NodeId n) const {
    return index_[n] < 0 ? -1 : comp_[n];
  }

  /// Components found by this run so far.
  int32_t num_components() const {
    return static_cast<int32_t>(comp_begin_.size()) - 1;
  }

  /// The members of component `c` of this run.
  std::span<const NodeId> Members(int32_t c) const {
    return std::span<const NodeId>(order_).subspan(
        comp_begin_[c], comp_begin_[c + 1] - comp_begin_[c]);
  }

 private:
  bool InSubgraph(NodeId n) const;

  const AndOrSystem* system_ = nullptr;
  const uint32_t* rule_of_ = nullptr;
  bool skip_f_ = false;
  /// Per node: DFS index (-1 = unvisited), lowlink, component (-1 while
  /// on the Tarjan stack).
  std::vector<int32_t> index_;
  std::vector<int32_t> low_;
  std::vector<int32_t> comp_;
  /// Visited nodes grouped by component; component c is
  /// order_[comp_begin_[c], comp_begin_[c + 1]).
  std::vector<NodeId> order_;
  std::vector<uint32_t> comp_begin_;
  std::vector<NodeId> stack_;
  /// Explicit DFS frames: node + next body position.
  std::vector<std::pair<NodeId, uint32_t>> frames_;
  int32_t next_index_ = 0;
};

/// A candidate AND-graph as the search holds it, lent to the escape for
/// the duration of one call (nothing is copied).
struct ChosenGraph {
  NodeId root = kInvalidNode;
  /// node -> chosen rule, kNoRule if unchosen; one entry per node.
  const uint32_t* rule_of = nullptr;
  /// The chosen nodes, in choice order.
  std::span<const NodeId> nodes;
  /// The search's cycle scratch, free for the escape to run.
  ChosenScc* scc = nullptr;
};

/// Optional escape hatch for Theorem 5: called on every candidate
/// counterexample graph (no 0-node, no f-node-free forward cycle); if it
/// returns true the graph is considered to satisfy the subset condition
/// anyway (e.g. because monotonicity constraints bound one of its
/// cycles) and the search continues. Called concurrently from parallel
/// searches, each with its own graph and scratch.
using GraphEscape = std::function<bool(const ChosenGraph&)>;

/// Options for the subset-condition search.
struct SubsetOptions {
  /// DFS step budget; exceeded -> kUndecided.
  uint64_t budget = 5'000'000;
  /// Wall-clock deadline and cancellation token, checked cooperatively
  /// every `ExecContext::kCheckInterval` DFS steps. Either stop
  /// degrades the verdict to kUndecided with the matching StopReason —
  /// exactly like the step budget, but non-deterministic when observed
  /// mid-search (an already-expired deadline stops every search at step
  /// 0 and is deterministic; see DESIGN.md, D13).
  ExecContext exec;
  GraphEscape escape;
  /// Enable the SCC condensation short-circuits: a capable root with no
  /// reachable component that could host an f-node-free forward cycle
  /// is unsafe without any enumeration (a greedy 0-free completion is
  /// already a counterexample). Disabled automatically when `escape` is
  /// set — the escape can rescue individual graphs, so existence of a
  /// cycle-free completion alone no longer decides.
  bool use_scc = true;
  /// Enable frontier memoization: a body node whose reachable
  /// components are disjoint from the components of every node chosen
  /// so far is an independent subproblem ("can it anchor a closed,
  /// cycle-free assignment?") solved once and cached by node id.
  /// Disabled automatically when `escape` is set.
  bool use_memo = true;
  /// Precomputed condensation to share across argument positions; when
  /// null (and use_scc or use_memo is set) it is computed on the fly.
  const SccAnalysis* scc = nullptr;
};

/// Outcome of CheckSubsetCondition.
struct SubsetResult {
  Safety verdict = Safety::kUndecided;
  /// Why the search stopped early (kNone unless verdict ==
  /// kUndecided): step budget, deadline, or cancellation.
  StopReason stop_reason = StopReason::kNone;
  /// Counterexample graph when verdict == kUnsafe.
  std::optional<AndGraph> witness;
  /// Complete AND-graphs examined.
  uint64_t graphs_checked = 0;
  /// DFS steps consumed.
  uint64_t steps = 0;
  /// Delegations answered from the memo table.
  uint64_t memo_hits = 0;
  /// Delegations that ran a fresh fragment search.
  uint64_t memo_misses = 0;
  /// Verdicts (whole-search or per-fragment) decided by the SCC
  /// condensation without enumeration.
  uint64_t scc_short_circuits = 0;
};

/// Decides the subset condition of Theorems 3/4 for the argument-position
/// node `root`: `root` is safe iff *every* AND-graph And_H(root)
/// constructible from the live rules contains a 0-node or a forward cycle
/// free of f-nodes.
///
/// The search enumerates rule choices depth-first, looking for a
/// *counterexample* graph — one whose chosen rule bodies never mention 0
/// and whose chosen subgraph, after deleting f-nodes, has no cycle
/// through a forward edge (head-argument -> variable edge). Nodes without
/// live rules cannot appear in any complete graph, so rules mentioning
/// them are skipped (run ReduceSystem first to prune them wholesale).
///
/// Sound and, per Theorem 4, complete after ApplyEmptinessPruning.
/// Worst-case exponential in the number of nodes (the paper's Lemma 8
/// bound is per-family; the family itself can be exponential), bounded
/// by `opts.budget`. The SCC short-circuits and frontier memoization
/// (see SubsetOptions) collapse the common shapes of that blow-up;
/// both are exact, so verdicts and witness validity never depend on the
/// flags.
SubsetResult CheckSubsetCondition(const AndOrSystem& system, NodeId root,
                                  const SubsetOptions& opts = {});

/// Validates a purported counterexample graph: rooted, closed (every
/// non-terminal body member of a chosen rule is itself chosen, with a
/// live rule of that node), 0-free, and without an f-node-free forward
/// cycle. Used by tests and by callers that want to double-check
/// witnesses assembled from memoized fragments.
bool IsCounterexampleGraph(const AndOrSystem& system, const AndGraph& graph);

}  // namespace hornsafe

#endif  // HORNSAFE_ANDOR_SUBSET_H_
