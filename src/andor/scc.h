#ifndef HORNSAFE_ANDOR_SCC_H_
#define HORNSAFE_ANDOR_SCC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "andor/system.h"

namespace hornsafe {

/// The condensation analysis of one node/rule range of an And-Or
/// system, in range-relative coordinates: arrays are indexed by
/// `node - node_begin` / `rule - rule_begin`, and SCC ids are local
/// (0-based within the slice). Because node-table segments never share
/// non-terminal nodes (segment.h), a slice over a segment is exactly
/// the global analysis restricted to it, and slices concatenate into
/// the global analysis via `SccAnalysis::Stitch`. Slices carry no
/// absolute ids, so a slice computed against one build grafts
/// unchanged into any later build that reuses the segment.
struct SccSlice {
  uint32_t num_nodes = 0;
  uint32_t num_rules = 0;
  std::vector<char> capable;
  std::vector<char> rule_usable;
  std::vector<char> cycle_reachable;
  /// Local SCC id per node; -1 for nodes outside the union graph.
  std::vector<int32_t> scc_local;
  int32_t num_sccs = 0;
  /// Local reach bitsets (0 blocks = not materialised; see
  /// SccAnalysis::kMaxSccsForReach).
  size_t reach_blocks = 0;
  std::vector<uint64_t> reach;
};

/// Precomputed structure of the live And-Or system shared by every
/// subset-condition search over it: the capability greatest fixpoint,
/// the SCC condensation of the *union graph* (every usable rule edge,
/// taken together, over capable nodes), and two facts derived from it
/// that let searches skip enumeration entirely:
///
///   * a node that is not `capable` cannot appear in any 0-free
///     completion — every AND-graph below it contains a 0-node, so the
///     subset condition holds without search;
///   * a capable node from which no *possible* f-node-free forward
///     cycle is reachable is unsafe without search: whatever rules are
///     chosen, the chosen subgraph is a subgraph of the union graph, a
///     cycle of the chosen subgraph lies inside a single union-graph
///     SCC, and no reachable SCC can host one — so any greedy 0-free
///     completion is already a counterexample.
///
/// The same lies-inside-one-SCC fact powers the search's memo table:
/// a body node whose reachable SCCs are disjoint from the SCCs of every
/// currently chosen node is an independent subproblem whose answer does
/// not depend on the ancestors' choices (see subset.cc).
///
/// The analysis depends on the system's *live* rule set: recompute it
/// after ApplyEmptinessPruning / ReduceSystem delete rules.
class SccAnalysis {
 public:
  /// Runs capability + condensation over the current live rules.
  /// Implemented as the range analysis of ComputeSlice over the whole
  /// system (closed by definition, so without the closure check or a
  /// Stitch copy): the cold path and the segment-stitched warm path
  /// share every line of analysis code.
  static SccAnalysis Compute(const AndOrSystem& system);

  /// Computes the analysis of one node/rule range in range-relative
  /// coordinates. Valid only for ranges closed under rule membership
  /// (every rule's head/body is in-range or terminal, every in-range
  /// node's rules are in-range) — node-table segments by construction.
  /// Returns nullopt if the range is not closed; callers degrade to
  /// the global Compute.
  static std::optional<SccSlice> ComputeSlice(const AndOrSystem& system,
                                              uint32_t node_begin,
                                              uint32_t node_end,
                                              uint32_t rule_begin,
                                              uint32_t rule_end);

  /// Concatenates slices (in node order) into the global analysis.
  /// The pieces must tile the system's nodes starting at 0 or at 2
  /// (terminals prepended) and its rules starting at 0; local SCC ids
  /// are rebased by the running total, which reproduces the global
  /// Tarjan numbering exactly (roots are visited in ascending node id
  /// and DFS never leaves a segment). Returns nullopt if the pieces do
  /// not tile or a needed reach bitset is missing.
  static std::optional<SccAnalysis> Stitch(
      const AndOrSystem& system, const std::vector<const SccSlice*>& pieces);

  /// True iff the node can appear in a 0-free completion (greatest
  /// fixpoint: some live rule avoids 0 and has all-capable members).
  bool capable(NodeId n) const { return capable_[n] != 0; }

  /// True iff `rule_index` can appear in a counterexample graph: its
  /// body avoids the 0-node and every non-terminal member is capable.
  bool rule_usable(uint32_t rule_index) const {
    return rule_usable_[rule_index] != 0;
  }

  /// True iff some union-graph SCC hosting a possible f-free forward
  /// cycle is reachable from `n` (through f-nodes as well; those occur
  /// on demand paths even though they never lie on counted cycles).
  bool cycle_reachable(NodeId n) const { return cycle_reachable_[n] != 0; }

  /// Union-graph SCC of a capable non-terminal node; -1 otherwise.
  int32_t scc_of(NodeId n) const { return scc_id_[n]; }

  int32_t num_sccs() const { return num_sccs_; }

  /// Whether per-SCC reachability bitsets were materialised (skipped
  /// above kMaxSccsForReach components to bound memory; the search then
  /// falls back to joint exploration without the memo table).
  bool has_reach_sets() const { return reach_blocks_ > 0; }
  size_t reach_blocks() const { return reach_blocks_; }

  /// True iff any SCC reachable from `scc` (including itself) has a
  /// set bit in `active`, an array of reach_blocks() words.
  bool ReachesAny(int32_t scc, const uint64_t* active) const {
    const uint64_t* row = &reach_[static_cast<size_t>(scc) * reach_blocks_];
    for (size_t i = 0; i < reach_blocks_; ++i) {
      if (row[i] & active[i]) return true;
    }
    return false;
  }

  /// Reach-set ceiling: condensations wider than this skip the bitsets
  /// (quadratic memory) and the frontier memo degrades gracefully.
  static constexpr int32_t kMaxSccsForReach = 1 << 13;

 private:
  std::vector<char> capable_;
  std::vector<char> rule_usable_;
  std::vector<char> cycle_reachable_;
  std::vector<int32_t> scc_id_;
  int32_t num_sccs_ = 0;
  size_t reach_blocks_ = 0;
  /// num_sccs_ rows of reach_blocks_ words; row s = SCCs reachable
  /// from s, itself included.
  std::vector<uint64_t> reach_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_ANDOR_SCC_H_
