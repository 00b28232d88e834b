#include "andor/scc.h"

#include <algorithm>

namespace hornsafe {

namespace {

/// Nodes 0 and 1 are the terminals of every system (AndOrSystem's
/// constructor interns them first).
bool IsTerminal(const AndOrSystem& system, NodeId n) {
  return n == system.zero() || n == system.one();
}

/// Compressed sparse rows: row v is targets[offsets[v], offsets[v + 1]).
struct Csr {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> targets;

  uint32_t begin(uint32_t v) const { return offsets[v]; }
  uint32_t end(uint32_t v) const { return offsets[v + 1]; }
};

/// Groups `n` items by key (key < 0: no group) into CSR rows, items
/// ascending within each row.
Csr GroupBy(const std::vector<int32_t>& key, int32_t num_keys) {
  Csr out;
  out.offsets.assign(static_cast<size_t>(num_keys) + 1, 0);
  for (int32_t k : key) {
    if (k >= 0) ++out.offsets[k + 1];
  }
  for (int32_t k = 0; k < num_keys; ++k) out.offsets[k + 1] += out.offsets[k];
  out.targets.resize(out.offsets[num_keys]);
  std::vector<uint32_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (uint32_t i = 0; i < key.size(); ++i) {
    if (key[i] >= 0) out.targets[fill[key[i]]++] = i;
  }
  return out;
}

/// Iterative Tarjan over CSR adjacency restricted to the nodes with
/// `in_graph[v]` set. Components are numbered in pop order, so every
/// edge leaving a component points at a smaller component id (reverse
/// topological numbering). Returns the number of components.
int32_t TarjanScc(const Csr& adj, const std::vector<char>& in_graph,
                  std::vector<int32_t>* comp) {
  const uint32_t n = static_cast<uint32_t>(in_graph.size());
  comp->assign(n, -1);
  std::vector<int32_t> index(n, -1);
  std::vector<int32_t> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<NodeId> stack;
  int32_t next_index = 0;
  int32_t num_components = 0;

  // Explicit DFS frame: node + next position within its adjacency row.
  struct Frame {
    NodeId v;
    uint32_t next;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < n; ++root) {
    if (!in_graph[root] || index[root] >= 0) continue;
    frames.push_back({root, adj.begin(root)});
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      NodeId v = f.v;
      if (f.next < adj.end(v)) {
        NodeId w = adj.targets[f.next++];
        if (!in_graph[w]) continue;
        if (index[w] < 0) {
          frames.push_back({w, adj.begin(w)});
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        while (true) {
          NodeId w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          (*comp)[w] = num_components;
          if (w == v) break;
        }
        ++num_components;
      }
      frames.pop_back();
      if (!frames.empty()) {
        NodeId parent = frames.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return num_components;
}

/// True iff no rule edge crosses the range boundary (terminals excepted
/// — they belong to no slice and are handled symbolically).
bool RangeClosed(const AndOrSystem& system, uint32_t node_begin,
                 uint32_t node_end, uint32_t rule_begin, uint32_t rule_end) {
  auto in_span = [&](NodeId v) { return v >= node_begin && v < node_end; };
  for (uint32_t ri = rule_begin; ri < rule_end; ++ri) {
    const PropRule r = system.rule(ri);
    if (!IsTerminal(system, r.head) && !in_span(r.head)) return false;
    for (NodeId b : r.body) {
      if (!IsTerminal(system, b) && !in_span(b)) return false;
    }
  }
  for (NodeId v = node_begin; v < node_end; ++v) {
    if (IsTerminal(system, v)) continue;
    for (uint32_t ri : system.RulesFor(v)) {
      if (ri < rule_begin || ri >= rule_end) return false;
    }
  }
  return true;
}

/// The analysis of a closed node/rule range, in range-relative
/// coordinates (the body of ComputeSlice once closure is established).
SccSlice AnalyzeRange(const AndOrSystem& system, uint32_t node_begin,
                      uint32_t node_end, uint32_t rule_begin,
                      uint32_t rule_end) {
  SccSlice out;
  const uint32_t n = node_end - node_begin;
  const uint32_t num_rules = rule_end - rule_begin;
  out.num_nodes = n;
  out.num_rules = num_rules;

  // 1. Capability greatest fixpoint: a node can appear in a 0-free
  // completion iff some live rule for it avoids the 0-node and has
  // all-capable non-terminal members. Counting worklist: every live
  // rule without 0 starts usable, each node counts its usable rules,
  // and a node whose count drops to 0 turns incapable and kills the
  // rules it occurs in. Linear in the rule sizes; the greatest fixpoint
  // is unique, so this is exactly the pass-until-stable result. A
  // closed range only reads capabilities inside the range, so the local
  // fixpoint is the global one restricted.
  out.capable.assign(n, 1);
  out.rule_usable.assign(num_rules, 0);
  std::vector<uint32_t> usable_count(n, 0);
  Csr occurs_in;  // local node -> usable rules it occurs in
  occurs_in.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (NodeId v = node_begin; v < node_end; ++v) {
    if (IsTerminal(system, v)) continue;
    for (uint32_t ri : system.RulesFor(v)) {
      const PropRule r = system.rule(ri);
      if (std::find(r.body.begin(), r.body.end(), system.zero()) !=
          r.body.end()) {
        continue;
      }
      out.rule_usable[ri - rule_begin] = 1;
      ++usable_count[v - node_begin];
      for (NodeId b : r.body) {
        if (!IsTerminal(system, b)) ++occurs_in.offsets[b - node_begin + 1];
      }
    }
  }
  for (uint32_t lv = 0; lv < n; ++lv) {
    occurs_in.offsets[lv + 1] += occurs_in.offsets[lv];
  }
  occurs_in.targets.resize(occurs_in.offsets[n]);
  {
    std::vector<uint32_t> fill(occurs_in.offsets.begin(),
                               occurs_in.offsets.end() - 1);
    for (uint32_t lr = 0; lr < num_rules; ++lr) {
      if (!out.rule_usable[lr]) continue;
      for (NodeId b : system.rule(rule_begin + lr).body) {
        if (!IsTerminal(system, b)) {
          occurs_in.targets[fill[b - node_begin]++] = lr;
        }
      }
    }
  }
  std::vector<uint32_t> dead;
  for (NodeId v = node_begin; v < node_end; ++v) {
    if (!IsTerminal(system, v) && usable_count[v - node_begin] == 0) {
      out.capable[v - node_begin] = 0;
      dead.push_back(v - node_begin);
    }
  }
  while (!dead.empty()) {
    const uint32_t lb = dead.back();
    dead.pop_back();
    for (uint32_t i = occurs_in.begin(lb); i < occurs_in.end(lb); ++i) {
      const uint32_t lr = occurs_in.targets[i];
      if (!out.rule_usable[lr]) continue;
      out.rule_usable[lr] = 0;
      const uint32_t lh = system.rule(rule_begin + lr).head - node_begin;
      if (--usable_count[lh] == 0) {
        out.capable[lh] = 0;
        dead.push_back(lh);
      }
    }
  }

  // 2. Union (demand) graph over capable non-terminal nodes, in local
  // coordinates: an edge per usable-rule body membership, in rule then
  // body order. F-nodes participate — they carry demand even though
  // counted cycles never pass through them.
  std::vector<char> in_graph(n, 0);
  Csr adj;
  adj.offsets.reserve(static_cast<size_t>(n) + 1);
  adj.offsets.push_back(0);
  for (NodeId v = node_begin; v < node_end; ++v) {
    if (!IsTerminal(system, v) && out.capable[v - node_begin]) {
      in_graph[v - node_begin] = 1;
      for (uint32_t ri : system.RulesFor(v)) {
        if (!out.rule_usable[ri - rule_begin]) continue;
        for (NodeId b : system.rule(ri).body) {
          if (!IsTerminal(system, b)) adj.targets.push_back(b - node_begin);
        }
      }
    }
    adj.offsets.push_back(static_cast<uint32_t>(adj.targets.size()));
  }
  out.num_sccs = TarjanScc(adj, in_graph, &out.scc_local);

  // 3. F-free sub-SCCs: same edges minus f-node endpoints. A counted
  // cycle (forward edge, no f-node) is possible exactly inside an
  // f-free SCC containing a head-argument -> variable edge.
  std::vector<char> in_ffree(n, 0);
  for (uint32_t lv = 0; lv < n; ++lv) {
    in_ffree[lv] = in_graph[lv] && !system.node(node_begin + lv).is_f_node;
  }
  std::vector<int32_t> ffs_id;
  TarjanScc(adj, in_ffree, &ffs_id);

  std::vector<char> cycle_possible(out.num_sccs, 0);
  for (uint32_t lu = 0; lu < n; ++lu) {
    if (!in_ffree[lu] ||
        system.node(node_begin + lu).kind != PropNodeKind::kHeadArg) {
      continue;
    }
    for (uint32_t i = adj.begin(lu); i < adj.end(lu); ++i) {
      const uint32_t lv = adj.targets[i];
      if (!in_ffree[lv]) continue;
      if (system.node(node_begin + lv).kind != PropNodeKind::kVariable) {
        continue;
      }
      if (ffs_id[lu] == ffs_id[lv]) cycle_possible[out.scc_local[lu]] = 1;
    }
  }

  // 4. Propagate cycle possibility up the condensation. Components are
  // numbered in reverse topological order (edges point at smaller ids),
  // so one increasing sweep sees every successor first.
  const Csr members = GroupBy(out.scc_local, out.num_sccs);
  std::vector<char> reach_cycle = cycle_possible;
  for (int32_t s = 0; s < out.num_sccs; ++s) {
    for (uint32_t m = members.begin(s);
         m < members.end(s) && !reach_cycle[s]; ++m) {
      const uint32_t lv = members.targets[m];
      for (uint32_t i = adj.begin(lv); i < adj.end(lv); ++i) {
        const uint32_t lw = adj.targets[i];
        if (!in_graph[lw]) continue;
        int32_t t = out.scc_local[lw];
        if (t != s && reach_cycle[t]) {
          reach_cycle[s] = 1;
          break;
        }
      }
    }
  }
  out.cycle_reachable.assign(n, 0);
  for (uint32_t lv = 0; lv < n; ++lv) {
    if (out.scc_local[lv] >= 0) {
      out.cycle_reachable[lv] = reach_cycle[out.scc_local[lv]];
    }
  }

  // 5. Per-SCC reachability bitsets for the search's independence
  // frontier. The slice always materialises its rows when it is narrow
  // enough; Stitch re-applies the bound against the *global* SCC count
  // and drops the rows when the stitched total is too wide.
  if (out.num_sccs > 0 && out.num_sccs <= SccAnalysis::kMaxSccsForReach) {
    out.reach_blocks = (static_cast<size_t>(out.num_sccs) + 63) / 64;
    out.reach.assign(static_cast<size_t>(out.num_sccs) * out.reach_blocks,
                     0);
    for (int32_t s = 0; s < out.num_sccs; ++s) {
      uint64_t* row = &out.reach[static_cast<size_t>(s) * out.reach_blocks];
      row[s / 64] |= uint64_t{1} << (s % 64);
      for (uint32_t m = members.begin(s); m < members.end(s); ++m) {
        const uint32_t lv = members.targets[m];
        for (uint32_t i = adj.begin(lv); i < adj.end(lv); ++i) {
          const uint32_t lw = adj.targets[i];
          if (!in_graph[lw]) continue;
          int32_t t = out.scc_local[lw];
          if (t == s) continue;
          const uint64_t* trow =
              &out.reach[static_cast<size_t>(t) * out.reach_blocks];
          for (size_t w = 0; w < out.reach_blocks; ++w) row[w] |= trow[w];
        }
      }
    }
  }
  return out;
}

}  // namespace

std::optional<SccSlice> SccAnalysis::ComputeSlice(const AndOrSystem& system,
                                                  uint32_t node_begin,
                                                  uint32_t node_end,
                                                  uint32_t rule_begin,
                                                  uint32_t rule_end) {
  if (node_end < node_begin || rule_end < rule_begin ||
      node_end > system.nodes().size() || rule_end > system.num_rules()) {
    return std::nullopt;
  }
  // The slice is the restriction of the global analysis only when the
  // range is closed.
  if (!RangeClosed(system, node_begin, node_end, rule_begin, rule_end)) {
    return std::nullopt;
  }
  return AnalyzeRange(system, node_begin, node_end, rule_begin, rule_end);
}

std::optional<SccAnalysis> SccAnalysis::Stitch(
    const AndOrSystem& system, const std::vector<const SccSlice*>& pieces) {
  const size_t n = system.nodes().size();
  const size_t num_rules = system.num_rules();

  size_t node_sum = 0;
  size_t rule_sum = 0;
  int64_t total_sccs = 0;
  for (const SccSlice* p : pieces) {
    if (p == nullptr) return std::nullopt;
    if (p->capable.size() != p->num_nodes ||
        p->cycle_reachable.size() != p->num_nodes ||
        p->scc_local.size() != p->num_nodes ||
        p->rule_usable.size() != p->num_rules || p->num_sccs < 0) {
      return std::nullopt;
    }
    node_sum += p->num_nodes;
    rule_sum += p->num_rules;
    total_sccs += p->num_sccs;
  }
  if (rule_sum != num_rules || node_sum > n) return std::nullopt;
  const size_t node_start = n - node_sum;
  // Pieces tile the whole node table, or everything but the two
  // terminals (which every range analysis treats symbolically).
  if (node_start != 0 && node_start != 2) return std::nullopt;

  SccAnalysis out;
  out.capable_.assign(n, 1);
  out.rule_usable_.assign(num_rules, 0);
  out.cycle_reachable_.assign(n, 0);
  out.scc_id_.assign(n, -1);
  out.num_sccs_ = static_cast<int32_t>(total_sccs);

  const bool want_reach = total_sccs > 0 && total_sccs <= kMaxSccsForReach;
  if (want_reach) {
    // Each piece is at most as wide as the total, so ComputeSlice must
    // have materialised its rows; a piece without them did not come
    // from ComputeSlice and cannot be stitched safely.
    for (const SccSlice* p : pieces) {
      if (p->num_sccs == 0) continue;
      if (p->reach_blocks == 0 ||
          p->reach.size() !=
              static_cast<size_t>(p->num_sccs) * p->reach_blocks) {
        return std::nullopt;
      }
    }
    out.reach_blocks_ = (static_cast<size_t>(total_sccs) + 63) / 64;
    out.reach_.assign(static_cast<size_t>(total_sccs) * out.reach_blocks_,
                      0);
  }

  size_t nb = node_start;
  size_t rb = 0;
  int32_t scc_base = 0;
  for (const SccSlice* p : pieces) {
    for (uint32_t i = 0; i < p->num_nodes; ++i) {
      out.capable_[nb + i] = p->capable[i];
      out.cycle_reachable_[nb + i] = p->cycle_reachable[i];
      out.scc_id_[nb + i] =
          p->scc_local[i] < 0 ? -1 : p->scc_local[i] + scc_base;
    }
    for (uint32_t i = 0; i < p->num_rules; ++i) {
      out.rule_usable_[rb + i] = p->rule_usable[i];
    }
    if (want_reach && p->num_sccs > 0) {
      // Reachability never crosses slice boundaries (ranges are closed),
      // so the global matrix is block-diagonal: each local row lands
      // bit-shifted at its slice's SCC base.
      const size_t bo = static_cast<size_t>(scc_base) % 64;
      const size_t w0 = static_cast<size_t>(scc_base) / 64;
      for (int32_t s = 0; s < p->num_sccs; ++s) {
        const uint64_t* lrow =
            &p->reach[static_cast<size_t>(s) * p->reach_blocks];
        uint64_t* grow = &out.reach_[static_cast<size_t>(scc_base + s) *
                                     out.reach_blocks_];
        for (size_t i = 0; i < p->reach_blocks; ++i) {
          if (w0 + i < out.reach_blocks_) grow[w0 + i] |= lrow[i] << bo;
          if (bo != 0 && w0 + i + 1 < out.reach_blocks_) {
            grow[w0 + i + 1] |= lrow[i] >> (64 - bo);
          }
        }
      }
    }
    nb += p->num_nodes;
    rb += p->num_rules;
    scc_base += p->num_sccs;
  }
  return out;
}

SccAnalysis SccAnalysis::Compute(const AndOrSystem& system) {
  // The full range is closed by definition and its local coordinates
  // are the global ones, so the one slice *is* the analysis: no closure
  // check, no Stitch copy. Cold and warm paths still share every line
  // of AnalyzeRange.
  SccSlice slice =
      AnalyzeRange(system, 0, static_cast<uint32_t>(system.nodes().size()), 0,
                   static_cast<uint32_t>(system.num_rules()));
  SccAnalysis out;
  out.capable_ = std::move(slice.capable);
  out.rule_usable_ = std::move(slice.rule_usable);
  out.cycle_reachable_ = std::move(slice.cycle_reachable);
  out.scc_id_ = std::move(slice.scc_local);
  out.num_sccs_ = slice.num_sccs;
  out.reach_blocks_ = slice.reach_blocks;
  out.reach_ = std::move(slice.reach);
  return out;
}

}  // namespace hornsafe
