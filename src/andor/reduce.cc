#include "andor/reduce.h"

#include <vector>

namespace hornsafe {

ReduceStats ReduceSystemInRanges(AndOrSystem* system,
                                 const std::vector<ReduceRange>& ranges) {
  ReduceStats stats;
  auto terminal = [&](NodeId v) {
    return v == system->zero() || v == system->one();
  };

  // The ranged nodes in one dense local numbering: node v of range i is
  // base[i] + (v - node_begin). Ranges are closed, so every head and
  // non-terminal body member of a ranged rule lies in the rule's own
  // range, and the work and scratch stay proportional to the ranges.
  std::vector<uint32_t> base(ranges.size() + 1, 0);
  for (size_t i = 0; i < ranges.size(); ++i) {
    base[i + 1] = base[i] + (ranges[i].node_end - ranges[i].node_begin);
  }
  const uint32_t num_local = base.back();
  auto local = [&](size_t i, NodeId v) -> uint32_t {
    const ReduceRange& r = ranges[i];
    if (v < r.node_begin || v >= r.node_end) return num_local;
    return base[i] + (v - r.node_begin);
  };

  // used_in (CSR): the live ranged rules whose body mentions each local
  // node. Terminals are skipped: they never become "never".
  std::vector<uint32_t> offsets(static_cast<size_t>(num_local) + 1, 0);
  auto for_each_member = [&](auto&& fn) {
    for (size_t i = 0; i < ranges.size(); ++i) {
      for (uint32_t ri = ranges[i].rule_begin; ri < ranges[i].rule_end;
           ++ri) {
        if (system->rule_deleted(ri)) continue;
        for (NodeId b : system->rule(ri).body) {
          if (terminal(b)) continue;
          const uint32_t lb = local(i, b);
          if (lb < num_local) fn(lb, ri);
        }
      }
    }
  };
  for_each_member([&](uint32_t lb, uint32_t) { ++offsets[lb + 1]; });
  for (uint32_t l = 0; l < num_local; ++l) offsets[l + 1] += offsets[l];
  std::vector<uint32_t> used_in(offsets[num_local]);
  {
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for_each_member([&](uint32_t lb, uint32_t ri) { used_in[fill[lb]++] = ri; });
  }

  // FIFO of (node, range) pairs turned "never".
  std::vector<char> never(num_local, 0);
  struct Never {
    NodeId node;
    uint32_t range;
  };
  std::vector<Never> queue;
  for (size_t i = 0; i < ranges.size(); ++i) {
    for (NodeId n = ranges[i].node_begin; n < ranges[i].node_end; ++n) {
      if (terminal(n)) continue;
      if (system->RulesFor(n).empty()) {
        never[local(i, n)] = 1;
        ++stats.nodes_neverized;
        queue.push_back({n, static_cast<uint32_t>(i)});
      }
    }
  }

  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const Never item = queue[qi];
    const uint32_t ln = local(item.range, item.node);
    for (uint32_t k = offsets[ln]; k < offsets[ln + 1]; ++k) {
      const uint32_t ri = used_in[k];
      if (system->rule_deleted(ri)) continue;
      NodeId head = system->rule(ri).head;
      system->DeleteRule(ri);
      ++stats.rules_deleted;
      const uint32_t lh = local(item.range, head);
      if (lh < num_local && !never[lh] && !terminal(head) &&
          system->RulesFor(head).empty()) {
        never[lh] = 1;
        ++stats.nodes_neverized;
        queue.push_back({head, item.range});
      }
    }
  }
  return stats;
}

ReduceStats ReduceSystem(AndOrSystem* system) {
  ReduceRange full;
  full.node_begin = 0;
  full.node_end = static_cast<uint32_t>(system->nodes().size());
  full.rule_begin = 0;
  full.rule_end = static_cast<uint32_t>(system->num_rules());
  return ReduceSystemInRanges(system, {full});
}

}  // namespace hornsafe
