#include "lang/fingerprint.h"

#include <algorithm>

#include "lang/struct_hash.h"

namespace hornsafe {
namespace {

/// Iterative Tarjan SCC over the predicate dependency graph. Components
/// are emitted callees-first, so numbering them in emission order gives
/// a reverse topological order of the condensation.
struct Tarjan {
  const std::vector<std::vector<PredicateId>>& adj;
  std::vector<int32_t> index, lowlink, scc_of;
  std::vector<char> on_stack;
  std::vector<PredicateId> stack;
  int32_t next_index = 0;
  int32_t num_sccs = 0;

  explicit Tarjan(const std::vector<std::vector<PredicateId>>& a)
      : adj(a),
        index(a.size(), -1),
        lowlink(a.size(), 0),
        scc_of(a.size(), -1),
        on_stack(a.size(), 0) {}

  void Run(PredicateId root) {
    if (index[root] >= 0) return;
    struct Frame {
      PredicateId v;
      size_t next_child = 0;
    };
    std::vector<Frame> frames;
    frames.push_back({root});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next_child < adj[f.v].size()) {
        PredicateId w = adj[f.v][f.next_child++];
        if (index[w] < 0) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
      } else {
        if (lowlink[f.v] == index[f.v]) {
          while (true) {
            PredicateId w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc_of[w] = num_sccs;
            if (w == f.v) break;
          }
          ++num_sccs;
        }
        PredicateId v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          PredicateId parent = frames.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
};

}  // namespace

PredicateDepGraph PredicateDepGraph::Build(const Program& program) {
  PredicateDepGraph g;
  size_t n = program.num_predicates();
  g.callees_.resize(n);
  for (const Rule& rule : program.rules()) {
    std::vector<PredicateId>& out = g.callees_[rule.head.pred];
    for (const Literal& lit : rule.body) out.push_back(lit.pred);
  }
  for (std::vector<PredicateId>& out : g.callees_) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

  Tarjan tarjan(g.callees_);
  for (PredicateId p = 0; p < static_cast<PredicateId>(n); ++p) {
    tarjan.Run(p);
  }
  g.scc_of_ = std::move(tarjan.scc_of);
  g.num_sccs_ = tarjan.num_sccs;
  g.scc_members_.resize(g.num_sccs_);
  for (PredicateId p = 0; p < static_cast<PredicateId>(n); ++p) {
    g.scc_members_[g.scc_of_[p]].push_back(p);
  }
  return g;
}

ProgramFingerprints ComputeFingerprints(const Program& program) {
  ProgramFingerprints fps;
  size_t n = program.num_predicates();
  fps.own = StructuralPredicateHashes(program);

  PredicateDepGraph graph = PredicateDepGraph::Build(program);

  // Components are numbered in reverse topological order, so walking
  // them in ascending order visits every callee component before its
  // callers and each scc fingerprint can fold the (already final) cone
  // fingerprints of its external callees.
  std::vector<uint64_t> scc_fp(graph.NumSccs(), 0);
  fps.cone.resize(n, 0);
  for (int32_t scc = 0; scc < graph.NumSccs(); ++scc) {
    const std::vector<PredicateId>& members = graph.SccMembers(scc);
    std::vector<uint64_t> parts;
    for (PredicateId m : members) {
      parts.push_back(fps.own[m]);
      for (PredicateId callee : graph.Callees(m)) {
        if (graph.SccOf(callee) != scc) {
          parts.push_back(fps.cone[callee]);
        }
      }
    }
    std::sort(parts.begin(), parts.end());
    uint64_t h = MixHash(0x636f6e65ULL);  // "cone"
    for (uint64_t x : parts) h = CombineHash(h, x);
    scc_fp[scc] = h;
    for (PredicateId m : members) {
      fps.cone[m] = CombineHash(scc_fp[scc], fps.own[m]);
    }
  }

  fps.program = StructuralProgramHashFrom(program, fps.own);
  return fps;
}

}  // namespace hornsafe
