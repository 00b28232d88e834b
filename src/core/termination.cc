#include "core/termination.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "andor/lfp.h"
#include "andor/subset.h"
#include "constraints/argmap.h"
#include "util/strings.h"

namespace hornsafe {

namespace {

using StateKey = std::pair<PredicateId, uint64_t>;

/// One call edge between reachable states.
struct StateEdge {
  StateKey from;
  StateKey to;
  /// Adorned rule realising the call.
  uint32_t adorned_rule;
  /// The occurrence literal within that rule.
  const Literal* occ;
};

class TerminationChecker {
 public:
  TerminationChecker(const SafetyAnalyzer& analyzer, const Literal& query)
      : program_(analyzer.canonical()),
        adorned_(analyzer.adorned()),
        system_(analyzer.system()),
        query_(query) {}

  TerminationResult Run(Safety safety,
                        const IntermediateFinitenessResult& fin) {
    TerminationResult out;

    // 1. Termination implies safety.
    if (safety != Safety::kSafe) {
      out.reasons.push_back(
          StrCat("query is ", SafetyName(safety),
                 "; a terminating computation would make it safe"));
      return out;
    }
    // 2. ... and finiteness of intermediate relations.
    if (!fin.exists) {
      out.reasons.push_back(
          "no computation has finite intermediate relations");
      for (const std::string& r : fin.offenders) out.reasons.push_back(r);
      return out;
    }

    if (!program_.IsDerived(query_.pred)) {
      // Finite base (infinite base already failed step 2).
      out.exists = true;
      return out;
    }

    // 3. Every reachable recursion cycle must be convergent.
    lfp_ = LeastFixpoint(system_);
    BuildReachableStates();
    std::vector<std::string> bad = UncertifiedCycles();
    if (bad.empty()) {
      out.exists = true;
    } else {
      out.reasons = std::move(bad);
    }
    return out;
  }

 private:
  bool VarFinite(uint32_t adorned_rule, TermId v) const {
    NodeId n = system_.FindVariable(adorned_rule, v);
    return n == kInvalidNode || lfp_[n] == 0;
  }

  /// BFS over (pred, adornment) states. A computation chooses one
  /// sideways strategy per occurrence; we model the natural *most
  /// bound* choice — bind every position whose variable is LFP-finite.
  /// More bindings only restrict the recursion further, so this choice
  /// is at least as convergent as any other usable strategy.
  void BuildReachableStates() {
    std::map<StateKey, std::vector<const AdornedRule*>> rules_of;
    for (const AdornedRule& ar : adorned_.rules) {
      rules_of[{ar.head_pred, ar.adornment.bound_mask}].push_back(&ar);
    }
    std::vector<StateKey> worklist = {{query_.pred, 0}};
    std::set<StateKey> seen(worklist.begin(), worklist.end());
    while (!worklist.empty()) {
      StateKey state = worklist.back();
      worklist.pop_back();
      auto it = rules_of.find(state);
      if (it == rules_of.end()) continue;
      for (const AdornedRule* ar : it->second) {
        for (size_t bi = 0; bi < ar->body.size(); ++bi) {
          const BodyOccurrence& occ = ar->body[bi];
          if (occ.kind != PredicateKind::kDerived) continue;
          uint64_t mask = 0;
          for (uint32_t j = 0; j < occ.lit.args.size(); ++j) {
            TermId v = occ.lit.args[j];
            // Bound at call time: the variable has a finite binding set
            // *and* a source outside this occurrence (a bound head
            // position or another body literal).
            if (!VarFinite(ar->adorned_index, v)) continue;
            bool available = false;
            for (uint32_t k = 0; k < ar->head.args.size(); ++k) {
              if (ar->head.args[k] == v && ar->adornment.IsBound(k)) {
                available = true;
              }
            }
            for (size_t other = 0; other < ar->body.size() && !available;
                 ++other) {
              if (other == bi) continue;
              const std::vector<TermId>& args = ar->body[other].lit.args;
              if (std::find(args.begin(), args.end(), v) != args.end()) {
                available = true;
              }
            }
            if (available) mask |= uint64_t{1} << j;
          }
          // Positions sharing a variable share availability, so the
          // mask is automatically a consistent adornment.
          StateKey next{occ.lit.pred, mask};
          edges_.push_back(
              StateEdge{state, next, ar->adorned_index, &occ.lit});
          if (seen.insert(next).second) worklist.push_back(next);
        }
      }
    }
  }

  /// A strictly monotone bounded track certifies a cycle (see header).
  bool MonoCertified(const std::vector<const StateEdge*>& cycle) const {
    std::vector<const StateEdge*> rotated = cycle;
    for (size_t r = 0; r < cycle.size(); ++r) {
      if (MonoCertifiedAtPivot(rotated)) return true;
      std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    }
    return false;
  }

  bool MonoCertifiedAtPivot(
      const std::vector<const StateEdge*>& cycle) const {
    ArgumentMapping total(0, 0);
    bool first = true;
    for (const StateEdge* e : cycle) {
      const AdornedRule& ar = adorned_.rules[e->adorned_rule];
      const Rule& rule = program_.rules()[ar.source_rule];
      VariableOrder order(program_, rule);
      ArgumentMapping m =
          ArgumentMapping::Build(program_, rule, order, *e->occ);
      total = first ? m : total.Compose(m);
      first = false;
    }
    if (total.Invalid()) return true;

    const StateEdge* pivot = cycle.front();
    const AdornedRule& par = adorned_.rules[pivot->adorned_rule];
    const Rule& pivot_rule = program_.rules()[par.source_rule];
    VariableOrder order(program_, pivot_rule);
    for (uint32_t i = 0; i < total.head_arity() && i < total.occ_arity();
         ++i) {
      uint8_t bits = total.rel(i, i);
      if (!(bits & (kRelGt | kRelLt))) continue;
      // A bound pivot position: the monotone chain passes the target
      // and can never return.
      if (par.adornment.IsBound(i)) return true;
      TermId head_var = pivot_rule.head.args[i];
      TermId occ_var = pivot->occ->args[i];
      if ((bits & kRelLt) && (order.BoundedBelow(head_var) ||
                              order.BoundedBelow(occ_var))) {
        return true;
      }
      if ((bits & kRelGt) && (order.BoundedAbove(head_var) ||
                              order.BoundedAbove(occ_var))) {
        return true;
      }
    }
    return false;
  }

  /// A cycle whose recursion variables all have finite value spaces
  /// reaches its fixpoint in finitely many steps.
  bool ValueCertified(const std::vector<const StateEdge*>& cycle) const {
    for (const StateEdge* e : cycle) {
      for (TermId v : LiteralVariables(program_.terms(), *e->occ)) {
        NodeId n = system_.FindVariable(e->adorned_rule, v);
        if (n == kInvalidNode) return false;
        if (CheckSubsetCondition(system_, n, {}).verdict != Safety::kSafe) {
          return false;
        }
      }
    }
    return true;
  }

  std::vector<std::string> UncertifiedCycles() const {
    static constexpr size_t kMaxCycleLength = 8;
    std::vector<std::string> bad;
    std::map<StateKey, std::vector<const StateEdge*>> out;
    for (const StateEdge& e : edges_) out[e.from].push_back(&e);

    std::vector<const StateEdge*> path;
    std::set<StateKey> on_path;
    std::set<std::string> reported;

    std::function<void(const StateKey&, const StateKey&)> dfs =
        [&](const StateKey& start, const StateKey& at) {
          auto it = out.find(at);
          if (it == out.end()) return;
          for (const StateEdge* e : it->second) {
            if (e->to == start) {
              path.push_back(e);
              if (!MonoCertified(path) && !ValueCertified(path)) {
                std::string desc = StrCat(
                    "recursion cycle through ",
                    JoinMapped(path, " -> ",
                               [&](const StateEdge* se) {
                                 return StrCat(
                                     program_.PredicateName(se->from.first),
                                     "^",
                                     Adornment{se->from.second,
                                               program_
                                                   .predicate(se->from.first)
                                                   .arity}
                                         .ToString());
                               }),
                    " is not provably convergent");
                if (reported.insert(desc).second) bad.push_back(desc);
              }
              path.pop_back();
              continue;
            }
            if (on_path.count(e->to)) continue;
            if (path.size() + 1 >= kMaxCycleLength) continue;
            path.push_back(e);
            on_path.insert(e->to);
            dfs(start, e->to);
            on_path.erase(e->to);
            path.pop_back();
          }
        };

    std::set<StateKey> starts;
    for (const StateEdge& e : edges_) starts.insert(e.from);
    for (const StateKey& s : starts) {
      path.clear();
      on_path.clear();
      on_path.insert(s);
      dfs(s, s);
    }
    return bad;
  }

  const Program& program_;
  const AdornedProgram& adorned_;
  const AndOrSystem& system_;
  const Literal& query_;
  std::vector<char> lfp_;
  std::vector<StateEdge> edges_;
};

}  // namespace

TerminationResult CheckTermination(const SafetyAnalyzer& analyzer,
                                   const Literal& query, Safety safety,
                                   const IntermediateFinitenessResult& fin) {
  return TerminationChecker(analyzer, query).Run(safety, fin);
}

}  // namespace hornsafe
