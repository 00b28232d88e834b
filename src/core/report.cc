#include "core/report.h"

#include "constraints/consistency.h"
#include "core/finiteness.h"
#include "core/termination.h"
#include "fd/derived.h"
#include "util/strings.h"

namespace hornsafe {

namespace {

char VerdictChar(Safety s) {
  switch (s) {
    case Safety::kSafe:
      return 's';
    case Safety::kUnsafe:
      return 'U';
    case Safety::kUndecided:
      return '?';
  }
  return '?';
}

}  // namespace

std::string GenerateReport(SafetyAnalyzer& analyzer,
                           const ReportOptions& options) {
  const Program& p = analyzer.canonical();
  std::string out = "=== hornsafe analysis report ===\n\n";

  // --- Inventory ---------------------------------------------------------
  out += "-- predicates --\n";
  for (PredicateId id = 0; id < p.num_predicates(); ++id) {
    const PredicateInfo& info = p.predicate(id);
    out += StrCat("  ", p.PredicateName(id), "/", info.arity, ": ",
                  PredicateKindName(info.kind));
    if (info.kind == PredicateKind::kDerived) {
      out += StrCat(" (", p.RulesFor(id).size(), " rules)");
    }
    out += "\n";
  }

  if (!p.fds().empty()) {
    out += "\n-- finiteness dependencies --\n";
    for (const FiniteDependency& fd : p.fds()) {
      out += StrCat("  ", p.PredicateName(fd.pred), ": ",
                    fd.lhs.ToString(), " -> ", fd.rhs.ToString(), "\n");
    }
  }
  if (!p.monos().empty()) {
    out += "\n-- monotonicity constraints --\n";
    for (const MonotonicityConstraint& mc : p.monos()) {
      out += StrCat("  ", p.PredicateName(mc.pred), ": ", mc.lhs_attr + 1);
      switch (mc.kind) {
        case MonoKind::kAttrGreaterAttr:
          out += StrCat(" > ", mc.rhs_attr + 1);
          break;
        case MonoKind::kAttrGreaterConst:
          out += StrCat(" > ", mc.bound);
          break;
        case MonoKind::kAttrLessConst:
          out += StrCat(" < ", mc.bound);
          break;
      }
      out += "\n";
    }
  }

  std::vector<ConsistencyWarning> warnings = CheckConstraintConsistency(p);
  if (!warnings.empty()) {
    out += "\n-- constraint warnings --\n";
    for (const ConsistencyWarning& w : warnings) {
      out += StrCat("  ", w.message, "\n");
    }
  }

  std::vector<FiniteDependency> inferred = InferDerivedFds(p);
  if (!inferred.empty()) {
    out += "\n-- inferred dependencies over derived predicates --\n";
    for (const FiniteDependency& fd : inferred) {
      out += StrCat("  ", p.PredicateName(fd.pred), ": ",
                    fd.lhs.ToString(), " -> ", fd.rhs.ToString(), "\n");
    }
  }

  // --- Pipeline ----------------------------------------------------------
  const SafetyAnalyzer::Stats& s = analyzer.stats();
  out += StrCat("\n-- pipeline --\n",
                "  canonical rules:      ", s.canonical_rules, "\n",
                "  adorned rules (H*):   ", s.adorned_rules, "\n",
                "  And-Or nodes:         ", s.nodes, "\n",
                "  And-Or rules:         ", s.rules_total, " (",
                s.rules_pruned_emptiness, " pruned by Algorithm 3, ",
                s.rules_pruned_reduction, " by Algorithm 4, ",
                s.rules_live, " live)\n");

  // --- Queries -----------------------------------------------------------
  std::vector<Literal> queries = p.queries();
  if (!queries.empty()) {
    out += "\n-- queries --\n";
    for (const Literal& q : queries) {
      QueryAnalysis analysis = analyzer.AnalyzeQueryLiteral(q);
      out += StrCat("  ?- ", p.ToString(q), ".\n    safety: ",
                    SafetyName(analysis.overall));
      out += " [";
      for (const ArgumentVerdict& a : analysis.args) {
        out += VerdictChar(a.safety);
      }
      out += "]\n";
      if (options.include_section5) {
        IntermediateFinitenessResult fin = CheckFiniteIntermediateResults(
            p, analyzer.adorned(), analyzer.system(), q);
        TerminationResult term =
            CheckTermination(analyzer, q, analysis.overall, fin);
        out += StrCat("    finite intermediate results: ",
                      fin.exists ? "yes" : "no", "\n");
        out += StrCat("    terminating computation:     ",
                      term.exists ? "yes" : "no", "\n");
      }
    }
  }

  // --- Adornment matrices -------------------------------------------------
  if (options.include_adornment_matrix) {
    out += "\n-- safety by adornment (derived predicates) --\n";
    for (PredicateId id = 0; id < p.num_predicates(); ++id) {
      if (!p.IsDerived(id)) continue;
      uint32_t arity = p.predicate(id).arity;
      out += StrCat("  ", p.PredicateName(id), "/", arity, ":");
      if (arity > options.max_matrix_arity) {
        QueryAnalysis free = analyzer.AnalyzePredicate(id, 0);
        out += StrCat(" (arity above matrix limit) all-free: ",
                      SafetyName(free.overall), "\n");
        continue;
      }
      out += "\n";
      for (uint64_t mask = 0; mask < (uint64_t{1} << arity); ++mask) {
        QueryAnalysis qa = analyzer.AnalyzePredicate(id, mask);
        std::string adornment;
        for (uint32_t k = 0; k < arity; ++k) {
          adornment += ((mask >> k) & 1) ? 'b' : 'f';
        }
        out += StrCat("    ", adornment.empty() ? "()" : adornment, " ",
                      SafetyName(qa.overall), " [");
        for (const ArgumentVerdict& a : qa.args) {
          out += VerdictChar(a.safety);
        }
        out += "]\n";
      }
    }
  }
  return out;
}

}  // namespace hornsafe
