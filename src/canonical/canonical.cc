#include "canonical/canonical.h"

#include <algorithm>
#include <cctype>
#include <numeric>

#include "util/strings.h"

namespace hornsafe {

namespace {

/// Builds a predicate-name-friendly spelling of a constant: "5" -> "5",
/// "-3" -> "m3", "adam" -> "adam", "[]" -> "nil", other punctuation
/// becomes '_'.
std::string SanitizeConstantName(const Program& p, TermId t) {
  const TermData& d = p.terms().Get(t);
  if (d.kind == TermKind::kInt) {
    int64_t v = d.int_value;
    return v < 0 ? StrCat("m", -v) : std::to_string(v);
  }
  const std::string& name = p.symbols().Name(d.symbol);
  if (name == TermPool::kNilName) return "nil";
  std::string out;
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out.empty() ? "atom" : out;
}

std::string SanitizeFunctionName(const Program& p, SymbolId sym) {
  const std::string& name = p.symbols().Name(sym);
  if (name == TermPool::kConsName) return "cons";
  std::string out;
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out.empty() ? "fn" : out;
}

class Canonicalizer {
 public:
  Canonicalizer(const Program& input, const CanonicalizeOptions& opts)
      : opts_(opts) {
    result_.program = input;  // transform a copy in place
  }

  Result<CanonicalizationResult> Run() {
    Program& p = result_.program;
    std::vector<Rule> rules = p.TakeRules();
    std::vector<Literal> facts = p.TakeFacts();
    std::vector<Literal> queries = p.TakeQueries();

    // Facts containing function terms become rules (Example 8); once a
    // predicate has any such fact, all its facts convert, keeping the
    // EDB/IDB partition disjoint.
    std::vector<bool> compound_pred(p.num_predicates(), false);
    for (const Literal& f : facts) {
      if (HasFunctionArg(f)) compound_pred[f.pred] = true;
    }
    std::vector<Literal> kept_facts;
    for (Literal& f : facts) {
      if (compound_pred[f.pred]) {
        rules.push_back(Rule{std::move(f), {}});
      } else {
        kept_facts.push_back(std::move(f));
      }
    }
    for (Literal& f : kept_facts) {
      HORNSAFE_RETURN_IF_ERROR(p.AddFact(std::move(f)));
    }

    for (Rule& r : rules) out_rules_.push_back(TransformRule(std::move(r)));

    for (Literal& q : queries) {
      HORNSAFE_RETURN_IF_ERROR(TransformQuery(std::move(q)));
    }

    // Component-major order: a stable sort by each weakly connected
    // predicate component's first rule. Compound-fact rules and query
    // wrappers arrive last and join their component's run; a program
    // whose components are already contiguous keeps its exact order.
    // The And-Or build then splits into one closed span per component
    // (andor/segment.h).
    std::vector<uint32_t> comp =
        RuleComponents(out_rules_, p.num_predicates());
    std::vector<uint32_t> order(out_rules_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) { return comp[a] < comp[b]; });
    for (uint32_t i : order) {
      HORNSAFE_RETURN_IF_ERROR(p.AddRule(std::move(out_rules_[i])));
    }

    HORNSAFE_RETURN_IF_ERROR(p.Validate());
    return std::move(result_);
  }

 private:
  Program& p() { return result_.program; }

  bool HasFunctionArg(const Literal& lit) {
    for (TermId a : lit.args) {
      if (p().terms().IsFunction(a)) return true;
    }
    return false;
  }

  /// Step 1 of Algorithm 1: the guard predicate for a constant, shared
  /// across occurrences, with its singleton fact.
  PredicateId ConstantPredicate(TermId constant) {
    auto it = constant_index_.find(constant);
    if (it != constant_index_.end()) return it->second;
    SymbolId name = p().symbols().InternFresh(
        StrCat("cst_", SanitizeConstantName(p(), constant)));
    PredicateId pred = p().InternPredicate(name, 1);
    Status st = p().AddFact(Literal{pred, {constant}});
    (void)st;  // constants are ground; cannot fail
    constant_index_.emplace(constant, pred);
    result_.constant_preds.emplace(pred, constant);
    return pred;
  }

  /// Step 2 of Algorithm 1: the infinite predicate for a function symbol
  /// of arity k (predicate arity k+1), with its FDs.
  PredicateId FunctionPredicate(SymbolId symbol, uint32_t k) {
    auto key = std::make_pair(symbol, k);
    auto it = function_index_.find(key);
    if (it != function_index_.end()) return it->second;
    SymbolId name = p().symbols().InternFresh(
        StrCat("fn_", SanitizeFunctionName(p(), symbol), "_", k));
    PredicateId pred = p().InternPredicate(name, k + 1);
    Status st = p().DeclareInfinite(pred);
    (void)st;  // fresh predicate; cannot fail
    if (opts_.add_function_fds) {
      st = p().AddFiniteDependency(FiniteDependency{
          pred, AttrSet::AllBelow(k), AttrSet::Single(k)});
    }
    if (opts_.add_constructor_fds) {
      st = p().AddFiniteDependency(FiniteDependency{
          pred, AttrSet::Single(k), AttrSet::AllBelow(k)});
    }
    if (opts_.add_constructor_monos && k > 0) {
      // Subterm ordering: the constructed term strictly contains each
      // argument, and the ordering is well-founded (every term is above
      // the bottom of the size order) — DESIGN.md, D9.
      for (uint32_t i = 0; i < k; ++i) {
        st = p().AddMonotonicity(MonotonicityConstraint{
            pred, MonoKind::kAttrGreaterAttr, k, i, 0});
      }
      for (uint32_t i = 0; i <= k; ++i) {
        st = p().AddMonotonicity(MonotonicityConstraint{
            pred, MonoKind::kAttrGreaterConst, i, 0, 0});
      }
    }
    function_index_.emplace(key, pred);
    result_.function_preds.emplace(pred, symbol);
    return pred;
  }

  TermId FreshVar() {
    return p().terms().MakeVariable(p().symbols().InternFresh("V"));
  }

  /// Rewrites `term` to a variable, appending extraction literals to
  /// `*extra`. Variables pass through; constants and function terms are
  /// replaced per Algorithm 1 (innermost first).
  TermId ExtractTerm(TermId term, std::vector<Literal>* extra) {
    if (p().terms().IsVariable(term)) return term;
    if (p().terms().IsConstant(term)) {
      PredicateId cpred = ConstantPredicate(term);
      TermId v = FreshVar();
      extra->push_back(Literal{cpred, {v}});
      return v;
    }
    // Function term: flatten arguments first, then the application.
    // Copy payload before growing the pool.
    SymbolId symbol = p().terms().Get(term).symbol;
    std::vector<TermId> args = p().terms().Get(term).args;
    std::vector<TermId> flat_args;
    flat_args.reserve(args.size());
    for (TermId a : args) flat_args.push_back(ExtractTerm(a, extra));
    PredicateId fpred =
        FunctionPredicate(symbol, static_cast<uint32_t>(args.size()));
    TermId v = FreshVar();
    flat_args.push_back(v);
    extra->push_back(Literal{fpred, std::move(flat_args)});
    return v;
  }

  Literal TransformLiteral(Literal lit, std::vector<Literal>* extra) {
    for (TermId& a : lit.args) a = ExtractTerm(a, extra);
    return lit;
  }

  Rule TransformRule(Rule rule) {
    std::vector<Literal> extra;
    Rule out;
    out.head = TransformLiteral(std::move(rule.head), &extra);
    for (Literal& b : rule.body) {
      out.body.push_back(TransformLiteral(std::move(b), &extra));
    }
    for (Literal& e : extra) out.body.push_back(std::move(e));
    return out;
  }

  Status TransformQuery(Literal query) {
    // Already canonical: all arguments are distinct variables.
    bool all_distinct_vars = true;
    std::vector<TermId> seen;
    for (TermId a : query.args) {
      if (!p().terms().IsVariable(a) ||
          std::find(seen.begin(), seen.end(), a) != seen.end()) {
        all_distinct_vars = false;
        break;
      }
      seen.push_back(a);
    }
    if (all_distinct_vars) return p().AddQuery(std::move(query));

    // Example 6: wrap in a fresh derived predicate over the distinct
    // variables of the query.
    std::vector<TermId> vars = LiteralVariables(p().terms(), query);
    SymbolId qname = p().symbols().InternFresh("q");
    PredicateId qpred =
        p().InternPredicate(qname, static_cast<uint32_t>(vars.size()));
    Literal qhead{qpred, vars};
    out_rules_.push_back(TransformRule(Rule{qhead, {std::move(query)}}));
    return p().AddQuery(std::move(qhead));
  }

  CanonicalizeOptions opts_;
  CanonicalizationResult result_;
  /// Transformed rules, added to the program in component-major order
  /// once every rule and query wrapper is in.
  std::vector<Rule> out_rules_;
  std::unordered_map<TermId, PredicateId> constant_index_;

  struct PairHash {
    size_t operator()(const std::pair<SymbolId, uint32_t>& k) const {
      return std::hash<uint64_t>{}((uint64_t{k.first} << 32) | k.second);
    }
  };
  std::unordered_map<std::pair<SymbolId, uint32_t>, PredicateId, PairHash>
      function_index_;
};

}  // namespace

Result<CanonicalizationResult> Canonicalize(const Program& input,
                                            const CanonicalizeOptions& opts) {
  return Canonicalizer(input, opts).Run();
}

bool IsCanonical(const Program& program) {
  auto all_vars = [&](const Literal& lit) {
    return std::all_of(lit.args.begin(), lit.args.end(), [&](TermId a) {
      return program.terms().IsVariable(a);
    });
  };
  for (const Rule& r : program.rules()) {
    if (!all_vars(r.head)) return false;
    for (const Literal& b : r.body) {
      if (!all_vars(b)) return false;
    }
  }
  for (const Literal& q : program.queries()) {
    if (!all_vars(q)) return false;
  }
  return true;
}

}  // namespace hornsafe
