#include "lang/program.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "lang/attr_set.h"
#include "util/strings.h"

namespace hornsafe {

const char* PredicateKindName(PredicateKind kind) {
  switch (kind) {
    case PredicateKind::kFiniteBase:
      return "finite";
    case PredicateKind::kInfiniteBase:
      return "infinite";
    case PredicateKind::kDerived:
      return "derived";
  }
  return "unknown";
}

PredicateId Program::InternPredicate(std::string_view name, uint32_t arity) {
  return InternPredicate(symbols_.Intern(name), arity);
}

PredicateId Program::InternPredicate(SymbolId name, uint32_t arity) {
  auto key = std::make_pair(name, arity);
  auto it = predicate_index_.find(key);
  if (it != predicate_index_.end()) return it->second;
  PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back(
      PredicateInfo{name, arity, PredicateKind::kFiniteBase});
  predicate_index_.emplace(key, id);
  return id;
}

PredicateId Program::FindPredicate(std::string_view name,
                                   uint32_t arity) const {
  SymbolId sym = symbols_.Lookup(name);
  if (sym == kInvalidSymbol) return kInvalidPredicate;
  auto it = predicate_index_.find(std::make_pair(sym, arity));
  return it == predicate_index_.end() ? kInvalidPredicate : it->second;
}

void Program::SetPredicateSpan(PredicateId id, SourceSpan span) {
  if (id >= predicates_.size()) return;
  if (!predicates_[id].span.valid()) predicates_[id].span = span;
}

Status Program::DeclareInfinite(PredicateId id) {
  PredicateInfo& info = predicates_[id];
  if (info.kind == PredicateKind::kDerived) {
    return Status::InvalidProgram(
        StrCat("predicate '", PredicateName(id),
               "' is derived and cannot be declared infinite"));
  }
  for (const Literal& f : facts_) {
    if (f.pred == id) {
      return Status::InvalidProgram(
          StrCat("predicate '", PredicateName(id),
                 "' has stored facts and cannot be declared infinite"));
    }
  }
  info.kind = PredicateKind::kInfiniteBase;
  return Status::Ok();
}

Status Program::CheckLiteral(const Literal& lit,
                             std::string_view context) const {
  if (lit.pred >= predicates_.size()) {
    return Status::InvalidProgram(StrCat("unknown predicate id in ", context));
  }
  const PredicateInfo& info = predicates_[lit.pred];
  if (lit.args.size() != info.arity) {
    return Status::InvalidProgram(
        StrCat("arity mismatch in ", context, ": '", PredicateName(lit.pred),
               "' declared with arity ", info.arity, ", used with ",
               lit.args.size()));
  }
  return Status::Ok();
}

Status Program::AddRule(Rule rule) {
  HORNSAFE_RETURN_IF_ERROR(CheckLiteral(rule.head, "rule head"));
  for (const Literal& b : rule.body) {
    HORNSAFE_RETURN_IF_ERROR(CheckLiteral(b, "rule body"));
  }
  PredicateInfo& head = predicates_[rule.head.pred];
  if (head.kind == PredicateKind::kInfiniteBase) {
    return Status::InvalidProgram(
        StrCat("infinite base predicate '", PredicateName(rule.head.pred),
               "' cannot appear in a rule head"));
  }
  head.kind = PredicateKind::kDerived;
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

Status Program::AddFact(Literal fact) {
  HORNSAFE_RETURN_IF_ERROR(CheckLiteral(fact, "fact"));
  const PredicateInfo& info = predicates_[fact.pred];
  if (info.kind != PredicateKind::kFiniteBase) {
    return Status::InvalidProgram(
        StrCat("facts may only be stored in finite base predicates; '",
               PredicateName(fact.pred), "' is ",
               PredicateKindName(info.kind)));
  }
  for (TermId a : fact.args) {
    if (!terms_.IsGround(a)) {
      return Status::InvalidProgram(
          StrCat("fact ", ToString(fact), " is not ground"));
    }
  }
  facts_.push_back(std::move(fact));
  return Status::Ok();
}

Status Program::AddFiniteDependency(FiniteDependency fd) {
  if (fd.pred >= predicates_.size()) {
    return Status::InvalidProgram("finiteness dependency on unknown predicate");
  }
  const PredicateInfo& info = predicates_[fd.pred];
  if (info.kind == PredicateKind::kDerived) {
    return Status::InvalidProgram(
        StrCat("finiteness dependencies are integrity constraints over the "
               "EDB; '",
               PredicateName(fd.pred), "' is derived"));
  }
  AttrSet all = AttrSet::AllBelow(info.arity);
  if (!fd.lhs.SubsetOf(all) || !fd.rhs.SubsetOf(all)) {
    return Status::InvalidProgram(
        StrCat("finiteness dependency ", fd.lhs.ToString(), " -> ",
               fd.rhs.ToString(), " exceeds arity of '",
               PredicateName(fd.pred), "/", info.arity, "'"));
  }
  fds_.push_back(fd);
  return Status::Ok();
}

Status Program::AddMonotonicity(MonotonicityConstraint mc) {
  if (mc.pred >= predicates_.size()) {
    return Status::InvalidProgram("monotonicity constraint on unknown predicate");
  }
  const PredicateInfo& info = predicates_[mc.pred];
  if (info.kind == PredicateKind::kDerived) {
    return Status::InvalidProgram(
        StrCat("monotonicity constraints are integrity constraints over the "
               "EDB; '",
               PredicateName(mc.pred), "' is derived"));
  }
  uint32_t max_attr = mc.lhs_attr;
  if (mc.kind == MonoKind::kAttrGreaterAttr) {
    max_attr = std::max(max_attr, mc.rhs_attr);
    if (mc.lhs_attr == mc.rhs_attr) {
      return Status::InvalidProgram(
          "monotonicity constraint relates an attribute to itself");
    }
  }
  if (max_attr >= info.arity) {
    return Status::InvalidProgram(
        StrCat("monotonicity constraint exceeds arity of '",
               PredicateName(mc.pred), "/", info.arity, "'"));
  }
  monos_.push_back(mc);
  return Status::Ok();
}

Status Program::AddQuery(Literal query) {
  HORNSAFE_RETURN_IF_ERROR(CheckLiteral(query, "query"));
  queries_.push_back(std::move(query));
  return Status::Ok();
}

std::vector<FiniteDependency> Program::FdsFor(PredicateId pred) const {
  std::vector<FiniteDependency> out;
  for (const FiniteDependency& fd : fds_) {
    if (fd.pred == pred) out.push_back(fd);
  }
  return out;
}

std::vector<MonotonicityConstraint> Program::MonosFor(
    PredicateId pred) const {
  std::vector<MonotonicityConstraint> out;
  for (const MonotonicityConstraint& mc : monos_) {
    if (mc.pred == pred) out.push_back(mc);
  }
  return out;
}

std::vector<const Rule*> Program::RulesFor(PredicateId pred) const {
  std::vector<const Rule*> out;
  for (const Rule& r : rules_) {
    if (r.head.pred == pred) out.push_back(&r);
  }
  return out;
}

std::vector<Rule> Program::TakeRules() {
  std::vector<Rule> out = std::move(rules_);
  rules_.clear();
  return out;
}

std::vector<Literal> Program::TakeFacts() {
  std::vector<Literal> out = std::move(facts_);
  facts_.clear();
  return out;
}

std::vector<Literal> Program::TakeQueries() {
  std::vector<Literal> out = std::move(queries_);
  queries_.clear();
  return out;
}

std::vector<FiniteDependency> Program::TakeFds() {
  std::vector<FiniteDependency> out = std::move(fds_);
  fds_.clear();
  return out;
}

std::vector<Diagnostic> Program::ValidateDiagnostics() const {
  std::vector<Diagnostic> out;
  // HS003: the analysis machinery packs argument positions into 64-bit
  // AttrSet masks (attr_set.h asserts the bound, which is UB once
  // NDEBUG strips it) — reject wider predicates here, where user input
  // enters, instead of deep inside the pipeline.
  for (size_t p = 0; p < predicates_.size(); ++p) {
    if (predicates_[p].arity > AttrSet::kMaxAttrs) {
      out.push_back(Diagnostic{
          "HS003", Severity::kError, predicates_[p].span,
          StrCat("predicate '", PredicateName(static_cast<PredicateId>(p)),
                 "' has arity ", predicates_[p].arity, "; at most ",
                 AttrSet::kMaxAttrs, " arguments are supported"),
          ""});
    }
  }
  // HS004: EDB and IDB are disjoint by construction (AddRule flips the
  // kind to derived and AddFact rejects non-finite-base predicates), but
  // facts may have been added before a rule turned the predicate derived.
  // Report each offending predicate once, at the first offending fact.
  std::vector<PredicateId> reported;
  for (const Literal& f : facts_) {
    if (predicates_[f.pred].kind != PredicateKind::kDerived) continue;
    if (std::find(reported.begin(), reported.end(), f.pred) !=
        reported.end()) {
      continue;
    }
    reported.push_back(f.pred);
    out.push_back(Diagnostic{
        "HS004", Severity::kError, f.span,
        StrCat("predicate '", PredicateName(f.pred),
               "' has both stored facts and rules; the EDB and IDB must "
               "be disjoint (paper, Section 1)"),
        ""});
  }
  SortDiagnostics(&out);
  return out;
}

Status Program::Validate() const {
  std::vector<Diagnostic> diags = ValidateDiagnostics();
  if (diags.empty()) return Status::Ok();
  const Diagnostic& first = diags.front();
  if (first.span.valid()) {
    return Status::InvalidProgram(StrCat("line ", first.span.line, ":",
                                         first.span.column, ": ",
                                         first.message));
  }
  return Status::InvalidProgram(first.message);
}

std::string Program::ToString(const Literal& lit) const {
  std::string out = PredicateName(lit.pred);
  if (lit.args.empty()) return out;
  out += "(";
  out += JoinMapped(lit.args, ",",
                    [&](TermId t) { return terms_.ToString(t, symbols_); });
  out += ")";
  return out;
}

std::string Program::ToString(const Rule& rule) const {
  std::string out = ToString(rule.head);
  if (!rule.body.empty()) {
    out += " :- ";
    out += JoinMapped(rule.body, ", ",
                      [&](const Literal& l) { return ToString(l); });
  }
  out += ".";
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (PredicateId p = 0; p < predicates_.size(); ++p) {
    if (predicates_[p].kind == PredicateKind::kInfiniteBase) {
      out += StrCat(".infinite ", PredicateName(p), "/",
                    predicates_[p].arity, ".\n");
    }
  }
  for (const FiniteDependency& fd : fds_) {
    out += StrCat(".fd ", PredicateName(fd.pred), ": ",
                  JoinMapped(fd.lhs.ToVector(), " ",
                             [](uint32_t a) { return std::to_string(a + 1); }),
                  " -> ",
                  JoinMapped(fd.rhs.ToVector(), " ",
                             [](uint32_t a) { return std::to_string(a + 1); }),
                  ".\n");
  }
  for (const MonotonicityConstraint& mc : monos_) {
    out += StrCat(".mono ", PredicateName(mc.pred), ": ", mc.lhs_attr + 1);
    switch (mc.kind) {
      case MonoKind::kAttrGreaterAttr:
        out += StrCat(" > ", mc.rhs_attr + 1);
        break;
      case MonoKind::kAttrGreaterConst:
        out += StrCat(" > const(", mc.bound, ")");
        break;
      case MonoKind::kAttrLessConst:
        out += StrCat(" < const(", mc.bound, ")");
        break;
    }
    out += ".\n";
  }
  for (const Literal& f : facts_) out += ToString(f) + ".\n";
  for (const Rule& r : rules_) out += ToString(r) + "\n";
  for (const Literal& q : queries_) out += "?- " + ToString(q) + ".\n";
  return out;
}

std::vector<TermId> RuleVariables(const TermPool& pool, const Rule& rule) {
  std::vector<TermId> all;
  for (TermId a : rule.head.args) pool.CollectVariables(a, &all);
  for (const Literal& b : rule.body) {
    for (TermId a : b.args) pool.CollectVariables(a, &all);
  }
  std::vector<TermId> out;
  for (TermId v : all) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::vector<TermId> LiteralVariables(const TermPool& pool,
                                     const Literal& lit) {
  std::vector<TermId> all;
  for (TermId a : lit.args) pool.CollectVariables(a, &all);
  std::vector<TermId> out;
  for (TermId v : all) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::vector<uint32_t> RuleComponents(const std::vector<Rule>& rules,
                                     size_t num_predicates) {
  std::vector<uint32_t> parent(num_predicates);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Rule& r : rules) {
    for (const Literal& b : r.body) {
      uint32_t a = find(r.head.pred);
      uint32_t c = find(b.pred);
      if (a != c) parent[c] = a;
    }
  }
  std::vector<uint32_t> id_of_root(num_predicates, UINT32_MAX);
  std::vector<uint32_t> out;
  out.reserve(rules.size());
  uint32_t next = 0;
  for (const Rule& r : rules) {
    uint32_t& id = id_of_root[find(r.head.pred)];
    if (id == UINT32_MAX) id = next++;
    out.push_back(id);
  }
  return out;
}

}  // namespace hornsafe
