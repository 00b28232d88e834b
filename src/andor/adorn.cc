#include "andor/adorn.h"

#include <algorithm>

#include "util/strings.h"

namespace hornsafe {

std::string Adornment::ToString() const {
  std::string s;
  for (uint32_t k = 0; k < arity; ++k) s += IsBound(k) ? 'b' : 'f';
  return s;
}

namespace {

/// Positions holding the same variable get the same group index, in
/// first-occurrence order. This pattern fully determines the consistent
/// adornments of the literal.
std::vector<uint32_t> GroupPattern(const Literal& lit) {
  std::vector<TermId> distinct;
  std::vector<uint32_t> group_of(lit.args.size());
  for (size_t k = 0; k < lit.args.size(); ++k) {
    TermId v = lit.args[k];
    auto it = std::find(distinct.begin(), distinct.end(), v);
    if (it == distinct.end()) {
      group_of[k] = static_cast<uint32_t>(distinct.size());
      distinct.push_back(v);
    } else {
      group_of[k] = static_cast<uint32_t>(it - distinct.begin());
    }
  }
  return group_of;
}

std::vector<Adornment> AdornmentsForPattern(
    const std::vector<uint32_t>& group_of) {
  uint64_t groups = 0;
  for (uint32_t g : group_of) groups = std::max<uint64_t>(groups, g + 1);
  std::vector<Adornment> out;
  out.reserve(size_t{1} << groups);
  for (uint64_t choice = 0; choice < (uint64_t{1} << groups); ++choice) {
    Adornment a;
    a.arity = static_cast<uint32_t>(group_of.size());
    for (size_t k = 0; k < group_of.size(); ++k) {
      if ((choice >> group_of[k]) & 1) a.bound_mask |= uint64_t{1} << k;
    }
    out.push_back(a);
  }
  return out;
}

}  // namespace

std::vector<Adornment> ConsistentAdornments(const TermPool& pool,
                                            const Literal& lit) {
  (void)pool;
  return AdornmentsForPattern(GroupPattern(lit));
}

const std::vector<Adornment>& AdornmentCache::For(const TermPool& pool,
                                                 const Literal& lit) {
  (void)pool;
  std::vector<uint32_t> pattern = GroupPattern(lit);
  auto it = memo_.find(pattern);
  if (it == memo_.end()) {
    std::vector<Adornment> adornments = AdornmentsForPattern(pattern);
    it = memo_.emplace(std::move(pattern), std::move(adornments)).first;
  }
  return it->second;
}

std::vector<uint32_t> AdornedProgram::RulesFor(
    PredicateId pred, const Adornment& adornment) const {
  std::vector<uint32_t> out;
  for (const AdornedRule& r : rules) {
    if (r.head_pred == pred && r.adornment == adornment) {
      out.push_back(r.adorned_index);
    }
  }
  return out;
}

std::string AdornedProgram::ToString(const Program& program) const {
  std::string out;
  auto render_args = [&](const Literal& lit, uint32_t rule_index) {
    if (lit.args.empty()) return std::string();
    return StrCat("(",
                  JoinMapped(lit.args, ",",
                             [&](TermId a) {
                               return StrCat(
                                   program.terms().ToString(
                                       a, program.symbols()),
                                   rule_index);
                             }),
                  ")");
  };
  for (const AdornedRule& ar : rules) {
    out += StrCat(program.PredicateName(ar.head_pred), "^",
                  ar.adornment.ToString(),
                  render_args(ar.head, ar.adorned_index));
    if (!ar.body.empty()) {
      out += " :- ";
      out += JoinMapped(ar.body, ", ", [&](const BodyOccurrence& occ) {
        return StrCat(program.PredicateName(occ.lit.pred), "#",
                      occ.occurrence_id,
                      render_args(occ.lit, ar.adorned_index));
      });
    }
    out += ".\n";
  }
  return out;
}

Result<AdornedProgram> BuildAdornedProgram(const Program& canonical) {
  AdornedProgram out;
  AdornmentCache cache;
  uint32_t next_occurrence = 0;
  for (uint32_t ri = 0; ri < canonical.rules().size(); ++ri) {
    const Rule& rule = canonical.rules()[ri];
    auto check_all_vars = [&](const Literal& lit) {
      return std::all_of(lit.args.begin(), lit.args.end(), [&](TermId a) {
        return canonical.terms().IsVariable(a);
      });
    };
    if (!check_all_vars(rule.head)) {
      return Status::InvalidProgram(
          StrCat("rule ", canonical.ToString(rule),
                 " is not canonical (head has non-variable arguments); run "
                 "Canonicalize first"));
    }
    for (const Literal& b : rule.body) {
      if (!check_all_vars(b)) {
        return Status::InvalidProgram(
            StrCat("rule ", canonical.ToString(rule),
                   " is not canonical (body has non-variable arguments); "
                   "run Canonicalize first"));
      }
    }
    const std::vector<Adornment>& adornments =
        cache.For(canonical.terms(), rule.head);
    for (const Adornment& a : adornments) {
      AdornedRule ar;
      ar.head_pred = rule.head.pred;
      ar.adornment = a;
      ar.head = rule.head;
      ar.source_rule = ri;
      ar.adorned_index = static_cast<uint32_t>(out.rules.size());
      for (const Literal& b : rule.body) {
        BodyOccurrence occ;
        occ.lit = b;
        occ.occurrence_id = next_occurrence++;
        occ.kind = canonical.predicate(b.pred).kind;
        ar.body.push_back(std::move(occ));
      }
      out.rules.push_back(std::move(ar));
    }
  }
  return out;
}

}  // namespace hornsafe
