#include "andor/system.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "andor/segment.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

TEST(AndOrSystemTest, TerminalsExistOnConstruction) {
  AndOrSystem s;
  EXPECT_NE(s.zero(), s.one());
  EXPECT_EQ(s.node(s.zero()).kind, PropNodeKind::kZero);
  EXPECT_EQ(s.node(s.one()).kind, PropNodeKind::kOne);
  EXPECT_EQ(s.nodes().size(), 2u);
}

TEST(AndOrSystemTest, InterningIsIdempotent) {
  AndOrSystem s;
  NodeId a = s.InternHeadArg(3, 0b10, 1);
  NodeId b = s.InternHeadArg(3, 0b10, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, s.InternHeadArg(3, 0b10, 0));
  EXPECT_NE(a, s.InternHeadArg(3, 0b01, 1));
  EXPECT_NE(a, s.InternHeadArg(4, 0b10, 1));

  NodeId v = s.InternVariable(7, 42);
  EXPECT_EQ(v, s.InternVariable(7, 42));
  EXPECT_NE(v, s.InternVariable(8, 42));
}

TEST(AndOrSystemTest, FindersReturnInvalidWhenAbsent) {
  AndOrSystem s;
  EXPECT_EQ(s.FindHeadArg(1, 0, 0), kInvalidNode);
  EXPECT_EQ(s.FindVariable(0, 0), kInvalidNode);
  NodeId a = s.InternHeadArg(1, 0, 0);
  EXPECT_EQ(s.FindHeadArg(1, 0, 0), a);
}

TEST(AndOrSystemTest, DeleteRuleRemovesFromIndex) {
  AndOrSystem s;
  NodeId h = s.InternHeadArg(1, 0, 0);
  s.AddRule(h, {s.zero()}, 0);
  s.AddRule(h, {s.one()}, 0);
  s.Freeze();
  ASSERT_EQ(s.RulesFor(h).size(), 2u);
  size_t total = s.NumLiveRules();
  uint32_t first = s.RulesFor(h)[0];
  s.DeleteRule(first);
  EXPECT_TRUE(s.rule_deleted(first));
  EXPECT_EQ(s.RulesFor(h).size(), 1u);
  EXPECT_EQ(s.NumLiveRules(), total - 1);
  // Deleting twice is a no-op.
  s.DeleteRule(first);
  EXPECT_EQ(s.NumLiveRules(), total - 1);
}

TEST(AndOrSystemTest, NodeNamesAreDistinctiveAndStable) {
  Program p;
  PredicateId r = p.InternPredicate("r", 2);
  TermId x = p.Var("X");
  AndOrSystem s;
  EXPECT_EQ(s.NodeName(s.zero(), p), "0");
  EXPECT_EQ(s.NodeName(s.one(), p), "1");
  EXPECT_EQ(s.NodeName(s.InternHeadArg(r, 0b01, 1), p), "r^bf.2");
  EXPECT_EQ(s.NodeName(s.InternVariable(3, x), p), "X@3");
  PropNode occ;
  occ.pred = r;
  occ.occurrence = 5;
  occ.adorned_rule = 3;
  occ.kind = PropNodeKind::kBodyArg;
  EXPECT_EQ(s.NodeName(s.AddNode(occ), p), "r#5.1");
  occ.kind = PropNodeKind::kBodyArgAdorned;
  occ.adornment_mask = 0b10;
  EXPECT_EQ(s.NodeName(s.AddNode(occ), p), "r#5^fb.1");
  occ.kind = PropNodeKind::kFdChoice;
  occ.adornment_mask = 0;
  occ.position = 1;
  EXPECT_EQ(s.NodeName(s.AddNode(occ), p), "r#5.2~fd0");
}

/// The AndOrSystem rule contract, modelled as a plain list: AddRule and
/// GraftSegment append (duplicates included), DeleteRule marks, and
/// RulesFor is every live rule of a head in rule-id order.
struct RuleModel {
  struct Rule {
    NodeId head;
    std::vector<NodeId> body;
    uint32_t source;
    bool deleted;
  };
  std::vector<Rule> rules;

  std::vector<uint32_t> RulesFor(NodeId n) const {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < rules.size(); ++i) {
      if (rules[i].head == n && !rules[i].deleted) out.push_back(i);
    }
    return out;
  }

  size_t NumLive() const {
    size_t n = 0;
    for (const Rule& r : rules) n += r.deleted ? 0 : 1;
    return n;
  }

  std::string ToString(const AndOrSystem& s, const Program& p) const {
    std::string out;
    for (const Rule& r : rules) {
      if (r.deleted) continue;
      out += StrCat(s.NodeName(r.head, p), " <- ",
                    JoinMapped(r.body, ", ",
                               [&](NodeId b) { return s.NodeName(b, p); }),
                    "\n");
    }
    return out;
  }
};

/// Compares the rule store with the model; the index (RulesFor) only
/// when `frozen`.
void ExpectMatchesModel(const AndOrSystem& s, const RuleModel& model,
                        const Program& p, bool frozen) {
  ASSERT_EQ(s.num_rules(), model.rules.size());
  for (uint32_t i = 0; i < model.rules.size(); ++i) {
    const PropRule r = s.rule(i);
    const RuleModel::Rule& m = model.rules[i];
    ASSERT_EQ(r.head, m.head) << "rule " << i;
    ASSERT_EQ(std::vector<NodeId>(r.body.begin(), r.body.end()), m.body)
        << "rule " << i;
    ASSERT_EQ(r.source_adorned_rule, m.source) << "rule " << i;
    ASSERT_EQ(s.rule_deleted(i), m.deleted) << "rule " << i;
  }
  ASSERT_EQ(s.NumLiveRules(), model.NumLive());
  ASSERT_EQ(s.ToString(p), model.ToString(s, p));
  if (!frozen) return;
  for (NodeId n = 0; n < s.nodes().size(); ++n) {
    const std::span<const uint32_t> live = s.RulesFor(n);
    ASSERT_EQ(std::vector<uint32_t>(live.begin(), live.end()),
              model.RulesFor(n))
        << "node " << n;
  }
}

TEST(AndOrSystemTest, RuleIndexMatchesAppendOnlyModel) {
  Program p;
  const PredicateId r = p.InternPredicate("r", 3);
  const PredicateId q = p.InternPredicate("q", 2);
  const TermId vars[] = {p.Var("X"), p.Var("Y"), p.Var("Z")};

  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    AndOrSystem s;
    RuleModel model;
    std::vector<NodeId> pool;
    for (uint64_t mask = 0; mask < 8; ++mask) {
      for (uint32_t k = 0; k < 3; ++k) {
        pool.push_back(s.InternHeadArg(r, mask, k));
      }
    }
    for (uint32_t ar = 0; ar < 12; ++ar) {
      for (TermId v : vars) pool.push_back(s.InternVariable(ar, v));
      PropNode occ;
      occ.kind = PropNodeKind::kBodyArg;
      occ.pred = r;
      occ.occurrence = ar;
      occ.adorned_rule = ar;
      occ.is_f_node = (ar & 1) != 0;
      pool.push_back(s.AddNode(occ));
    }

    // A few "hot" heads receive many rules each; bodies range from
    // empty through terminal-only to long; some adds repeat an earlier
    // rule exactly, and the repeat is kept.
    auto random_rule = [&](NodeId* head, std::vector<NodeId>* body) {
      *head = rng.Chance(1, 3) ? pool[rng.Below(4)]
                               : pool[rng.Below(pool.size())];
      body->clear();
      switch (rng.Below(6)) {
        case 0:
          break;
        case 1:
          body->push_back(rng.Chance(1, 2) ? s.zero() : s.one());
          break;
        case 2: {
          const size_t len = 8 + rng.Below(40);
          for (size_t i = 0; i < len; ++i) {
            body->push_back(pool[rng.Below(pool.size())]);
          }
          break;
        }
        default: {
          const size_t len = 1 + rng.Below(4);
          for (size_t i = 0; i < len; ++i) {
            body->push_back(rng.Chance(1, 10) ? s.one()
                                              : pool[rng.Below(8)]);
          }
          break;
        }
      }
    };
    auto delete_some = [&](int count) {
      for (int i = 0; i < count && !model.rules.empty(); ++i) {
        const uint32_t victim =
            static_cast<uint32_t>(rng.Below(model.rules.size()));
        s.DeleteRule(victim);  // a repeat delete is a no-op
        model.rules[victim].deleted = true;
      }
    };
    auto add_stream = [&](int count) {
      NodeId head;
      std::vector<NodeId> body;
      for (int i = 0; i < count; ++i) {
        if (!model.rules.empty() && rng.Chance(1, 5)) {
          const RuleModel::Rule& old =
              model.rules[rng.Below(model.rules.size())];
          head = old.head;
          body = old.body;
        } else {
          random_rule(&head, &body);
        }
        const uint32_t source = static_cast<uint32_t>(rng.Below(12));
        s.AddRule(head, body, source);
        model.rules.push_back({head, body, source, false});
        if (rng.Chance(1, 50)) delete_some(1);
      }
    };
    // Deletes before Freeze only mark; Freeze leaves them out of the
    // index. Deletes after Freeze erase from the head's slice, which
    // hot heads make long.
    add_stream(2000 + static_cast<int>(rng.Below(2000)));
    ExpectMatchesModel(s, model, p, false);
    if (HasFatalFailure()) return;
    s.Freeze();
    ExpectMatchesModel(s, model, p, true);
    if (HasFatalFailure()) return;
    delete_some(200);
    ExpectMatchesModel(s, model, p, true);
    if (HasFatalFailure()) return;

    // Graft a segment of fresh nodes whose rules include exact
    // duplicates of each other and deleted bits, then refreeze.
    AdornedProgram adorned;
    adorned.rules.resize(1);
    const std::vector<PredicateId> pred_of_slot{q};
    NodeTableSegment seg;
    seg.num_pred_slots = 1;
    seg.num_adorned_rules = 1;
    seg.num_occurrences = 4;
    for (uint32_t i = 0; i < 8; ++i) {
      SegmentNode sn;
      sn.kind = i < 4 ? PropNodeKind::kHeadArg : PropNodeKind::kBodyArg;
      sn.pred_slot = 0;
      sn.adornment_mask = i % 4;
      sn.position = i % 2;
      sn.occ_delta = i % 4;
      seg.nodes.push_back(sn);
    }
    for (int i = 0; i < 40; ++i) {
      SegmentRule sr;
      sr.head = 2 + static_cast<uint32_t>(rng.Below(8));
      const size_t len = rng.Below(4);
      for (size_t k = 0; k < len; ++k) {
        sr.body.push_back(static_cast<uint32_t>(rng.Below(10)));
      }
      sr.deleted = rng.Chance(1, 6);
      seg.rules.push_back(sr);
      if (rng.Chance(1, 4)) seg.rules.push_back(sr);
    }
    SegmentGraftContext ctx;
    ctx.adorned = &adorned;
    ctx.ar_count = 1;
    ctx.occ_base = 1000;
    ctx.occ_count = 4;
    ctx.pred_of_slot = &pred_of_slot;
    const NodeId base = static_cast<NodeId>(s.nodes().size());
    ASSERT_TRUE(s.GraftSegment(seg, ctx));
    auto decode = [&](uint32_t ref) -> NodeId {
      return ref < 2 ? ref : base + ref - 2;
    };
    for (const SegmentRule& sr : seg.rules) {
      RuleModel::Rule m{decode(sr.head), {}, 0, sr.deleted};
      for (uint32_t ref : sr.body) m.body.push_back(decode(ref));
      model.rules.push_back(m);
    }
    ExpectMatchesModel(s, model, p, false);
    if (HasFatalFailure()) return;
    s.Freeze();
    ExpectMatchesModel(s, model, p, true);
    if (HasFatalFailure()) return;

    for (NodeId n = base; n < s.nodes().size(); ++n) pool.push_back(n);
    add_stream(1000);
    s.Freeze();
    delete_some(100);
    ExpectMatchesModel(s, model, p, true);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hornsafe
