// Tests for Algorithm 2 (And-Or_H construction), including a
// step-by-step check of Example 10 of the paper.

#include "andor/build.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tests/andor/andor_test_util.h"

namespace hornsafe {
namespace {

// Finds a node by its rendered name, or kInvalidNode.
NodeId FindByName(const TestPipeline& pl, const std::string& name) {
  for (NodeId n = 0; n < pl.system.nodes().size(); ++n) {
    if (pl.system.NodeName(n, pl.program) == name) return n;
  }
  return kInvalidNode;
}

// True iff a live rule `head <- {body}` exists (body order-sensitive).
bool HasRule(const TestPipeline& pl, const std::string& head,
             const std::vector<std::string>& body) {
  NodeId h = FindByName(pl, head);
  if (h == kInvalidNode) return false;
  for (uint32_t ri : pl.system.RulesFor(h)) {
    const PropRule& r = pl.system.rule(ri);
    if (r.body.size() != body.size()) continue;
    bool match = true;
    for (size_t i = 0; i < body.size(); ++i) {
      if (pl.system.NodeName(r.body[i], pl.program) != body[i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

PipelineOptions NoPruning() {
  PipelineOptions p;
  p.apply_emptiness = false;
  p.apply_reduce = false;
  return p;
}

class Example10Test : public ::testing::Test {
 protected:
  // Example 9/10 of the paper, with the FD f2,f3 -> f1.
  void SetUp() override {
    pl_ = MakePipeline(R"(
      .infinite f/3.
      .fd f: 2 3 -> 1.
      r(X,Y) :- f(X,U,V), r(U,V), b(U,Y).
      r(X,Y) :- b(X,Y).
    )",
                       NoPruning());
  }
  TestPipeline pl_;
};

TEST_F(Example10Test, Step1HeadArgumentRules) {
  // Free head positions delegate to the rule's head variables; the
  // all-free adorned recursive rule is adorned rule 0, so its variables
  // render as X@0, Y@0.
  EXPECT_TRUE(HasRule(*&pl_, "r^ff.1", {"X@0"}));
  EXPECT_TRUE(HasRule(*&pl_, "r^ff.2", {"Y@0"}));
  // Bound positions are safe outright. (Adornment bf: position 1 bound.)
  EXPECT_TRUE(HasRule(*&pl_, "r^bf.1", {"0"}));
  EXPECT_TRUE(HasRule(*&pl_, "r^bb.2", {"0"}));
}

TEST_F(Example10Test, Step2VariableRules) {
  // X1 <- f1_1 (X occurs only in the f occurrence, position 1).
  EXPECT_TRUE(HasRule(*&pl_, "X@0", {"f#0.1"}));
  // Y and U occur in the finite base literal b: safe.
  EXPECT_TRUE(HasRule(*&pl_, "Y@0", {"0"}));
  EXPECT_TRUE(HasRule(*&pl_, "U@0", {"0"}));
  // V1 <- f1_3, r1_2.
  EXPECT_TRUE(HasRule(*&pl_, "V@0", {"f#0.3", "r#1.2"}));
}

TEST_F(Example10Test, Step3DerivedOccurrenceRules) {
  // r1_1 <- r1^ff_1, r1^fb_1 (adornments of r with position 1 free).
  EXPECT_TRUE(HasRule(*&pl_, "r#1.1", {"r#1^ff.1", "r#1^fb.1"}));
  // The fb strategy is inapplicable if its bound variable V is unsafe.
  EXPECT_TRUE(HasRule(*&pl_, "r#1^fb.1", {"V@0"}));
  // Every strategy can fail because the callee's head is unsafe.
  EXPECT_TRUE(HasRule(*&pl_, "r#1^fb.1", {"r^fb.1"}));
  EXPECT_TRUE(HasRule(*&pl_, "r#1^ff.1", {"r^ff.1"}));
  // Same for position 2.
  EXPECT_TRUE(HasRule(*&pl_, "r#1.2", {"r#1^ff.2", "r#1^bf.2"}));
  EXPECT_TRUE(HasRule(*&pl_, "r#1^bf.2", {"U@0"}));
  EXPECT_TRUE(HasRule(*&pl_, "r#1^bf.2", {"r^bf.2"}));
}

TEST_F(Example10Test, Step4InfiniteOccurrenceRules) {
  // f1_1 <- f1_1~fd0 (the single FD determining position 1).
  EXPECT_TRUE(HasRule(*&pl_, "f#0.1", {"f#0.1~fd0"}));
  // The FD is inapplicable if either antecedent variable is unsafe.
  EXPECT_TRUE(HasRule(*&pl_, "f#0.1~fd0", {"U@0"}));
  EXPECT_TRUE(HasRule(*&pl_, "f#0.1~fd0", {"V@0"}));
  // Positions 2 and 3 are undetermined: unsafe leaves.
  EXPECT_TRUE(HasRule(*&pl_, "f#0.2", {"1"}));
  EXPECT_TRUE(HasRule(*&pl_, "f#0.3", {"1"}));
}

TEST_F(Example10Test, FNodeMarking) {
  EXPECT_TRUE(pl_.system.node(FindByName(pl_, "f#0.1")).is_f_node);
  EXPECT_TRUE(pl_.system.node(FindByName(pl_, "f#0.1~fd0")).is_f_node);
  EXPECT_FALSE(pl_.system.node(FindByName(pl_, "r#1.1")).is_f_node);
  EXPECT_FALSE(pl_.system.node(FindByName(pl_, "X@0")).is_f_node);
  EXPECT_FALSE(pl_.system.node(FindByName(pl_, "r^ff.1")).is_f_node);
}

TEST(BuildTest, RangeUnrestrictedVariableGetsUnsafeLeaf) {
  TestPipeline pl = MakePipeline("r(X) :- b(Y).", NoPruning());
  EXPECT_TRUE(HasRule(pl, "X@0", {"1"}));
}

TEST(BuildTest, EmptyDeterminantYieldsSafeChoice) {
  // .fd f: none -> 1 means position 1 is finite outright.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: none -> 1.
    r(X) :- f(X,Y).
  )",
                                 NoPruning());
  EXPECT_TRUE(HasRule(pl, "f#0.1~fd0", {"0"}));
  EXPECT_EQ(pl.Check("r", 1, 0), Safety::kSafe);
}

TEST(BuildTest, UseFdClosureFindsTransitiveDeterminants) {
  // Declared FDs: 3 -> 2, 2 -> 1. Position 1 is not *declared*-determined
  // by {3}, but it is under closure.
  const char* text = R"(
    .infinite f/3.
    .fd f: 3 -> 2.
    .fd f: 2 -> 1.
    r(X) :- f(X,Y,Z), a(Z).
    ?- r(X).
  )";
  TestPipeline declared = MakePipeline(text);
  // Declared-only: position 1 is determined by {2}; {2} needs {3}; works
  // transitively through variable nodes, so this is safe even without
  // closure.
  EXPECT_EQ(declared.Check("r", 1, 0), Safety::kSafe);
  PipelineOptions closure;
  closure.use_fd_closure = true;
  TestPipeline closed = MakePipeline(text, closure);
  EXPECT_EQ(closed.Check("r", 1, 0), Safety::kSafe);
}

TEST(BuildTest, DuplicateRulesAreCollapsed) {
  TestPipeline pl = MakePipeline(R"(
    r(X,Y) :- b(X,Y).
  )",
                                 NoPruning());
  // Head-arg bound rules like r^bb.1 <- 0 are generated once even though
  // several steps could emit them.
  NodeId n = FindByName(pl, "r^bb.1");
  ASSERT_NE(n, kInvalidNode);
  EXPECT_EQ(pl.system.RulesFor(n).size(), 1u);
}

TEST(BuildTest, RepeatedVariableInInfiniteLiteral) {
  // f(X,X): both argument nodes exist and X conjoins both.
  TestPipeline pl = MakePipeline(R"(
    .infinite f/2.
    .fd f: 1 -> 2.
    r(X) :- f(X,X).
  )",
                                 NoPruning());
  EXPECT_TRUE(HasRule(pl, "X@0", {"f#0.1", "f#0.2"}));
}

TEST(BuildTest, SystemToStringListsRules) {
  TestPipeline pl = MakePipeline("r(X) :- b(X).", NoPruning());
  std::string s = pl.system.ToString(pl.program);
  EXPECT_NE(s.find("r^f.1 <- X@0"), std::string::npos);
  EXPECT_NE(s.find("X@0 <- 0"), std::string::npos);
}

// The builder records one closed span per component run. Canonicalize
// makes interleaved components contiguous (two spans); built as
// written, without it, components whose rule ranges overlap share one
// run, so the spans still tile the rules and stay closed.
TEST(BuildTest, SpansTileInterleavedComponents) {
  const char* text =
      "a(X) :- b(X).\n"
      "p(X) :- q(X).\n"
      "a(X) :- a(X), c(X).\n";
  TestPipeline pl = MakePipeline(text, NoPruning());
  ASSERT_EQ(pl.system.spans().size(), 2u);
  EXPECT_EQ(pl.system.spans()[0].ar_begin, 0u);
  EXPECT_EQ(pl.system.spans()[1].ar_end, pl.adorned.rules.size());

  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(ComputeComponentPartition(*parsed).components.size(), 1u);
  auto adorned = BuildAdornedProgram(*parsed);
  ASSERT_TRUE(adorned.ok()) << adorned.status().ToString();
  auto system = BuildAndOrSystem(*parsed, *adorned);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_EQ(system->spans().size(), 1u);
  EXPECT_EQ(system->spans()[0].node_end, system->nodes().size());
  EXPECT_EQ(system->spans()[0].rule_end, system->num_rules());
}

// --- Builder output pins ----------------------------------------------

/// One program the builder output is pinned on.
struct BuildInput {
  std::string label;
  std::string text;
};

/// WideHead(2..6), GuardedChain(8), SharedDiamond(6) and every
/// examples/programs/*.hs in name order.
std::vector<BuildInput> PinnedInputs() {
  std::vector<BuildInput> out;
  for (int arity = 2; arity <= 6; ++arity) {
    out.push_back({StrCat("WideHead(", arity, ")"), WideHeadText(arity)});
  }
  out.push_back({"GuardedChain(8)", GuardedChainText(8)});
  out.push_back({"SharedDiamond(6)", SharedDiamondText(6)});
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(HORNSAFE_PROGRAMS_DIR)) {
    if (entry.path().extension() == ".hs") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    out.push_back({path.filename().string(), text.str()});
  }
  return out;
}

/// FNV-1a over the rule listing and then every node name in id order.
uint64_t SystemDigest(const TestPipeline& pl) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  mix(pl.system.ToString(pl.program));
  for (NodeId n = 0; n < pl.system.nodes().size(); ++n) {
    mix(pl.system.NodeName(n, pl.program));
  }
  return h;
}

// Node count, rule count and a digest of every rule and node name of
// the unpruned builder output, recorded from the interning builder
// that deduplicated every rule. Node and rule numbering, names and rule
// order are part of the analysis's observable output (explanations,
// `hornsafe andor`, cached segments), so any change here must be
// deliberate.
TEST(BuildTest, SystemDigestsArePinned) {
  struct Pin {
    const char* label;
    size_t nodes;
    size_t rules;
    uint64_t digest;
  };
  const Pin kPins[] = {
      {"WideHead(2)", 50, 60, 0x129596eec7e4fbd2ULL},
      {"WideHead(3)", 194, 300, 0x99ad210e7ecd7467ULL},
      {"WideHead(4)", 770, 1568, 0x2fcb1dcc5e24153eULL},
      {"WideHead(5)", 3202, 8400, 0x8f289da1deb5c48eULL},
      {"WideHead(6)", 13826, 44736, 0xf899196b8bd6fc60ULL},
      {"GuardedChain(8)", 134, 132, 0xa57b23728c086e59ULL},
      {"SharedDiamond(6)", 316, 321, 0x184ee24bfb5270acULL},
      {"ancestor.hs", 280, 410, 0xd38238e2abe3d3b6ULL},
      {"concat.hs", 474, 650, 0x1f6bcf62f6f65afdULL},
      {"example13.hs", 82, 92, 0x12eab56292ac9a64ULL},
      {"fleet_routes_a.hs", 378, 560, 0x1fff1a8217a8d543ULL},
      {"fleet_routes_b.hs", 372, 552, 0x425fb022cb5123bbULL},
      {"lint_errors.hs", 36, 38, 0xe254fea758cdc086ULL},
      {"lint_showcase.hs", 94, 112, 0x6a2d56617fdc1db3ULL},
      {"unsafe_projection.hs", 8, 6, 0x705615cc8b5b400fULL},
      {"weighted_paths.hs", 236, 354, 0xf48d6286a2d58ea1ULL},
  };
  std::vector<BuildInput> inputs = PinnedInputs();
  size_t pinned = 0;
  for (const BuildInput& in : inputs) {
    TestPipeline pl;
    if (!TryMakePipeline(in.text, NoPruning(), &pl)) continue;
    const Pin* pin = nullptr;
    for (const Pin& p : kPins) {
      if (in.label == p.label) pin = &p;
    }
    ASSERT_NE(pin, nullptr) << "no pin for " << in.label;
    EXPECT_EQ(pl.system.nodes().size(), pin->nodes) << in.label;
    EXPECT_EQ(pl.system.num_rules(), pin->rules) << in.label;
    EXPECT_EQ(SystemDigest(pl), pin->digest) << in.label;
    ++pinned;
  }
  EXPECT_EQ(pinned, std::size(kPins));
}

/// The index of the first rule that repeats an earlier rule exactly
/// (same head, same body sequence), or num_rules() when none does.
size_t FirstDuplicateRule(const AndOrSystem& s) {
  std::set<std::vector<NodeId>> seen;
  for (size_t i = 0; i < s.num_rules(); ++i) {
    const PropRule r = s.rule(i);
    std::vector<NodeId> key{r.head};
    key.insert(key.end(), r.body.begin(), r.body.end());
    if (!seen.insert(std::move(key)).second) return i;
  }
  return s.num_rules();
}

// AndOrSystem::AddRule appends without looking for duplicates; the
// builder is what guarantees that no rule is emitted twice.
TEST(BuildTest, BuilderEmitsNoDuplicateRules) {
  std::vector<BuildInput> inputs = PinnedInputs();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    for (int round = 0; round < 8; ++round) {
      inputs.push_back({StrCat("random seed ", seed, " round ", round),
                        RandomProgramText(&rng, false, false)});
    }
  }
  for (const BuildInput& in : inputs) {
    for (bool closure : {false, true}) {
      PipelineOptions opts = NoPruning();
      opts.use_fd_closure = closure;
      TestPipeline pl;
      if (!TryMakePipeline(in.text, opts, &pl)) continue;
      const size_t dup = FirstDuplicateRule(pl.system);
      EXPECT_EQ(dup, pl.system.num_rules())
          << in.label << (closure ? " (closure)" : "") << ": rule " << dup
          << " repeats an earlier rule:\n"
          << (dup < pl.system.num_rules()
                  ? pl.system.NodeName(pl.system.rule(dup).head, pl.program)
                  : std::string())
          << "\n"
          << in.text;
    }
  }
}

}  // namespace
}  // namespace hornsafe
