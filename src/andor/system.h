#ifndef HORNSAFE_ANDOR_SYSTEM_H_
#define HORNSAFE_ANDOR_SYSTEM_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "andor/adorn.h"
#include "lang/program.h"

namespace hornsafe {

struct NodeTableSegment;

/// How a cached segment's relocatable coordinates resolve against the
/// current build (andor/segment.h): the new adorned program, the
/// component's adorned-rule and occurrence-id runs, and the new
/// predicate id of each component slot.
struct SegmentGraftContext {
  const AdornedProgram* adorned = nullptr;
  uint32_t ar_begin = 0;
  uint32_t ar_count = 0;
  uint32_t occ_base = 0;
  uint32_t occ_count = 0;
  const std::vector<PredicateId>* pred_of_slot = nullptr;
};

/// One component's node/rule span of a built system, recorded by the
/// builder so later stages can prune/analyze per span and seal the
/// spans back into shareable segments. `segment` pins the shared
/// encoding (grafted from the cache, or attached after sealing) for
/// the system's lifetime.
struct SegmentSpan {
  uint32_t node_begin = 0;
  uint32_t node_end = 0;
  uint32_t rule_begin = 0;
  uint32_t rule_end = 0;
  uint32_t ar_begin = 0;
  uint32_t ar_end = 0;
  uint32_t occ_base = 0;
  uint32_t occ_count = 0;
  /// True when the span was appended wholesale from a cached segment
  /// (its prune verdicts and SccSlice replay too); false when it was
  /// built by Algorithm 2 and must be pruned/analyzed/sealed fresh.
  bool grafted = false;
  std::shared_ptr<const NodeTableSegment> segment;
};

/// Index of a propositional node in an `AndOrSystem`.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// The kinds of propositional variables generated by Algorithm 2.
/// Truth value semantics: 1 = "may receive an infinite binding set"
/// (unsafe), 0 = safe.
enum class PropNodeKind : uint8_t {
  /// The constant 0 (safe): a certificate leaf in AND-graphs.
  kZero,
  /// The constant 1 (unsafe leaf), e.g. an undetermined infinite
  /// argument position.
  kOne,
  /// Argument k of adorned head literal p^a — the paper's `p^a_k`.
  kHeadArg,
  /// A variable of one adorned rule — the paper's `X1`, `Y1`, ...
  kVariable,
  /// Argument k of a body literal occurrence — the paper's `r1_2`
  /// (derived occurrences) and `f1_2` (infinite-base occurrences; these
  /// are the paper's *f-nodes*).
  kBodyArg,
  /// Adorned body occurrence argument — the paper's `r1^fb_2`. These are
  /// the nodes whose single "call" child is an adorned head literal.
  kBodyArgAdorned,
  /// One applicable finiteness dependency for an infinite-base occurrence
  /// argument — the paper's `f1_k^i` ("the set of bindings computed by
  /// the i-th FD").
  kFdChoice,
};

/// One propositional node with enough provenance to print explanations.
struct PropNode {
  PropNodeKind kind = PropNodeKind::kZero;
  /// kHeadArg: the head predicate. kBodyArg/kBodyArgAdorned/kFdChoice:
  /// the occurrence's predicate.
  PredicateId pred = kInvalidPredicate;
  /// kHeadArg/kBodyArgAdorned: adornment mask.
  uint64_t adornment_mask = 0;
  /// Argument position (kHeadArg/kBodyArg/kBodyArgAdorned/kFdChoice).
  uint32_t position = 0;
  /// kVariable: the adorned rule the variable is scoped to.
  /// Other kinds: the adorned rule containing the occurrence.
  uint32_t adorned_rule = 0;
  /// kVariable: the variable term id (within the canonical program pool).
  TermId var = kInvalidTerm;
  /// kBodyArg/kBodyArgAdorned/kFdChoice: the unique occurrence id.
  uint32_t occurrence = 0;
  /// kFdChoice: index of the finiteness dependency among the occurrence
  /// argument's determinants.
  uint32_t fd_index = 0;
  /// True for argument nodes of infinite-base occurrences — the paper's
  /// f-nodes (kBodyArg and kFdChoice over infinite predicates).
  bool is_f_node = false;
};

/// One propositional Horn rule `head ← body₁ ∧ ... ∧ bodyₙ` of And-Or_H:
/// "head is unsafe if all body elements are unsafe". A node with several
/// rules is unsafe if *any* of them fires (OR).
///
/// A view: `body` points into the owning system's body arena and stays
/// valid until the next rule is added to that system.
struct PropRule {
  NodeId head = kInvalidNode;
  std::span<const NodeId> body;
  /// Adorned rule this propositional rule was derived from (for
  /// explanations); kInvalidAdornedRule for synthetic rules.
  uint32_t source_adorned_rule = 0;
};

/// Open-addressing intern table mapping 256-bit node keys to NodeIds.
/// Every key carries a nonzero tag word in key[0], so an all-zero slot
/// marks "empty" and the table needs no separate metadata. Linear
/// probing over a power-of-two slot array, grown at ~2/3 load: inserts
/// never allocate per entry, which is what makes segment grafts (and
/// fresh interning) append-cheap — the chained map it replaces paid
/// one heap node per insert.
class NodeKeyMap {
 public:
  using Key = std::array<uint64_t, 4>;

  /// The resident id for `key`, or null if absent.
  const NodeId* Find(const Key& key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key[0] == 0) return nullptr;
      if (s.key == key) return &s.id;
    }
  }

  /// Inserts `key -> id`; a duplicate key keeps the first entry (the
  /// semantics interning relies on).
  void Insert(const Key& key, NodeId id) {
    if ((size_ + 1) * 3 >= slots_.size() * 2) Grow(slots_.size() * 2);
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    while (slots_[i].key[0] != 0) {
      if (slots_[i].key == key) return;
      i = (i + 1) & mask;
    }
    slots_[i].key = key;
    slots_[i].id = id;
    ++size_;
  }

  /// Pre-grows the slot array so `total` entries fit without a rehash.
  void Reserve(size_t total) {
    size_t want = slots_.size();
    while ((total + 1) * 3 >= want * 2) want = want == 0 ? kMinSlots : want * 2;
    if (want > slots_.size()) Grow(want);
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    Key key{};
    NodeId id = 0;
  };
  static constexpr size_t kMinSlots = 64;

  static size_t Hash(const Key& k) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint64_t v : k) {
      h ^= v;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }

  void Grow(size_t want) {
    std::vector<Slot> fresh(want < kMinSlots ? kMinSlots : want);
    const size_t mask = fresh.size() - 1;
    for (const Slot& s : slots_) {
      if (s.key[0] == 0) continue;
      size_t i = Hash(s.key) & mask;
      while (fresh[i].key[0] != 0) i = (i + 1) & mask;
      fresh[i] = s;
    }
    slots_ = std::move(fresh);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// The propositional system And-Or_H produced by Algorithm 2, together
/// with node/rule indexes. The system is append-only while it is built
/// and then frozen (`Freeze`), which lays `RulesFor` out as one CSR
/// array. Rules may then be deleted (marked) by Algorithm 3 and
/// Algorithm 4; deleted rules keep their slot but drop out of
/// `RulesFor`. From SCC onwards the system is read-only, so published
/// snapshots are read concurrently without locks.
class AndOrSystem {
 public:
  AndOrSystem();

  NodeId zero() const { return zero_; }
  NodeId one() const { return one_; }

  const std::vector<PropNode>& nodes() const { return nodes_; }
  const PropNode& node(NodeId id) const { return nodes_[id]; }
  size_t num_rules() const { return rules_.size(); }
  /// Rule `i` as a view into the body arena (see PropRule).
  PropRule rule(size_t i) const {
    const RuleRecord& r = rules_[i];
    return PropRule{r.head,
                    std::span<const NodeId>(body_arena_.data() + r.body_begin,
                                            r.body_size),
                    r.source_adorned_rule};
  }
  bool rule_deleted(size_t i) const { return deleted_[i]; }

  /// Live rules with head `n`, in rule-id order. Precondition: Freeze()
  /// has run since the last AddNode, AddRule or GraftSegment.
  std::span<const uint32_t> RulesFor(NodeId n) const {
    return {head_rules_.data() + head_offset_[n], live_count_[n]};
  }

  /// Total number of live rules.
  size_t NumLiveRules() const { return num_live_; }

  // --- Construction -----------------------------------------------------

  NodeId AddNode(PropNode node);
  /// Appends `head ← body`. Nothing is deduplicated: a caller that adds
  /// the same rule twice gets it twice. `body` is copied into the arena
  /// and must not point into this system's own rule storage.
  void AddRule(NodeId head, std::span<const NodeId> body,
               uint32_t source_adorned_rule);
  void AddRule(NodeId head, std::initializer_list<NodeId> body,
               uint32_t source_adorned_rule) {
    AddRule(head, std::span<const NodeId>(body.begin(), body.size()),
            source_adorned_rule);
  }

  /// Lays `RulesFor` out as CSR over the live rules, in rule-id order.
  /// BuildAndOrSystem calls it once, after the last graft; systems
  /// assembled by hand call it before reading `RulesFor`. It is never
  /// run lazily from a const accessor: workers read published
  /// snapshots concurrently.
  void Freeze();

  /// Marks rule `i` deleted (Algorithm 3 / Algorithm 4). On a frozen
  /// system the rule is also erased, in order, from its head's CSR
  /// slice, so `RulesFor` stays valid.
  void DeleteRule(size_t i);

  // --- Segment grafting (andor/segment.h) -------------------------------

  /// Appends a cached segment's nodes and rules wholesale, resolving
  /// relocatable coordinates through `ctx`. Validates every index
  /// against the context *before* mutating anything and returns false
  /// (system unchanged) on any mismatch, so a corrupt cache entry
  /// degrades to a fresh build instead of corrupting the table.
  ///
  /// Grafted nodes re-register their head-argument and variable intern
  /// keys (FindHeadArg / FindVariable serve concurrent readers).
  /// Deleted rules keep their slot (bit-identical rule numbering) and
  /// stay out of `RulesFor` once frozen, exactly as after DeleteRule.
  bool GraftSegment(const NodeTableSegment& seg,
                    const SegmentGraftContext& ctx);

  /// Records one component span (builder) / attaches its shared
  /// encoding (analyzer seal step).
  void NoteSpan(SegmentSpan span) { spans_.push_back(std::move(span)); }
  void AttachSegment(size_t span_index,
                     std::shared_ptr<const NodeTableSegment> seg) {
    spans_[span_index].segment = std::move(seg);
  }
  const std::vector<SegmentSpan>& spans() const { return spans_; }

  // --- Node interning helpers -------------------------------------------

  /// Only the keys that are looked up again are interned: head
  /// arguments (shared by every rule with that head adornment and by
  /// every call site) and variables (FindVariable). Occurrence-scoped
  /// nodes — kBodyArg, kBodyArgAdorned, kFdChoice — belong to one
  /// adorned rule, since occurrence ids are unique, and are created
  /// with AddNode.
  NodeId InternHeadArg(PredicateId pred, uint64_t adornment_mask,
                       uint32_t position);
  NodeId InternVariable(uint32_t adorned_rule, TermId var);

  /// Looks up an existing head-argument node (kInvalidNode if absent).
  NodeId FindHeadArg(PredicateId pred, uint64_t adornment_mask,
                     uint32_t position) const;

  /// Looks up an existing variable node (kInvalidNode if absent).
  NodeId FindVariable(uint32_t adorned_rule, TermId var) const;

  /// Human-readable node name, e.g. "r^ff.1", "X@3", "f#2.1",
  /// "r#4^fb.2", "f#2.1~fd0", "0", "1".
  std::string NodeName(NodeId id, const Program& program) const;

  /// Multi-line listing of all live rules (debugging / explanations).
  std::string ToString(const Program& program) const;

 private:
  /// One stored rule: its body is body_arena_[body_begin, +body_size).
  struct RuleRecord {
    NodeId head = kInvalidNode;
    uint32_t body_begin = 0;
    uint32_t body_size = 0;
    uint32_t source_adorned_rule = 0;
  };

  NodeId InternKeyed(const std::array<uint64_t, 4>& key, PropNode node);

  std::vector<PropNode> nodes_;
  std::vector<RuleRecord> rules_;
  /// Every rule body, back to back in rule order.
  std::vector<NodeId> body_arena_;
  std::vector<bool> deleted_;
  size_t num_live_ = 0;
  /// RulesFor as CSR (set by Freeze): node n's live rules are
  /// head_rules_[head_offset_[n], +live_count_[n]). DeleteRule
  /// shortens a slice in place; the tail of a shortened slice is dead.
  std::vector<uint32_t> head_offset_;
  std::vector<uint32_t> live_count_;
  std::vector<uint32_t> head_rules_;
  /// True from Freeze until the next AddNode / AddRule / GraftSegment.
  bool frozen_ = false;
  NodeKeyMap node_index_;
  /// Component spans in node order, one per planned component (empty
  /// for systems assembled by hand, outside BuildAndOrSystem).
  std::vector<SegmentSpan> spans_;
  NodeId zero_;
  NodeId one_;
};

}  // namespace hornsafe

#endif  // HORNSAFE_ANDOR_SYSTEM_H_
