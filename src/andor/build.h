#ifndef HORNSAFE_ANDOR_BUILD_H_
#define HORNSAFE_ANDOR_BUILD_H_

#include <memory>
#include <unordered_map>

#include "andor/adorn.h"
#include "andor/segment.h"
#include "andor/system.h"
#include "fd/fd.h"
#include "lang/program.h"
#include "util/status.h"

namespace hornsafe {

/// Options for Algorithm 2.
struct BuildOptions {
  /// Step 4 determinant source. `false` (paper-faithful): only the
  /// declared finiteness dependencies whose right-hand side covers the
  /// argument. `true`: all minimal determinants under the Armstrong
  /// closure of the declared dependencies — strictly more safety is
  /// detected, at exponential-in-arity cost per occurrence.
  bool use_fd_closure = false;

  /// Pre-closed dependency indexes by predicate id (frozen — see
  /// FdClosureCache). Occurrences of predicates present in the map read
  /// determinants from the shared index instead of deriving them;
  /// absent predicates fall back to a build-local lazy index. May be
  /// null.
  using FdIndexMap =
      std::unordered_map<PredicateId, std::shared_ptr<const FdClosureIndex>>;
  const FdIndexMap* fd_indexes = nullptr;

  /// Per-component segment plan (andor/segment.h). When set the builder
  /// works component by component — grafting cached segments wholesale,
  /// building the rest normally — and records a SegmentSpan per
  /// component in the resulting system. Null disables the segment path
  /// entirely (the system then carries no spans). Precondition: the
  /// plan's components tile the canonical rules [0, num_rules) in order,
  /// as those of a contiguous ComponentPartition of the same program do.
  const SegmentPlan* segments = nullptr;

  /// Graft/reject/sharing tallies of a segment-planned build.
  SegmentBuildStats* segment_stats = nullptr;
};

/// Algorithm 2 of the paper: derives the propositional system And-Or_H
/// from the adorned program H*.
///
/// Per adorned rule `p^a(t) :- q₁(t₁), ..., qₙ(tₙ)`:
///  * Step 1 — head arguments: `p^a_k ← 0` for bound positions,
///    `p^a_k ← X` for free positions holding variable X.
///  * Step 2 — variables: `X ← 0` if X occurs in a finite-base body
///    literal or a bound head position; otherwise `X ← C_X`, the
///    conjunction of every body argument node X occurs in; `X ← 1` if
///    that conjunction is empty (X is range-unrestricted).
///  * Step 3 — derived body occurrences q: for each position k,
///    `q_k ← ⋀ q^a1_k` over the consistent adornments a1 of q with k
///    free, with `q^a1_k ← Y` for every variable Y in a bound position
///    of a1 and `q^a1_k ← l^a1_k` linking to the callee's head node.
///  * Step 4 — infinite-base occurrences f: for each position k with
///    determinants F₁..Fₙ, `f_k ← ⋀ f_k~fdᵢ`, with `f_k~fdᵢ ← Y` for
///    every variable Y in Fᵢ (and `f_k~fdᵢ ← 0` when Fᵢ is empty);
///    `f_k ← 1` when no dependency determines k.
///
/// Truth semantics: 1 = potentially infinite binding set (unsafe).
Result<AndOrSystem> BuildAndOrSystem(const Program& canonical,
                                     const AdornedProgram& adorned,
                                     const BuildOptions& opts = {});

}  // namespace hornsafe

#endif  // HORNSAFE_ANDOR_BUILD_H_
