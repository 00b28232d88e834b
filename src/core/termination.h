#ifndef HORNSAFE_CORE_TERMINATION_H_
#define HORNSAFE_CORE_TERMINATION_H_

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/finiteness.h"
#include "lang/program.h"

namespace hornsafe {

/// Result of the termination analysis (paper, Section 5).
struct TerminationResult {
  /// True iff some computation enumerates all answers to the query and
  /// then stops (the strong definition of termination, not the weaker
  /// [Afrati et al. 86] tree-construction one the paper contrasts).
  bool exists = false;
  /// When false: why (first failing condition or cycle).
  std::vector<std::string> reasons;
};

/// Decides (a sound approximation of) the existence of a terminating
/// computation for `query`, a literal of the analyzer's canonical
/// program (implementation notes: DESIGN.md, D10).
///
/// Termination implies safety and finiteness of intermediate relations
/// (paper, Section 5), so both are prerequisites: the caller passes the
/// query's overall verdict (`AnalyzeQueryLiteral`) and its
/// `CheckFiniteIntermediateResults` outcome, which it has usually
/// computed for its own report already. On top of them, every
/// recursion cycle among the reachable (predicate, adornment) states
/// must be *convergent*:
///
///  * a strictly monotone track position that is constant-bounded on
///    the far side, or bound by the adornment — once a monotone chain
///    passes the bound/target it can never return, so the computation
///    may stop (this is what the paper's `f₂ ⇝ f₁` plus `f₂ > f₁`
///    buys for the bound query of Example 15); or
///  * all recursion variables subset-condition safe — the recursion's
///    value space is finite, so its fixpoint is reached in finitely
///    many steps (Example 4).
TerminationResult CheckTermination(const SafetyAnalyzer& analyzer,
                                   const Literal& query, Safety safety,
                                   const IntermediateFinitenessResult& fin);

}  // namespace hornsafe

#endif  // HORNSAFE_CORE_TERMINATION_H_
