#ifndef HORNSAFE_UTIL_STATS_H_
#define HORNSAFE_UTIL_STATS_H_

// One schema per stats struct (DESIGN.md, D18): a struct of uint64_t
// counters declares, next to itself, the list of its fields — name,
// member pointer, merge rule — as `static std::span<const StatField<S>>
// Fields()`. Every merge and every rendering (JSON, text, parse) is a
// loop over that list, so a counter added to the struct and the list
// shows up identically in `check --stats`, `check --stats-json`, the
// serve `stats` reply and the fleet worker summary.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/strings.h"

namespace hornsafe {

/// How one counter folds across analyzers, workers and processes:
/// tallies add up, high-water marks keep the larger value.
enum class StatMerge { kSum, kMax };

/// One field of the stats struct `S`: the name every surface renders
/// it under (the C++ member name), the member, and its merge rule.
template <typename S>
struct StatField {
  const char* name;
  uint64_t S::*member;
  StatMerge merge = StatMerge::kSum;
};

/// Schema entries named after the member they point at.
#define HORNSAFE_STAT(S, field) ::hornsafe::StatField<S>{#field, &S::field}
#define HORNSAFE_STAT_MAX(S, field) \
  ::hornsafe::StatField<S>{#field, &S::field, ::hornsafe::StatMerge::kMax}

/// Adds `n` to a counter that other threads bump concurrently: one
/// relaxed atomic add, the only cost on the hot path.
inline void StatAdd(uint64_t& counter, uint64_t n) {
  std::atomic_ref<uint64_t>(counter).fetch_add(n, std::memory_order_relaxed);
}

/// Raises a concurrently updated high-water mark to at least `seen`.
inline void StatRaise(uint64_t& gauge, uint64_t seen) {
  std::atomic_ref<uint64_t> g(gauge);
  uint64_t cur = g.load(std::memory_order_relaxed);
  while (cur < seen &&
         !g.compare_exchange_weak(cur, seen, std::memory_order_relaxed)) {
  }
}

static_assert(std::atomic_ref<uint64_t>::required_alignment <=
                  alignof(uint64_t),
              "stats structs are updated in place through atomic_ref");

/// Folds `from` into `into` field by field under each field's rule.
template <typename S>
void MergeStats(const S& from, S* into) {
  for (const StatField<S>& f : S::Fields()) {
    uint64_t& to = into->*f.member;
    to = f.merge == StatMerge::kSum ? to + from.*f.member
                                    : std::max(to, from.*f.member);
  }
}

/// `MergeStats` into a live struct that other threads update through
/// `StatAdd` / `StatRaise` at the same time.
template <typename S>
void MergeStatsAtomic(const S& from, S* live) {
  for (const StatField<S>& f : S::Fields()) {
    if (f.merge == StatMerge::kSum) {
      StatAdd(live->*f.member, from.*f.member);
    } else {
      StatRaise(live->*f.member, from.*f.member);
    }
  }
}

/// A copy of a live struct, each field read with one relaxed atomic
/// load: every field is exact, but a concurrent reader may see fields
/// from slightly different instants (they are independent tallies).
template <typename S>
S LoadStats(S& live) {
  S out;
  for (const StatField<S>& f : S::Fields()) {
    out.*f.member = std::atomic_ref<uint64_t>(live.*f.member)
                        .load(std::memory_order_relaxed);
  }
  return out;
}

/// The schema's field names, in rendering order.
template <typename S>
std::vector<std::string> StatNames() {
  std::vector<std::string> names;
  for (const StatField<S>& f : S::Fields()) names.emplace_back(f.name);
  return names;
}

/// One JSON object with one number per field, keyed by field name.
template <typename S>
Json StatsToJson(const S& s) {
  Json out = Json::Object();
  for (const StatField<S>& f : S::Fields()) out.Set(f.name, s.*f.member);
  return out;
}

/// Inverse of `StatsToJson`; absent or non-numeric fields read as 0.
template <typename S>
S StatsFromJson(const Json& j) {
  S out;
  for (const StatField<S>& f : S::Fields()) {
    out.*f.member = static_cast<uint64_t>(j[f.name].AsNumber());
  }
  return out;
}

/// One "  name: value" line per field.
template <typename S>
std::string StatsToText(const S& s) {
  std::string out;
  for (const StatField<S>& f : S::Fields()) {
    out += StrCat("  ", f.name, ": ", s.*f.member, "\n");
  }
  return out;
}

}  // namespace hornsafe

#endif  // HORNSAFE_UTIL_STATS_H_
