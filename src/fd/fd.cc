#include "fd/fd.h"

#include <algorithm>
#include <cstddef>

#include "lang/struct_hash.h"

namespace hornsafe {

AttrSet AttrClosure(AttrSet attrs, const std::vector<FiniteDependency>& fds) {
  AttrSet closure = attrs;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FiniteDependency& fd : fds) {
      if (fd.lhs.SubsetOf(closure) && !fd.rhs.SubsetOf(closure)) {
        closure = closure.Union(fd.rhs);
        changed = true;
      }
    }
  }
  return closure;
}

bool Implies(const std::vector<FiniteDependency>& fds, AttrSet lhs,
             AttrSet rhs) {
  return rhs.SubsetOf(AttrClosure(lhs, fds));
}

bool IsRedundant(const std::vector<FiniteDependency>& fds, size_t index) {
  std::vector<FiniteDependency> rest;
  rest.reserve(fds.size() - 1);
  for (size_t i = 0; i < fds.size(); ++i) {
    if (i != index) rest.push_back(fds[i]);
  }
  return Implies(rest, fds[index].lhs, fds[index].rhs);
}

std::vector<FiniteDependency> MinimalCover(std::vector<FiniteDependency> fds) {
  // 1. Split right-hand sides into single attributes.
  std::vector<FiniteDependency> split;
  for (const FiniteDependency& fd : fds) {
    for (uint32_t a : fd.rhs.ToVector()) {
      split.push_back(FiniteDependency{fd.pred, fd.lhs, AttrSet::Single(a)});
    }
  }
  // 2. Remove extraneous left-hand-side attributes.
  for (FiniteDependency& fd : split) {
    for (uint32_t a : fd.lhs.ToVector()) {
      AttrSet smaller = fd.lhs;
      smaller.Remove(a);
      if (Implies(split, smaller, fd.rhs)) fd.lhs = smaller;
    }
  }
  // 3. Remove redundant dependencies (re-checking after each removal).
  for (size_t i = 0; i < split.size();) {
    if (IsRedundant(split, i)) {
      split.erase(split.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  // 4. Drop trivial dependencies (rhs ⊆ lhs).
  split.erase(std::remove_if(split.begin(), split.end(),
                             [](const FiniteDependency& fd) {
                               return fd.rhs.SubsetOf(fd.lhs);
                             }),
              split.end());
  return split;
}

namespace {

/// Shared body of MinimalDeterminants: candidates are enumerated in
/// increasing cardinality (Gosper's hack within each level), so a
/// candidate that contains an already-found determinant is dominated
/// and skipped before its closure is ever computed, and every
/// surviving hit is minimal by construction — no superset cleanup
/// pass. `closure` abstracts over the plain and the memoized closure.
template <typename ClosureFn>
std::vector<AttrSet> MinimalDeterminantsWith(uint32_t arity, uint32_t attr,
                                             ClosureFn&& closure) {
  std::vector<AttrSet> minimal;
  AttrSet others = AttrSet::AllBelow(arity);
  others.Remove(attr);
  std::vector<uint32_t> other_list = others.ToVector();
  const size_t n = other_list.size();
  for (size_t card = 0; card <= n; ++card) {
    if (card == 0) {
      if (closure(AttrSet()).Contains(attr)) {
        // The empty set determines attr: it dominates everything.
        return {AttrSet()};
      }
      continue;
    }
    uint64_t mask = (uint64_t{1} << card) - 1;
    const uint64_t limit = uint64_t{1} << n;
    while (mask < limit) {
      AttrSet candidate;
      for (uint64_t b = mask; b != 0; b &= b - 1) {
        candidate.Add(other_list[__builtin_ctzll(b)]);
      }
      bool dominated = false;
      for (const AttrSet& m : minimal) {
        if (m.SubsetOf(candidate)) {
          dominated = true;
          break;
        }
      }
      if (!dominated && closure(candidate).Contains(attr)) {
        minimal.push_back(candidate);
      }
      // Gosper's hack: next n-bit mask with the same popcount.
      uint64_t c = mask & (~mask + 1);
      uint64_t r = mask + c;
      mask = (((r ^ mask) >> 2) / c) | r;
    }
  }
  return minimal;
}

}  // namespace

std::vector<AttrSet> MinimalDeterminants(
    const std::vector<FiniteDependency>& fds, uint32_t arity, uint32_t attr) {
  return MinimalDeterminantsWith(
      arity, attr, [&](AttrSet s) { return AttrClosure(s, fds); });
}

std::vector<AttrSet> DeclaredDeterminants(
    const std::vector<FiniteDependency>& fds, uint32_t attr) {
  std::vector<AttrSet> out;
  for (const FiniteDependency& fd : fds) {
    if (fd.rhs.Contains(attr) && !fd.lhs.Contains(attr)) {
      if (std::find(out.begin(), out.end(), fd.lhs) == out.end()) {
        out.push_back(fd.lhs);
      }
    }
  }
  return out;
}

uint64_t FdSetHash(const std::vector<FiniteDependency>& fds) {
  std::vector<uint64_t> parts;
  parts.reserve(fds.size());
  for (const FiniteDependency& fd : fds) {
    parts.push_back(CombineHash(fd.lhs.bits(), fd.rhs.bits()));
  }
  std::sort(parts.begin(), parts.end());
  uint64_t h = MixHash(0x66647365ULL);  // "fdse"
  for (uint64_t x : parts) h = CombineHash(h, x);
  return h;
}

AttrSet FdClosureIndex::Closure(AttrSet attrs) {
  auto it = closure_memo_.find(attrs.bits());
  if (it != closure_memo_.end()) return it->second;
  AttrSet closure = AttrClosure(attrs, fds_);
  closure_memo_.emplace(attrs.bits(), closure);
  return closure;
}

const std::vector<AttrSet>& FdClosureIndex::Minimal(uint32_t arity,
                                                    uint32_t attr) {
  uint32_t key = attr | (arity << 8) | (1u << 16);
  auto it = det_memo_.find(key);
  if (it == det_memo_.end()) {
    it = det_memo_
             .emplace(key, MinimalDeterminantsWith(
                               arity, attr,
                               [this](AttrSet s) { return Closure(s); }))
             .first;
  }
  return it->second;
}

const std::vector<AttrSet>& FdClosureIndex::Declared(uint32_t attr) {
  uint32_t key = attr;
  auto it = det_memo_.find(key);
  if (it == det_memo_.end()) {
    it = det_memo_.emplace(key, DeclaredDeterminants(fds_, attr)).first;
  }
  return it->second;
}

bool FdClosureIndex::Redundant(size_t index) {
  if (redundant_memo_.size() < fds_.size()) {
    redundant_memo_.resize(fds_.size(), -1);
  }
  int8_t& slot = redundant_memo_[index];
  if (slot < 0) slot = IsRedundant(fds_, index) ? 1 : 0;
  return slot == 1;
}

}  // namespace hornsafe
