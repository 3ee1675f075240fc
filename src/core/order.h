// The structural total order on extended sets.
//
// Canonical form requires *some* deterministic total order on values so that
// a set's membership list can be sorted independently of construction order.
// The order implemented here is structural (it depends only on the value, not
// on interning history), so printed output and serialized bytes are stable
// across runs:
//
//   rank:  int < symbol < string < set
//   ints by value; symbols/strings lexicographically;
//   sets first by cardinality, then lexicographically by their sorted
//   ⟨element, scope⟩ membership lists (element compared before scope).

#pragma once

#include <span>
#include <vector>

#include "src/core/xset.h"

namespace xst {

/// \brief Three-way structural comparison: <0, 0, >0 like strcmp.
int Compare(const XSet& a, const XSet& b);

/// \brief Three-way comparison of memberships: element first, then scope.
int CompareMembership(const Membership& a, const Membership& b);

/// \brief True iff `members` is in canonical form: strictly ascending under
/// CompareMembership (which implies no duplicates). Every producer feeding
/// XSet::FromSortedMembers must satisfy this; pair the call with
/// `XST_DCHECK(IsCanonicalMemberList(...))` (enforced by tools/xst_lint.py).
bool IsCanonicalMemberList(std::span<const Membership> members);

/// \brief Puts v[from..) in canonical form in place: sort under
/// CompareMembership, then drop duplicates. The one sort+dedup every
/// producer uses (XSet::FromMembers, the span kernels, the relative
/// product's key projections). Already-ordered input costs one linear scan;
/// tails of 8k members or more sort on the global thread pool.
void CanonicalizeMembers(std::vector<Membership>* v, size_t from = 0);

/// \brief Structural strict-less (usable as a std comparator).
inline bool Less(const XSet& a, const XSet& b) { return Compare(a, b) < 0; }

/// \brief Strict-less functor for ordered containers of XSet.
struct XSetLess {
  bool operator()(const XSet& a, const XSet& b) const { return Less(a, b); }
};

}  // namespace xst
