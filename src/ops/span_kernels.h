// Span-level set-operation kernels: the only implementation of the boolean
// operators, σ-domain, σ-restriction and image, stated over raw canonical
// membership spans without interning the result.
//
// Both engines run these kernels. The bytecode VM (src/xsp/vm.h) chains
// them over a per-execution scratch arena, so a fused restrict∘image∘union
// touches the interner only at its final XSet::FromSortedMembers. The
// interpreter's operators (boolean.h, domain.h, restrict.h, image.h) are
// thin wrappers: members() in, one kernel call, FromSortedMembers out. The
// two engines therefore differ only in fusion and materialization.
//
// The member-wise kernels (DomainSpans, RestrictSpans, ImageSpans) split
// inputs above kSpanGrain members across the global thread pool with
// ParallelCollect; chunk outputs come back in chunk order, so a filter stays
// an ordered subsequence of its input and a single-chunk call writes
// straight into `*out`.
//
// Contract for every kernel:
//   * inputs are canonical membership spans (strictly CompareMembership-
//     ascending, deduplicated) — exactly what XSet::members() hands out;
//   * output is APPENDED to `*out` and the appended tail is canonical;
//     whatever `*out` held before is left untouched (the VM clears arena
//     buffers between executions, capacity retained).

#pragma once

#include <span>
#include <vector>

#include "src/common/hash.h"
#include "src/core/xset.h"
#include "src/ops/image.h"

namespace xst {

/// \brief A borrowed view of a canonical membership list (an interned set's
/// members() or a scratch-arena buffer).
using MemberSpan = std::span<const Membership>;

/// \brief Members per chunk below which a parallel member-wise scan is not
/// worth forking (the per-member work of these kernels is tens of ns).
inline constexpr size_t kSpanGrain = 1024;

/// \brief Hashes a membership by its nodes' precomputed structural hashes —
/// hash-consing makes handle equality exact for structural equality.
struct MembershipHash {
  size_t operator()(const Membership& m) const {
    return static_cast<size_t>(HashCombine(m.element.hash(), m.scope.hash()));
  }
};

/// \brief a ∪ b as a canonical span append (two-pointer merge).
void UnionSpans(MemberSpan a, MemberSpan b, std::vector<Membership>* out);

/// \brief a ∩ b as a canonical span append.
///
/// Adaptive: small inputs take the two-pointer merge; heavily skewed sizes
/// walk the smaller side with a galloping binary search into the larger;
/// comparable large sizes build a pointer-hash set over the smaller side and
/// filter the larger side in order — no structural compares at all on that
/// path.
void IntersectSpans(MemberSpan a, MemberSpan b, std::vector<Membership>* out);

/// \brief a ∼ b as a canonical span append (two-pointer merge).
void DifferenceSpans(MemberSpan a, MemberSpan b, std::vector<Membership>* out);

/// \brief 𝔇_σ(r) (σ-domain, Def 7.4) over a span: re-scopes every member
/// and canonicalizes the appended tail (re-scoping permutes order).
/// Parallel above kSpanGrain members.
void DomainSpans(MemberSpan r, const XSet& sigma, std::vector<Membership>* out);

/// \brief r |_σ probes (σ-restriction, Def 7.6) over spans: an in-order
/// filter of r, so the appended tail is canonical by construction. When
/// every probe re-scopes to one membership with an empty scope-probe (the
/// dominant query shape) a candidate costs one hash lookup per inner
/// membership; otherwise a pair of subset tests per probe. Parallel above
/// kSpanGrain members.
void RestrictSpans(MemberSpan r, const XSet& sigma, MemberSpan probes,
                   std::vector<Membership>* out);

/// \brief {z^w ∈ r : lo ≤ z ≤ hi} — the element-interval range restriction
/// under the structural order — appended to `*out`. Canonical lists ascend
/// element-major (CompareMembership compares elements first), so the
/// matching members are one contiguous slice located by binary search:
/// O(log |r| + |result|), never a full scan.
void ElementRangeSpans(MemberSpan r, const XSet& lo, const XSet& hi,
                       std::vector<Membership>* out);

/// \brief r[probes]_σ (image, Def 7.7) as ONE fused loop: each member of r
/// is filtered against the probes and — when kept — immediately re-scope-
/// projected by σ₂, with a single canonicalization of the appended tail.
/// Equivalent to DomainSpans over RestrictSpans' output, but with no
/// intermediate list, let alone an interned intermediate set. Parallel above
/// kSpanGrain members.
void ImageSpans(MemberSpan r, const Sigma& sigma, MemberSpan probes,
                std::vector<Membership>* out);

}  // namespace xst
