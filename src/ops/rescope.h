// Re-scoping: the primitive that powers σ-domain, σ-restriction and the
// relative product (Defs 7.3 and 7.5).
//
// A σ-specification is itself an extended set read as a mapping between
// scopes:
//
//   Re-scope by scope   A^{/σ/} = { x^w : ∃s ( x ∈ₛ A  &  s ∈_w σ ) }
//     — each membership's OLD scope s is looked up as an ELEMENT of σ; the
//       new scope w is the scope σ assigns to s. Memberships whose scope σ
//       does not mention are dropped.
//         {a^x, b^y, c^z}^{/{x^1, y^2, z^3}/} = {a^1, b^2, c^3}
//
//   Re-scope by element A^{\σ\} = { x^w : ∃s ( x ∈ₛ A  &  w ∈ₛ σ ) }
//     — the inverse orientation: the new scope w is the ELEMENT of σ whose
//       scope matches the old scope s.
//         {a^1, b^2, c^3}^{\{w^1, v^2, t^3\}} = {a^w, b^v, c^t}
//
// Both return ∅ when the operand is an atom (atoms have no memberships).
// A σ mapping one old scope to several new scopes fans the membership out;
// several old scopes mapping to one new scope merge (duplicates collapse by
// canonicalization).

#pragma once

#include <cstdint>

#include "src/core/xset.h"

namespace xst {

/// \brief A^{/σ/} (Def 7.3).
///
/// Memoized: results are cached in a sharded, thread-safe table keyed on the
/// interned ⟨A, σ⟩ node-pointer pair. Rescoping sits in the inner loops of
/// the relative product, σ-domain, restriction, indexes and the process
/// calculus, and the same small operands (tuple elements, spec tuples) recur
/// constantly; hash-consing makes the memo exact — pointer-equal inputs are
/// structurally equal inputs — and immortal interned nodes make it safe to
/// hold entries forever.
XSet RescopeByScope(const XSet& a, const XSet& sigma);

/// \brief A^{\σ\} (Def 7.5).
XSet RescopeByElement(const XSet& a, const XSet& sigma);

/// \brief Appends the membership list of A^{/σ/} to `*out` WITHOUT
/// canonicalizing or interning.
///
/// This is the allocation-free core of RescopeByScope for callers that only
/// need the raw membership multiset — e.g. the relative product, which
/// hashes re-scoped join keys in scratch buffers instead of materializing a
/// throwaway interned set per member. `*out` is appended to (not cleared);
/// the caller canonicalizes (sort + dedup) if it needs set semantics.
void AppendRescopeByScopeRaw(const XSet& a, const XSet& sigma,
                             std::vector<Membership>* out);

/// \brief Counters for the RescopeByScope memo cache.
struct RescopeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
};

/// \brief Snapshot of the memo-cache counters (approximate under concurrency).
RescopeCacheStats GetRescopeCacheStats();

/// \brief Zeroes the hit/miss counters (resident entries stay cached), so
/// back-to-back query phases report per-phase hit rates.
void ResetRescopeCacheStats();

namespace internal {

// Registry names of the memo counters, for callers (ExplainAnalyze) that
// snapshot hits/misses cheaply without the full GetRescopeCacheStats slot
// scan.
inline constexpr const char* kRescopeMemoHitsCounter = "rescope.memo.hits";
inline constexpr const char* kRescopeMemoMissesCounter = "rescope.memo.misses";

/// \brief One resident memo entry: RescopeByScope(a, sigma) was cached as
/// `result`. Handles stay valid forever (interned nodes are immortal).
struct RescopeMemoEntry {
  XSet a;
  XSet sigma;
  XSet result;
};

/// \brief Copies out every resident memo entry (validator use).
std::vector<RescopeMemoEntry> SnapshotRescopeMemo();

/// \brief Test hook: overwrites the cached result for ⟨a, σ⟩ with `bogus`,
/// simulating memo corruption. Returns false when the key is not resident.
bool PoisonRescopeMemoEntryForTest(const XSet& a, const XSet& sigma, const XSet& bogus);

/// \brief Test hook: drops every memo entry (so a poisoned cache cannot leak
/// into later tests in the same process).
void ClearRescopeMemoForTest();

}  // namespace internal

}  // namespace xst
