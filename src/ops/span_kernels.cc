#include "src/ops/span_kernels.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/core/order.h"
#include "src/ops/boolean.h"
#include "src/ops/rescope.h"

namespace xst {

namespace {

// Path-selection constants for IntersectSpans, tuned on the BM_Intersect
// family: below the merge ceiling the two-pointer walk's locality wins;
// above it, structural CompareMembership calls dominate and pointer-hash
// probing takes over. The skew ratio picks the galloping search when one
// side is so much smaller that O(small · log large) beats O(large).
constexpr size_t kIntersectMergeCeiling = 2048;
constexpr size_t kIntersectSkewRatio = 16;

bool MembershipLess(const Membership& x, const Membership& y) {
  return CompareMembership(x, y) < 0;
}

// Mixes the interned handle pair itself. Unlike MembershipHash (which reads
// the precomputed structural hash through both node pointers), this touches
// only the 16 bytes of the Membership — no dependent loads — and is still
// exact for equality because interning makes pointer identity structural
// identity. splitmix64-style finalizer to spread aligned pointers.
uint64_t MixHandles(const Membership& m) {
  uint64_t h = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(m.element.node())) *
               0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(reinterpret_cast<uintptr_t>(m.scope.node())) +
       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

// Runs emit(m, dst) for every member of r, in parallel chunks above
// kSpanGrain, and appends what the chunks emitted to *out in member order.
template <typename Emit>
void EmitInOrder(MemberSpan r, std::vector<Membership>* out, const Emit& emit) {
  std::vector<std::vector<Membership>> rest = ParallelCollect(
      r.size(), kSpanGrain, out, [&](size_t lo, size_t hi, std::vector<Membership>* dst) {
        for (size_t i = lo; i < hi; ++i) emit(r[i], dst);
      });
  for (const std::vector<Membership>& part : rest) {
    out->insert(out->end(), part.begin(), part.end());
  }
}

// Pre-computed re-scoped probes ⟨a^{\σ\}, s^{\σ\}⟩ for σ-restriction — built
// once per restrict/image call, then O(1)–O(|probes|) per candidate member.
class RestrictProbes {
 public:
  RestrictProbes(const XSet& sigma, MemberSpan probes) {
    probes_.reserve(probes.size());
    for (const Membership& m : probes) {
      probes_.push_back(
          {RescopeByElement(m.element, sigma), RescopeByElement(m.scope, sigma)});
    }
    // Singleton regime (the dominant query shape): every probe is {e^s}
    // with an empty scope-probe, so "probe ⊆ z" is "z contains ⟨e, s⟩" and
    // Keep is one hash lookup per inner membership — O(|r|·width + |probes|)
    // instead of O(|r|·|probes|) subset-test pairs.
    singleton_ = !probes_.empty();
    for (const auto& [elem_probe, scope_probe] : probes_) {
      if (!scope_probe.empty() || elem_probe.cardinality() != 1) {
        singleton_ = false;
        break;
      }
    }
    if (singleton_) {
      wanted_.reserve(probes_.size());
      for (const auto& [elem_probe, scope_probe] : probes_) {
        wanted_.insert(elem_probe.members()[0]);
      }
    }
  }

  // True when there are no probes (the restriction is ∅).
  bool empty() const { return probes_.empty(); }

  // Whether candidate member m survives r |_σ probes.
  bool Keep(const Membership& m) const {
    if (singleton_) {
      for (const Membership& inner : m.element.members()) {
        if (wanted_.count(inner) != 0) return true;
      }
      return false;
    }
    for (const auto& [elem_probe, scope_probe] : probes_) {
      if (IsSubset(elem_probe, m.element) && IsSubset(scope_probe, m.scope)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::pair<XSet, XSet>> probes_;
  std::unordered_set<Membership, MembershipHash> wanted_;  // singleton regime
  bool singleton_ = false;
};

}  // namespace

void UnionSpans(MemberSpan a, MemberSpan b, std::vector<Membership>* out) {
  out->reserve(out->size() + a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    int c = CompareMembership(a[i], b[j]);
    if (c < 0) {
      out->push_back(a[i++]);
    } else if (c > 0) {
      out->push_back(b[j++]);
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
  out->insert(out->end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
}

void IntersectSpans(MemberSpan a, MemberSpan b, std::vector<Membership>* out) {
  if (a.empty() || b.empty()) return;
  if (a.size() > b.size()) std::swap(a, b);  // a is now the smaller side
  out->reserve(out->size() + a.size());      // |a ∩ b| ≤ |a|

  if (a.size() + b.size() <= kIntersectMergeCeiling) {
    // Small inputs: the classic two-pointer merge walk.
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      int c = CompareMembership(a[i], b[j]);
      if (c < 0) {
        ++i;
      } else if (c > 0) {
        ++j;
      } else {
        out->push_back(a[i]);
        ++i;
        ++j;
      }
    }
    return;
  }

  if (b.size() / a.size() >= kIntersectSkewRatio) {
    // Heavy skew: walk the small side in order, galloping into the large
    // side. Both sides share one total order, so the search frontier only
    // moves forward; the output is an ordered subsequence of `a`, hence
    // canonical.
    size_t j = 0;
    for (const Membership& m : a) {
      size_t step = 1;
      while (j + step < b.size() && CompareMembership(b[j + step], m) < 0) {
        step <<= 1;
      }
      auto first = b.begin() + static_cast<ptrdiff_t>(j);
      auto last = b.begin() + static_cast<ptrdiff_t>(std::min(j + step, b.size()));
      auto it = std::lower_bound(first, last, m, MembershipLess);
      j = static_cast<size_t>(it - b.begin());
      if (j == b.size()) break;
      if (b[j] == m) {
        out->push_back(m);
        ++j;
      }
    }
    return;
  }

  // Comparable large sides: interned handles make membership equality a
  // pointer-pair test and node hashes are precomputed, so index the smaller
  // side in a flat open-addressing table (slot -> index into `a`) and scan
  // the larger side in order. The output is an ordered subsequence of `b`,
  // hence canonical, with zero structural compares. The single scratch
  // vector is the only allocation: a node-per-insert std::unordered_set
  // here measured ~5x slower than even the structural merge.
  constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();
  size_t cap = 1;
  while (cap < a.size() * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<uint32_t> slots(cap, kEmptySlot);
  for (size_t i = 0; i < a.size(); ++i) {
    size_t slot = MixHandles(a[i]) & mask;
    while (slots[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot] = static_cast<uint32_t>(i);  // canonical `a` has no duplicates
  }
  for (const Membership& m : b) {
    size_t slot = MixHandles(m) & mask;
    for (uint32_t idx = slots[slot]; idx != kEmptySlot;
         slot = (slot + 1) & mask, idx = slots[slot]) {
      if (a[idx] == m) {
        out->push_back(m);
        break;
      }
    }
  }
}

void DifferenceSpans(MemberSpan a, MemberSpan b, std::vector<Membership>* out) {
  out->reserve(out->size() + a.size());  // |a ∼ b| ≤ |a|
  size_t i = 0, j = 0;
  while (i < a.size()) {
    if (j >= b.size()) {
      out->push_back(a[i++]);
      continue;
    }
    int c = CompareMembership(a[i], b[j]);
    if (c < 0) {
      out->push_back(a[i++]);
    } else if (c > 0) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

void DomainSpans(MemberSpan r, const XSet& sigma, std::vector<Membership>* out) {
  const size_t base = out->size();
  out->reserve(base + r.size());
  EmitInOrder(r, out, [&sigma](const Membership& m, std::vector<Membership>* dst) {
    XSet x = RescopeByScope(m.element, sigma);
    if (x.empty()) return;  // the definition requires z^{/σ/} ≠ ∅
    dst->push_back(Membership{x, RescopeByScope(m.scope, sigma)});
  });
  CanonicalizeMembers(out, base);
}

void RestrictSpans(MemberSpan r, const XSet& sigma, MemberSpan probes,
                   std::vector<Membership>* out) {
  RestrictProbes rp(sigma, probes);
  if (rp.empty()) return;
  EmitInOrder(r, out, [&rp](const Membership& m, std::vector<Membership>* dst) {
    if (rp.Keep(m)) dst->push_back(m);
  });
}

void ElementRangeSpans(MemberSpan r, const XSet& lo, const XSet& hi,
                       std::vector<Membership>* out) {
  if (Compare(lo, hi) > 0) return;  // empty interval
  // CompareMembership orders by element first, so all members with a given
  // element are adjacent and elements ascend across the list. The interval
  // is the slice [first element ≥ lo, first element > hi).
  auto first = std::partition_point(r.begin(), r.end(), [&](const Membership& m) {
    return Compare(m.element, lo) < 0;
  });
  auto last = std::partition_point(first, r.end(), [&](const Membership& m) {
    return Compare(m.element, hi) <= 0;
  });
  out->insert(out->end(), first, last);
}

void ImageSpans(MemberSpan r, const Sigma& sigma, MemberSpan probes,
                std::vector<Membership>* out) {
  RestrictProbes rp(sigma.s1, probes);
  if (rp.empty()) return;
  const size_t base = out->size();
  EmitInOrder(r, out, [&rp, &sigma](const Membership& m, std::vector<Membership>* dst) {
    if (!rp.Keep(m)) return;
    XSet x = RescopeByScope(m.element, sigma.s2);
    if (x.empty()) return;
    dst->push_back(Membership{x, RescopeByScope(m.scope, sigma.s2)});
  });
  CanonicalizeMembers(out, base);
}

}  // namespace xst
