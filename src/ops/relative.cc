#include "src/ops/relative.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/thread_pool.h"
#include "src/core/atom.h"
#include "src/core/order.h"
#include "src/obs/trace.h"
#include "src/ops/rescope.h"
#include "src/ops/span_kernels.h"

namespace xst {

namespace {

// Items per chunk below which forking a parallel region costs more than the
// per-member rescope work it distributes.
constexpr size_t kGrain = 512;

constexpr uint32_t kNoEntry = ~uint32_t{0};

// One partition of G. Neither the join key nor G's output contribution is
// interned: interning a throwaway set per member (a hash, a shard lock and
// often an allocation, several times per side) dominated the join when
// profiled. Both live as spans of canonical memberships in shared arenas
// instead:
//   key arena:  `elem_len` memberships of y^{/ω₁/}, then the memberships of
//               t^{/ω₁/} up to `key_len` total, at `key_begin`;
//   out arena:  `out_elem_len` memberships of y^{/ω₂/}, then t^{/ω₂/} up to
//               `out_len` total, at `out_begin`.
// Because memberships hold interned handles, element-wise equality of
// canonicalized spans is exactly set equality of the key pair, and merging
// two canonical spans is exactly set union. Only the merged output members
// ever touch the interner.
struct BuildEntry {
  uint64_t hash;          // of the canonical key spans (length-seeded)
  size_t key_begin;       // offset into the key arena
  size_t out_begin;       // offset into the output-parts arena
  uint32_t elem_len;      // key memberships belonging to the element key
  uint32_t key_len;       // total key memberships (element + scope key)
  uint32_t out_elem_len;  // output memberships belonging to y^{/ω₂/}
  uint32_t out_len;       // total output memberships (y^{/ω₂/} + t^{/ω₂/})
  uint32_t next;          // hash-chain link, kNoEntry at the end
};

uint64_t HashKeySpan(const Membership* data, size_t elem_len, size_t key_len) {
  // Seed with both lengths so the element/scope split participates: the key
  // ⟨{a}, ∅⟩ must not collide with ⟨∅, {a}⟩.
  uint64_t h = HashCombine(elem_len, key_len);
  for (size_t i = 0; i < key_len; ++i) {
    h = HashCombine(h, HashCombine(data[i].element.hash(), data[i].scope.hash()));
  }
  return h;
}

// Projects m's two re-scoped parts into *dst (appended): the canonical
// element-part memberships, then the canonical scope-part memberships.
// Returns the element-part length. Parts are tuple slices, usually of 0 or 1
// memberships; those are canonical already, and skipping the call for them
// is measurable at this call rate.
size_t ProjectParts(const Membership& m, const XSet& spec, std::vector<Membership>* dst) {
  size_t base = dst->size();
  AppendRescopeByScopeRaw(m.element, spec, dst);
  if (dst->size() - base > 1) CanonicalizeMembers(dst, base);
  size_t elem_len = dst->size() - base;
  AppendRescopeByScopeRaw(m.scope, spec, dst);
  if (dst->size() - base - elem_len > 1) CanonicalizeMembers(dst, base + elem_len);
  return elem_len;
}

// Set union of two canonical membership spans, interned via the sorted
// fast path.
XSet InternUnion(MemberSpan a, MemberSpan b) {
  if (a.empty() && b.empty()) return XSet::Empty();
  std::vector<Membership> out;
  UnionSpans(a, b, &out);
  XST_DCHECK(IsCanonicalMemberList(out));
  return XSet::FromSortedMembers(std::move(out));
}

// G's partitions: one entry per member of G, with every offset indexing
// the `keys` and `outs` arenas of the same object.
struct BuildSide {
  std::vector<BuildEntry> entries;
  std::vector<Membership> keys;
  std::vector<Membership> outs;
};

// Build phase: partition G by its re-scoped key ⟨y^{/ω₁/}, t^{/ω₁/}⟩ and
// stash its output contribution ⟨y^{/ω₂/}, t^{/ω₂/}⟩, all as raw spans.
// The per-member projections run in parallel; chunk arenas are appended in
// chunk order (offset rebasing only), so entries follow G's order.
BuildSide Build(const XSet& g, const Sigma& omega, const RelativeProductOptions& options) {
  auto mg = g.members();
  BuildSide build;
  build.entries.reserve(mg.size());
  build.keys.reserve(mg.size() * 2);
  build.outs.reserve(mg.size() * 2);
  std::vector<BuildSide> rest =
      ParallelCollect(mg.size(), kGrain, &build, [&](size_t lo, size_t hi, BuildSide* dst) {
        std::vector<Membership> key;
        for (size_t i = lo; i < hi; ++i) {
          const Membership& m = mg[i];
          key.clear();
          size_t elem_len = ProjectParts(m, omega.s1, &key);
          if (options.require_nonempty_key && elem_len == 0) continue;
          BuildEntry e;
          e.hash = HashKeySpan(key.data(), elem_len, key.size());
          e.key_begin = dst->keys.size();
          e.elem_len = static_cast<uint32_t>(elem_len);
          e.key_len = static_cast<uint32_t>(key.size());
          e.next = kNoEntry;
          dst->keys.insert(dst->keys.end(), key.begin(), key.end());
          e.out_begin = dst->outs.size();
          e.out_elem_len = static_cast<uint32_t>(ProjectParts(m, omega.s2, &dst->outs));
          e.out_len = static_cast<uint32_t>(dst->outs.size() - e.out_begin);
          dst->entries.push_back(e);
        }
      });
  for (BuildSide& part : rest) {
    const size_t key_base = build.keys.size();
    const size_t out_base = build.outs.size();
    build.keys.insert(build.keys.end(), part.keys.begin(), part.keys.end());
    build.outs.insert(build.outs.end(), part.outs.begin(), part.outs.end());
    for (BuildEntry& e : part.entries) {
      e.key_begin += key_base;
      e.out_begin += out_base;
      build.entries.push_back(e);
    }
  }
  return build;
}

// Probe phase: each member of F projects its ⟨x^{/σ₂/}, s^{/σ₂/}⟩ key into
// the same scratch form, and `for_each_match(key, elem_len, visit)` calls
// visit(entry) for every build entry with an equal key. The output parts
// x^{/σ₁/}, s^{/σ₁/} are only projected on the first match, so non-joining
// members never touch the interner; each match merges the canonical spans
// and interns just the two output sets. The build side is read-only by now,
// so chunks run in parallel.
template <typename ForEachMatch>
XSet Probe(const XSet& f, const Sigma& sigma, const RelativeProductOptions& options,
           const BuildSide& build, const ForEachMatch& for_each_match) {
  auto mf = f.members();
  std::vector<Membership> out;
  std::vector<std::vector<Membership>> rest = ParallelCollect(
      mf.size(), kGrain, &out, [&](size_t lo, size_t hi, std::vector<Membership>* dst) {
        std::vector<Membership> key;
        std::vector<Membership> parts;
        for (size_t i = lo; i < hi; ++i) {
          const Membership& m = mf[i];
          key.clear();
          size_t elem_len = ProjectParts(m, sigma.s2, &key);
          if (options.require_nonempty_key && elem_len == 0) continue;
          size_t x_len = 0;
          bool have_parts = false;
          for_each_match(key, elem_len, [&](const BuildEntry& be) {
            if (!have_parts) {
              parts.clear();
              x_len = ProjectParts(m, sigma.s1, &parts);
              have_parts = true;
            }
            MemberSpan x_parts(parts);
            MemberSpan yt(build.outs.data() + be.out_begin, be.out_len);
            dst->push_back(Membership{
                InternUnion(x_parts.first(x_len), yt.first(be.out_elem_len)),
                InternUnion(x_parts.subspan(x_len), yt.subspan(be.out_elem_len))});
          });
        }
      });
  for (const std::vector<Membership>& part : rest) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return XST_VALIDATE(XSet::FromMembers(std::move(out)));
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Total order over key spans for the ordered (nested-loop) build: the
// element/scope split first — ⟨{a}, ∅⟩ and ⟨∅, {a}⟩ are different keys —
// then length, then membership-lexicographic. Equality under this order is
// exactly key-pair equality, which is all the join needs; the relative
// order of distinct keys is arbitrary but deterministic.
int CompareKeySpans(const Membership* a, uint32_t a_elem, uint32_t a_len,
                    const Membership* b, uint32_t b_elem, uint32_t b_len) {
  if (a_elem != b_elem) return a_elem < b_elem ? -1 : 1;
  if (a_len != b_len) return a_len < b_len ? -1 : 1;
  for (uint32_t i = 0; i < a_len; ++i) {
    int c = CompareMembership(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

}  // namespace

XSet RelativeProduct(const XSet& f, const XSet& g, const Sigma& sigma, const Sigma& omega,
                     const RelativeProductOptions& options) {
  XST_TRACE_SPAN("op.relative_product");
  BuildSide build = Build(g, omega, options);
  // Index the entries by key hash. Duplicate keys stay as separate chain
  // entries — a probe walks the whole chain, which is exactly join fan-out.
  std::vector<BuildEntry>& entries = build.entries;
  const size_t nbuckets = NextPow2(std::max<size_t>(entries.size() * 2, 16));
  const size_t bucket_mask = nbuckets - 1;
  std::vector<uint32_t> heads(nbuckets, kNoEntry);
  for (uint32_t i = 0; i < entries.size(); ++i) {
    uint32_t& head = heads[entries[i].hash & bucket_mask];
    entries[i].next = head;
    head = i;
  }
  return Probe(f, sigma, options, build,
               [&](const std::vector<Membership>& key, size_t elem_len, const auto& visit) {
                 const uint64_t h = HashKeySpan(key.data(), elem_len, key.size());
                 for (uint32_t e = heads[h & bucket_mask]; e != kNoEntry; e = entries[e].next) {
                   const BuildEntry& be = entries[e];
                   if (be.hash == h && be.elem_len == elem_len && be.key_len == key.size() &&
                       std::equal(key.begin(), key.end(), build.keys.begin() + be.key_begin)) {
                     visit(be);
                   }
                 }
               });
}

XSet RelativeProductNested(const XSet& f, const XSet& g, const Sigma& sigma, const Sigma& omega,
                           const RelativeProductOptions& options) {
  XST_TRACE_SPAN("op.relative_product_nested");
  // Same build as the hash join, indexed by sorting on the canonical key
  // span instead: duplicate keys become one contiguous run, so a probe's
  // equal range IS the join fan-out.
  BuildSide build = Build(g, omega, options);
  const Membership* keys = build.keys.data();
  std::sort(build.entries.begin(), build.entries.end(),
            [keys](const BuildEntry& a, const BuildEntry& b) {
              return CompareKeySpans(keys + a.key_begin, a.elem_len, a.key_len,
                                     keys + b.key_begin, b.elem_len, b.key_len) < 0;
            });
  const std::vector<BuildEntry>& entries = build.entries;
  return Probe(f, sigma, options, build,
               [&](const std::vector<Membership>& key, size_t elem_len, const auto& visit) {
                 auto compare = [&](const BuildEntry& e) {
                   return CompareKeySpans(keys + e.key_begin, e.elem_len, e.key_len,
                                          key.data(), static_cast<uint32_t>(elem_len),
                                          static_cast<uint32_t>(key.size()));
                 };
                 auto it = std::partition_point(
                     entries.begin(), entries.end(),
                     [&](const BuildEntry& e) { return compare(e) < 0; });
                 for (; it != entries.end() && compare(*it) == 0; ++it) visit(*it);
               });
}

XSet RelativeProductStd(const XSet& r, const XSet& s) {
  // Paper §10, parameter set 1:
  //   σ = ⟨{1¹}, {2¹}⟩  — keep F's column 1 in place, join on its column 2;
  //   ω = ⟨{1¹}, {2²}⟩  — join on G's column 1, land G's column 2 at position 2.
  using lit::Spec;
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{2, 2}})};
  return RelativeProduct(r, s, sigma, omega);
}

}  // namespace xst
