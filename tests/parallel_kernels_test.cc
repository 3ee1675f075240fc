// Property tests for the bulk kernels: the sorted-merge fast paths and
// parallel chunking in the boolean operators, σ-domain, σ-restriction,
// image, ImageIndex, cross product, relative product, SelectWhere and
// GroupBy must be bit-identical — pointer-equal, thanks to interning — to a
// naive single-threaded reference evaluated straight from the definitions.
// The "AboveGrain" cases use ≥ 8k members so the chunked paths really split
// across a multi-worker pool (CI runs them with XST_NUM_THREADS=4).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <vector>

#include "src/core/atom.h"
#include "src/core/order.h"
#include "src/ops/boolean.h"
#include "src/ops/domain.h"
#include "src/ops/image.h"
#include "src/ops/index.h"
#include "src/ops/product.h"
#include "src/ops/relative.h"
#include "src/ops/rescope.h"
#include "src/ops/restrict.h"
#include "src/ops/span_kernels.h"
#include "src/rel/aggregate.h"
#include "src/rel/algebra.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::RandomSetGen;

// -- Naive references ---------------------------------------------------------
//
// These deliberately avoid the production merge loops: they restate each
// operation membership-by-membership and let FromMembers canonicalize, so a
// bug in the sorted fast path cannot hide in its own reference.

XSet RefUnion(const XSet& a, const XSet& b) {
  std::vector<Membership> out;
  for (const Membership& m : a.members()) out.push_back(m);
  for (const Membership& m : b.members()) out.push_back(m);
  return XSet::FromMembers(std::move(out));
}

XSet RefIntersect(const XSet& a, const XSet& b) {
  std::vector<Membership> out;
  for (const Membership& m : a.members()) {
    if (b.Contains(m.element, m.scope)) out.push_back(m);
  }
  return XSet::FromMembers(std::move(out));
}

XSet RefDifference(const XSet& a, const XSet& b) {
  std::vector<Membership> out;
  for (const Membership& m : a.members()) {
    if (!b.Contains(m.element, m.scope)) out.push_back(m);
  }
  return XSet::FromMembers(std::move(out));
}

// Def 10.1 verbatim: quadratic loop over F×G comparing interned key pairs.
XSet RefRelativeProduct(const XSet& f, const XSet& g, const Sigma& sigma,
                        const Sigma& omega, const RelativeProductOptions& options = {}) {
  std::vector<Membership> out;
  for (const Membership& mf : f.members()) {
    XSet xk = RescopeByScope(mf.element, sigma.s2);
    XSet sk = RescopeByScope(mf.scope, sigma.s2);
    if (options.require_nonempty_key && xk.empty()) continue;
    for (const Membership& mg : g.members()) {
      XSet yk = RescopeByScope(mg.element, omega.s1);
      XSet tk = RescopeByScope(mg.scope, omega.s1);
      if (options.require_nonempty_key && yk.empty()) continue;
      if (xk != yk || sk != tk) continue;
      out.push_back(Membership{
          Union(RescopeByScope(mf.element, sigma.s1), RescopeByScope(mg.element, omega.s2)),
          Union(RescopeByScope(mf.scope, sigma.s1), RescopeByScope(mg.scope, omega.s2))});
    }
  }
  return XSet::FromMembers(std::move(out));
}

// Def 7.3 verbatim: x ∈ₛ A contributes x^w for every membership s^w of σ.
XSet RefRescopeByScope(const XSet& a, const XSet& sigma) {
  std::vector<Membership> out;
  for (const Membership& m : a.members()) {
    for (const Membership& sm : sigma.members()) {
      if (sm.element == m.scope) out.push_back(Membership{m.element, sm.scope});
    }
  }
  return XSet::FromMembers(std::move(out));
}

// Def 7.5 verbatim: x ∈ₛ A contributes x^w for every membership w^s of σ.
XSet RefRescopeByElement(const XSet& a, const XSet& sigma) {
  std::vector<Membership> out;
  for (const Membership& m : a.members()) {
    for (const Membership& sm : sigma.members()) {
      if (sm.scope == m.scope) out.push_back(Membership{m.element, sm.element});
    }
  }
  return XSet::FromMembers(std::move(out));
}

// a ⊆ b as membership containment.
bool RefSubset(const XSet& a, const XSet& b) {
  for (const Membership& m : a.members()) {
    if (!b.Contains(m.element, m.scope)) return false;
  }
  return true;
}

// Def 7.4 verbatim.
XSet RefSigmaDomain(const XSet& r, const XSet& sigma) {
  std::vector<Membership> out;
  for (const Membership& m : r.members()) {
    XSet x = RefRescopeByScope(m.element, sigma);
    if (x.empty()) continue;
    out.push_back(Membership{x, RefRescopeByScope(m.scope, sigma)});
  }
  return XSet::FromMembers(std::move(out));
}

// Def 7.6 verbatim.
XSet RefSigmaRestrict(const XSet& r, const XSet& sigma, const XSet& a) {
  std::vector<Membership> out;
  for (const Membership& m : r.members()) {
    for (const Membership& probe : a.members()) {
      if (RefSubset(RefRescopeByElement(probe.element, sigma), m.element) &&
          RefSubset(RefRescopeByElement(probe.scope, sigma), m.scope)) {
        out.push_back(m);
        break;
      }
    }
  }
  return XSet::FromMembers(std::move(out));
}

// Def 7.1 verbatim.
XSet RefImage(const XSet& r, const XSet& a, const Sigma& sigma) {
  return RefSigmaDomain(RefSigmaRestrict(r, sigma.s1, a), sigma.s2);
}

// The canonical list of a reference result, for comparing span kernels.
std::vector<Membership> MembersOf(const XSet& s) {
  return std::vector<Membership>(s.members().begin(), s.members().end());
}

// -- Generators ---------------------------------------------------------------

// A classical relation of ⟨key, value⟩ pairs with repeated keys, sized to
// cross the parallel-kernel grain.
XSet BigPairRelation(std::mt19937_64& rng, size_t n, int64_t key_space,
                     int64_t value_space, int64_t offset = 0) {
  std::vector<Membership> members;
  members.reserve(n);
  XSet empty = XSet::Empty();
  for (size_t i = 0; i < n; ++i) {
    XSet pair = XSet::Pair(XSet::Int(offset + static_cast<int64_t>(rng() % key_space)),
                           XSet::Int(static_cast<int64_t>(rng() % value_space)));
    members.push_back(Membership{pair, empty});
  }
  return XSet::FromMembers(std::move(members));
}

// A set of scoped memberships over a small atom pool, so Union/Intersect
// hit real overlaps, duplicate elements under distinct scopes, etc.
XSet BigScopedSet(std::mt19937_64& rng, size_t n, int64_t pool) {
  std::vector<Membership> members;
  members.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    members.push_back(Membership{XSet::Int(static_cast<int64_t>(rng() % pool)),
                                 XSet::Int(static_cast<int64_t>(rng() % 4))});
  }
  return XSet::FromMembers(std::move(members));
}

// -- Properties ---------------------------------------------------------------

TEST(ParallelKernels, BooleanOpsMatchReferenceOnSmallRandomSets) {
  RandomSetGen gen(20260807);
  for (int trial = 0; trial < 300; ++trial) {
    XSet a = gen.Set(3, 6);
    XSet b = (trial % 3 == 0) ? a : gen.Set(3, 6);  // sometimes identical operands
    EXPECT_EQ(Union(a, b), RefUnion(a, b));
    EXPECT_EQ(Intersect(a, b), RefIntersect(a, b));
    EXPECT_EQ(Difference(a, b), RefDifference(a, b));
  }
}

TEST(ParallelKernels, BooleanOpsMatchReferenceOnLargeSets) {
  std::mt19937_64 rng(7);
  // Large enough to cross the canonicalization parallel-sort threshold and
  // the chunked-kernel grain on multi-core hosts.
  for (size_t n : {size_t{900}, size_t{20000}}) {
    XSet a = BigScopedSet(rng, n, static_cast<int64_t>(n));
    XSet b = BigScopedSet(rng, n, static_cast<int64_t>(n));
    EXPECT_EQ(Union(a, b), RefUnion(a, b));
    EXPECT_EQ(Intersect(a, b), RefIntersect(a, b));
    EXPECT_EQ(Difference(a, b), RefDifference(a, b));
    EXPECT_EQ(Union(a, a), a);
    EXPECT_EQ(Difference(a, a), XSet::Empty());
  }
}

TEST(ParallelKernels, CanonicalizationOfShuffledInputMatchesSortedInput) {
  // FromMembers must produce the same interned node no matter the input
  // order (exercises the large-input merge-sort path).
  std::mt19937_64 rng(11);
  std::vector<Membership> members;
  for (size_t i = 0; i < 20000; ++i) {
    members.push_back(Membership{XSet::Int(static_cast<int64_t>(rng() % 10000)),
                                 XSet::Int(static_cast<int64_t>(rng() % 3))});
  }
  XSet from_shuffled = XSet::FromMembers(members);
  std::vector<Membership> copy = members;
  std::sort(copy.begin(), copy.end(), [](const Membership& a, const Membership& b) {
    return CompareMembership(a, b) < 0;
  });
  copy.erase(std::unique(copy.begin(), copy.end()), copy.end());
  EXPECT_EQ(from_shuffled, XSet::FromSortedMembers(std::move(copy)));
}

TEST(ParallelKernels, RelativeProductStdMatchesReference) {
  using lit::Spec;
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{2, 2}})};
  std::mt19937_64 rng(13);
  // Repeated keys force join fan-out; the shared value space forces both
  // hits and misses; 1500 members crosses the join kernel's grain.
  for (size_t n : {size_t{120}, size_t{1500}}) {
    XSet f = BigPairRelation(rng, n, /*key_space=*/64, /*value_space=*/48);
    XSet g = BigPairRelation(rng, n, /*key_space=*/64, /*value_space=*/48);
    EXPECT_EQ(RelativeProduct(f, g, sigma, omega),
              RefRelativeProduct(f, g, sigma, omega));
  }
}

TEST(ParallelKernels, RelativeProductMatchesReferenceOnRandomExtendedSets) {
  // Arbitrary nested operands and fan-out σ-specs, not just tuple relations:
  // empty keys, multi-target specs, scoped memberships.
  using lit::Spec;
  RandomSetGen gen(99);
  std::vector<std::pair<Sigma, Sigma>> spec_pairs;
  spec_pairs.push_back({Sigma{Spec({{1, 1}}), Spec({{2, 1}})},
                        Sigma{Spec({{1, 1}}), Spec({{2, 2}})}});
  spec_pairs.push_back({Sigma{Spec({{1, 1}, {1, 2}}), Spec({{2, 1}, {3, 1}})},
                        Sigma{Spec({{1, 1}}), Spec({{1, 3}, {2, 2}})}});
  for (int trial = 0; trial < 120; ++trial) {
    XSet f = gen.Set(3, 5);
    XSet g = gen.Set(3, 5);
    for (const auto& [sigma, omega] : spec_pairs) {
      EXPECT_EQ(RelativeProduct(f, g, sigma, omega),
                RefRelativeProduct(f, g, sigma, omega));
      RelativeProductOptions strict;
      strict.require_nonempty_key = true;
      EXPECT_EQ(RelativeProduct(f, g, sigma, omega, strict),
                RefRelativeProduct(f, g, sigma, omega, strict));
    }
  }
}

// -- Above the parallel grain -------------------------------------------------

// ⟨k, v⟩ pairs under ∅ scope: large enough (≥ 8k distinct members) that
// every chunked kernel splits on a multi-worker pool.
XSet BigRelation(uint64_t seed) {
  std::mt19937_64 rng(seed);
  XSet r = BigPairRelation(rng, 12000, /*key_space=*/400, /*value_space=*/300);
  EXPECT_GE(r.cardinality(), 8192u);
  return r;
}

// Classical set of the 1-tuples ⟨k⟩ for k = 0, step, 2·step, … below limit.
XSet KeyProbes(int64_t limit, int64_t step) {
  std::vector<XSet> probes;
  for (int64_t k = 0; k < limit; k += step) probes.push_back(XSet::Tuple({XSet::Int(k)}));
  return XSet::Classical(probes);
}

TEST(ParallelKernels, SigmaDomainAboveGrainMatchesReference) {
  using lit::Spec;
  XSet r = BigRelation(21);
  // Projection (collapses duplicates) and a column swap (permutes order).
  for (const XSet& sigma : {Spec({{2, 1}}), Spec({{1, 2}, {2, 1}}), Spec({{3, 1}})}) {
    EXPECT_EQ(SigmaDomain(r, sigma), RefSigmaDomain(r, sigma)) << sigma.ToString();
  }
}

TEST(ParallelKernels, SigmaRestrictAboveGrainMatchesReferenceInBothRegimes) {
  using lit::Spec;
  XSet r = BigRelation(22);
  // Singleton regime: every probe re-scopes to one membership {k^1} with an
  // empty scope probe.
  XSet singleton = KeyProbes(400, 7);
  XSet sigma1 = Spec({{1, 1}});
  XSet kept = SigmaRestrict(r, sigma1, singleton);
  EXPECT_FALSE(kept.empty());
  EXPECT_EQ(kept, RefSigmaRestrict(r, sigma1, singleton));
  // General regime: two-column probes ⟨k, v⟩, some present in r, one
  // one-column probe mixed in.
  std::vector<XSet> pairs;
  auto ms = r.members();
  for (size_t i = 0; i < ms.size(); i += ms.size() / 16) pairs.push_back(ms[i].element);
  pairs.push_back(XSet::Pair(XSet::Int(3), XSet::Int(999)));  // matches nothing
  pairs.push_back(XSet::Tuple({XSet::Int(5)}));
  XSet general = XSet::Classical(pairs);
  XSet sigma12 = Spec({{1, 1}, {2, 2}});
  kept = SigmaRestrict(r, sigma12, general);
  EXPECT_GT(kept.cardinality(), 16u);
  EXPECT_EQ(kept, RefSigmaRestrict(r, sigma12, general));
}

TEST(ParallelKernels, ImageAboveGrainMatchesReference) {
  XSet r = BigRelation(23);
  XSet probes = KeyProbes(400, 3);
  for (const Sigma& sigma : {Sigma::Std(), Sigma::Inv()}) {
    XSet image = Image(r, probes, sigma);
    EXPECT_EQ(image, RefImage(r, probes, sigma)) << sigma.ToString();
  }
  EXPECT_FALSE(Image(r, probes, Sigma::Std()).empty());
}

TEST(ParallelKernels, ImageIndexAboveGrainMatchesReferenceIncludingFallback) {
  // ⟨k, v⟩ under a scope ⟨t⟩, so a probe carrying a scope takes the general
  // fallback and still selects a proper subset of the carrier.
  std::mt19937_64 rng(24);
  std::vector<Membership> members;
  for (size_t i = 0; i < 12000; ++i) {
    members.push_back(Membership{XSet::Pair(XSet::Int(static_cast<int64_t>(rng() % 400)),
                                            XSet::Int(static_cast<int64_t>(rng() % 300))),
                                 XSet::Tuple({XSet::Int(static_cast<int64_t>(rng() % 3))})});
  }
  XSet r = XSet::FromMembers(std::move(members));
  ASSERT_GE(r.cardinality(), 8192u);
  ImageIndex index(r, Sigma::Std());
  XSet key_probes = KeyProbes(400, 5);
  std::vector<Membership> probe_members = MembersOf(key_probes);
  // Scope key {1^1} is non-empty: this probe is outside the indexed shape.
  probe_members.push_back(
      Membership{XSet::Tuple({XSet::Int(7)}), XSet::Tuple({XSet::Int(1)})});
  XSet probes = XSet::FromMembers(std::move(probe_members));
  XSet looked_up = index.Lookup(probes);
  EXPECT_EQ(index.fallback_count(), 1u);
  EXPECT_FALSE(looked_up.empty());
  EXPECT_EQ(looked_up, RefImage(r, probes, Sigma::Std()));
  EXPECT_EQ(looked_up, Image(r, probes, Sigma::Std()));
}

TEST(ParallelKernels, CrossProductAboveGrainMatchesReference) {
  std::vector<XSet> left, right;
  for (int64_t i = 0; i < 200; ++i) left.push_back(XSet::Tuple({XSet::Int(i)}));
  for (int64_t j = 0; j < 50; ++j) {
    right.push_back(XSet::Tuple({XSet::Symbol("s" + std::to_string(j))}));
  }
  XSet a = XSet::Classical(left);
  XSet b = XSet::Classical(right);
  // Def 9.3 with tuple concatenation: ⟨i⟩·⟨s⟩ = ⟨i, s⟩.
  std::vector<XSet> pairs;
  for (const XSet& x : left) {
    for (const XSet& y : right) {
      pairs.push_back(XSet::Pair(x.members()[0].element, y.members()[0].element));
    }
  }
  Result<XSet> product = CrossProduct(a, b);
  ASSERT_TRUE(product.ok()) << product.status().ToString();
  EXPECT_EQ(product->cardinality(), 10000u);
  EXPECT_EQ(*product, XSet::Classical(pairs));
}

TEST(ParallelKernels, CrossProductScopeCollisionInALaterChunkIsAnError) {
  // Tagged operands have disjoint positions 1 and 2 — except one member of
  // A that also claims position 2. Only the chunks holding it fail; the
  // result must be the error, never the partial set of the other chunks.
  std::vector<XSet> left, right;
  for (int64_t i = 0; i < 400; ++i) left.push_back(XSet::Int(i));
  for (int64_t j = 0; j < 30; ++j) right.push_back(XSet::Int(1000 + j));
  XSet a = Tag(XSet::Classical(left), XSet::Int(1));
  XSet b = Tag(XSet::Classical(right), XSet::Int(2));
  ASSERT_TRUE(CrossProduct(a, b, ConcatMode::kDisjointUnion).ok());
  XSet clashing = XSet::FromMembers({Membership{XSet::Int(9999), XSet::Int(2)}});
  XSet a_bad = Union(a, XSet::Classical({clashing}));
  auto ms = a_bad.members();
  size_t at = 0;
  while (ms[at].element != clashing) ++at;
  EXPECT_GT(at, ms.size() / 2);
  Result<XSet> product = CrossProduct(a_bad, b, ConcatMode::kDisjointUnion);
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kTypeError);
}

TEST(ParallelKernels, SelectWhereAndGroupByAboveGrainMatchReference) {
  using rel::AggKind;
  using rel::AttrType;
  using rel::Relation;
  using rel::Schema;
  XSet pairs = BigRelation(25);
  Schema schema = *Schema::Make({{"k", AttrType::kInt}, {"v", AttrType::kInt}});
  Relation r = *Relation::Make(schema, pairs);
  ASSERT_GE(r.size(), 8192u);
  std::vector<std::vector<XSet>> rows = r.Rows();

  auto keep = [](const XSet& v) { return v.int_value() % 3 == 0; };
  std::vector<std::vector<XSet>> kept_rows;
  for (const auto& row : rows) {
    if (keep(row[1])) kept_rows.push_back(row);
  }
  Result<Relation> selected = rel::SelectWhere(r, "v", keep);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->tuples(), Relation::FromRows(schema, kept_rows)->tuples());

  struct Acc {
    int64_t n = 0, sum = 0;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
  };
  std::map<int64_t, Acc> groups;
  for (const auto& row : rows) {
    Acc& acc = groups[row[0].int_value()];
    int64_t v = row[1].int_value();
    ++acc.n;
    acc.sum += v;
    acc.lo = std::min(acc.lo, v);
    acc.hi = std::max(acc.hi, v);
  }
  std::vector<std::vector<XSet>> expected_rows;
  for (const auto& [k, acc] : groups) {
    expected_rows.push_back({XSet::Int(k), XSet::Int(acc.n), XSet::Int(acc.sum),
                             XSet::Int(acc.lo), XSet::Int(acc.hi)});
  }
  Result<Relation> grouped = rel::GroupBy(r, {"k"},
                                          {{AggKind::kCount, "", "n"},
                                           {AggKind::kSum, "v", "total"},
                                           {AggKind::kMin, "v", "lo"},
                                           {AggKind::kMax, "v", "hi"}});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  Schema out_schema = *Schema::Make({{"k", AttrType::kInt},
                                     {"n", AttrType::kInt},
                                     {"total", AttrType::kInt},
                                     {"lo", AttrType::kInt},
                                     {"hi", AttrType::kInt}});
  EXPECT_EQ(*grouped, *Relation::FromRows(out_schema, expected_rows));
}

TEST(ParallelKernels, SpanKernelsAppendAboveGrainAfterExistingContent) {
  using lit::Spec;
  XSet r = BigRelation(26);
  XSet probes = KeyProbes(400, 3);
  // Deliberately not ordered with respect to the appended tail.
  const std::vector<Membership> prefix = {
      Membership{XSet::Int(9), XSet::Empty()}, Membership{XSet::Int(1), XSet::Int(4)},
      Membership{XSet::Symbol("z"), XSet::Empty()}};
  auto check_tail = [&](const std::vector<Membership>& out, const XSet& expected) {
    ASSERT_GE(out.size(), prefix.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    std::vector<Membership> tail(out.begin() + static_cast<ptrdiff_t>(prefix.size()),
                                 out.end());
    EXPECT_TRUE(IsCanonicalMemberList(tail));
    EXPECT_EQ(tail, MembersOf(expected));
  };

  std::vector<Membership> out = prefix;
  DomainSpans(r.members(), Spec({{2, 1}, {1, 2}}), &out);
  check_tail(out, RefSigmaDomain(r, Spec({{2, 1}, {1, 2}})));

  out = prefix;
  RestrictSpans(r.members(), Spec({{1, 1}}), probes.members(), &out);
  check_tail(out, RefSigmaRestrict(r, Spec({{1, 1}}), probes));

  out = prefix;
  ImageSpans(r.members(), Sigma::Std(), probes.members(), &out);
  check_tail(out, RefImage(r, probes, Sigma::Std()));
}

TEST(ParallelKernels, RescopeMemoIsTransparent) {
  // Memoized and recomputed rescopes must intern to the same node.
  RandomSetGen gen(5);
  for (int trial = 0; trial < 200; ++trial) {
    XSet a = gen.Set(3, 5);
    XSet sigma = gen.Set(2, 4);
    XSet first = RescopeByScope(a, sigma);
    XSet second = RescopeByScope(a, sigma);  // memo hit
    EXPECT_EQ(first, second);
  }
}

}  // namespace
}  // namespace xst
