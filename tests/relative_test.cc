// Relative product (Def 10.1): the CST case and the paper's §10 parameter
// sets 1–6, which exhibit the operation's "personality" — the same operands
// under different specs give joins, semijoins, key-keeping joins, inverse
// composition, and column permutations.

#include <gtest/gtest.h>

#include "src/core/atom.h"
#include "src/ops/boolean.h"
#include "src/ops/relative.h"
#include "src/ops/rescope.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;
using lit::Spec;

// The running operands: F = {⟨a,b⟩}, G = {⟨b,c⟩}.
const char* kF = "{<a, b>}";
const char* kG = "{<b, c>}";

TEST(RelativeProductOp, CstCase) {
  // {⟨a,b⟩} / {⟨b,c⟩} = {⟨a,c⟩}.
  EXPECT_EQ(RelativeProductStd(X(kF), X(kG)), X("{<a, c>}"));
}

TEST(RelativeProductOp, Set1ComposeDropKey) {
  // 1) σ = ⟨{1¹},{2¹}⟩, ω = ⟨{1¹},{2²}⟩ : ⟨a,b⟩,⟨b,c⟩ → ⟨a,c⟩
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{2, 2}})};
  EXPECT_EQ(RelativeProduct(X(kF), X(kG), sigma, omega), X("{<a, c>}"));
}

TEST(RelativeProductOp, Set2KeepKey) {
  // 2) ω₂ = {1²,2³} keeps the join key: ⟨a,b⟩,⟨b,c⟩ → ⟨a,b,c⟩
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{1, 2}, {2, 3}})};
  EXPECT_EQ(RelativeProduct(X(kF), X(kG), sigma, omega), X("{<a, b, c>}"));
}

TEST(RelativeProductOp, Set3JoinOnFullPairKeepLeft) {
  // 3) σ = ⟨{1¹,2²},{1¹}⟩, ω = ⟨{1¹},{2³}⟩ : key is F's column 1 against
  // G's column 1 — fails here (a ≠ b), so the product is empty.
  Sigma sigma{Spec({{1, 1}, {2, 2}}), Spec({{1, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{2, 3}})};
  EXPECT_EQ(RelativeProduct(X(kF), X(kG), sigma, omega), X("{}"));
  // With matching first columns the full left tuple plus G's column 2 at
  // position 3 comes back: ⟨b,q⟩,⟨b,c⟩ → ⟨b,q,c⟩.
  EXPECT_EQ(RelativeProduct(X("{<b, q>}"), X(kG), sigma, omega), X("{<b, q, c>}"));
}

TEST(RelativeProductOp, Set4InverseCompose) {
  // 4) σ = ⟨{2¹},{1¹}⟩, ω = ⟨{1¹},{2²}⟩ : join on F's column 1 against G's
  // column 1, keep F's column 2 at position 1 — ⟨b,a⟩,⟨b,c⟩ → ⟨a,c⟩.
  Sigma sigma{Spec({{2, 1}}), Spec({{1, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{2, 2}})};
  EXPECT_EQ(RelativeProduct(X("{<b, a>}"), X(kG), sigma, omega), X("{<a, c>}"));
}

TEST(RelativeProductOp, Set5JoinOnSecondOfG) {
  // 5) ω₁ = {2¹}: G is keyed by its *second* column.
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{2, 1}}), Spec({{1, 2}, {2, 3}})};
  // F = {⟨a,c⟩} joins G = {⟨b,c⟩} on c: result ⟨a,b,c⟩.
  EXPECT_EQ(RelativeProduct(X("{<a, c>}"), X(kG), sigma, omega), X("{<a, b, c>}"));
}

TEST(RelativeProductOp, Set6SwapAndProject) {
  // 6) ω = ⟨{2¹},{1²}⟩: key G on column 2, keep its column 1 at position 2.
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{2, 1}}), Spec({{1, 2}})};
  EXPECT_EQ(RelativeProduct(X("{<a, c>}"), X(kG), sigma, omega), X("{<a, b>}"));
}

TEST(RelativeProductOp, ManyToManyFanout) {
  XSet f = X("{<a, k>, <b, k>}");
  XSet g = X("{<k, x>, <k, y>}");
  EXPECT_EQ(RelativeProductStd(f, g), X("{<a, x>, <a, y>, <b, x>, <b, y>}"));
}

TEST(RelativeProductOp, NoMatches) {
  EXPECT_EQ(RelativeProductStd(X("{<a, b>}"), X("{<q, c>}")), X("{}"));
  EXPECT_EQ(RelativeProductStd(X("{}"), X(kG)), X("{}"));
  EXPECT_EQ(RelativeProductStd(X(kF), X("{}")), X("{}"));
}

TEST(RelativeProductOp, ScopesJoinInParallel) {
  // Membership scopes participate: both the element keys and the scope keys
  // must agree.
  XSet f = X("{<a, b>^<S, K>}");
  XSet g_match = X("{<b, c>^<K, T>}");
  XSet g_mismatch = X("{<b, c>^<W, T>}");
  XSet joined = RelativeProductStd(f, g_match);
  EXPECT_EQ(joined, X("{<a, c>^<S, T>}"));
  EXPECT_EQ(RelativeProductStd(f, g_mismatch), X("{}"));
}

TEST(RelativeProductOp, LiteralEmptyKeySemantics) {
  // Members with ∅ re-scoped keys match each other under the literal
  // definition; require_nonempty_key suppresses them.
  XSet f = X("{<a>}");  // no column 2 → σ₂ re-scope is ∅
  XSet g = X("{<q>}");  // ω₁ keys column 1... use a G with no column 1 match
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{2, 1}}), Spec({{1, 2}})};  // G keyed on its column 2: ∅
  XSet literal = RelativeProduct(f, g, sigma, omega);
  EXPECT_EQ(literal, X("{<a, q>}"));  // ∅ = ∅ matches; a at 1, q at 2
  RelativeProductOptions strict;
  strict.require_nonempty_key = true;
  EXPECT_EQ(RelativeProduct(f, g, sigma, omega, strict), X("{}"));
}

TEST(RelativeProductOp, AgreesWithNaiveDefinition) {
  // Cross-check the hash implementation against a direct O(n·m) evaluation
  // of Def 10.1 on random relations.
  testing::RandomSetGen gen(55);
  Sigma sigma{Spec({{1, 1}}), Spec({{2, 1}})};
  Sigma omega{Spec({{1, 1}}), Spec({{2, 2}})};
  for (int i = 0; i < 120; ++i) {
    // Relations whose range and domain pools overlap so joins actually fire:
    // F: d* → r*, G built over the same r* pool as its first column.
    XSet f = gen.Relation();
    std::vector<XSet> g_pairs;
    for (int k = 0; k < 4; ++k) {
      g_pairs.push_back(XSet::Pair(XSet::Symbol("r" + std::to_string(gen.Next() % 4)),
                                   XSet::Symbol("z" + std::to_string(gen.Next() % 3))));
    }
    XSet g = XSet::Classical(g_pairs);
    // Naive evaluation.
    std::vector<Membership> expected;
    for (const Membership& mf : f.members()) {
      for (const Membership& mg : g.members()) {
        XSet xk = RescopeByScope(mf.element, sigma.s2);
        XSet yk = RescopeByScope(mg.element, omega.s1);
        XSet sk = RescopeByScope(mf.scope, sigma.s2);
        XSet tk = RescopeByScope(mg.scope, omega.s1);
        if (xk == yk && sk == tk) {
          expected.push_back(Membership{
              Union(RescopeByScope(mf.element, sigma.s1),
                    RescopeByScope(mg.element, omega.s2)),
              Union(RescopeByScope(mf.scope, sigma.s1),
                    RescopeByScope(mg.scope, omega.s2))});
        }
      }
    }
    EXPECT_EQ(RelativeProduct(f, g, sigma, omega), XSet::FromMembers(std::move(expected)));
  }
}

}  // namespace
}  // namespace xst
