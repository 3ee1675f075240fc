// Relative product (Def 10.1): the XST join.
//
//   F /⟨ω₁,ω₂⟩⟨σ₁,σ₂⟩ G = { z^τ : ∃x,s,y,t ( x ∈ₛ F & y ∈ₜ G
//                             & x^{/σ₂/} = y^{/ω₁/}  &  s^{/σ₂/} = t^{/ω₁/}
//                             & z = x^{/σ₁/} ∪ y^{/ω₂/}
//                             & τ = s^{/σ₁/} ∪ t^{/ω₂/} ) }
//
// σ₂ and ω₁ select the join keys of the two operands; σ₁ and ω₂ select and
// *place* the surviving columns of the result. By varying the four specs the
// one operation expresses the whole family the paper sketches in §10 —
// compose, join-keep-key, semijoin, inverse compose, column permutations —
// parameter sets 1–8 of the paper are reproduced in the tests.
//
// Implementation: hash partitioning on the re-scoped key pair, O(|F| + |G| +
// output) expected, i.e. a classic hash equi-join over set-theoretic keys.
//
// Edge case, implemented literally as the definition reads: a member whose
// key re-scope is ∅ matches every opposite member whose key re-scope is also
// ∅. Query layers that want strict key joins set
// RelativeProductOptions::require_nonempty_key.

#pragma once

#include "src/core/xset.h"
#include "src/ops/image.h"

namespace xst {

struct RelativeProductOptions {
  /// Drop members whose join-key re-scope is ∅ instead of matching them
  /// against all other ∅-keyed members (the literal reading).
  bool require_nonempty_key = false;
};

/// \brief F /σω G (Def 10.1). σ = ⟨σ₁,σ₂⟩ governs F, ω = ⟨ω₁,ω₂⟩ governs G.
XSet RelativeProduct(const XSet& f, const XSet& g, const Sigma& sigma, const Sigma& omega,
                     const RelativeProductOptions& options = {});

/// \brief The CST relative product R/S over sets of pairs:
/// {⟨a,c⟩ : ⟨a,b⟩ ∈ R & ⟨b,c⟩ ∈ S}.
XSet RelativeProductStd(const XSet& r, const XSet& s);

}  // namespace xst
