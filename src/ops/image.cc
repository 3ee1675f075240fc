#include "src/ops/image.h"

#include "src/common/check.h"
#include "src/core/order.h"
#include "src/obs/trace.h"
#include "src/ops/span_kernels.h"
#include "src/ops/tuple.h"

namespace xst {

Sigma Sigma::Std() {
  return Sigma{XSet::Tuple({XSet::Int(1)}), XSet::Tuple({XSet::Int(2)})};
}

Sigma Sigma::Inv() {
  return Sigma{XSet::Tuple({XSet::Int(2)}), XSet::Tuple({XSet::Int(1)})};
}

Result<Sigma> Sigma::FromXSet(const XSet& pair) {
  std::vector<XSet> parts;
  if (!TupleElements(pair, &parts) || parts.size() != 2) {
    return Status::TypeError("Sigma::FromXSet: expected a 2-tuple ⟨σ1,σ2⟩, got " +
                             pair.ToString());
  }
  return Sigma{parts[0], parts[1]};
}

XSet Image(const XSet& r, const XSet& a, const Sigma& sigma) {
  XST_TRACE_SPAN("op.image");
  // 𝔇_σ₂(R |_σ₁ A) in one fused pass: the restriction is never interned.
  std::vector<Membership> out;
  ImageSpans(r.members(), sigma, a.members(), &out);
  XST_DCHECK(IsCanonicalMemberList(out));
  return XST_VALIDATE(XSet::FromSortedMembers(std::move(out)));
}

XSet ImageStd(const XSet& r, const XSet& a) { return Image(r, a, Sigma::Std()); }

}  // namespace xst
