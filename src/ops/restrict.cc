#include "src/ops/restrict.h"

#include "src/common/check.h"
#include "src/core/order.h"
#include "src/obs/trace.h"
#include "src/ops/span_kernels.h"

namespace xst {

XSet SigmaRestrict(const XSet& r, const XSet& sigma, const XSet& a) {
  XST_TRACE_SPAN("op.sigma_restrict");
  std::vector<Membership> kept;
  RestrictSpans(r.members(), sigma, a.members(), &kept);
  // An ordered subsequence of R's canonical member list is itself canonical.
  XST_DCHECK(IsCanonicalMemberList(kept));
  return XST_VALIDATE(XSet::FromSortedMembers(std::move(kept)));
}

XSet ElementRangeRestrict(const XSet& r, const XSet& lo, const XSet& hi) {
  XST_TRACE_SPAN("op.element_range");
  std::vector<Membership> kept;
  ElementRangeSpans(r.members(), lo, hi, &kept);
  XST_DCHECK(IsCanonicalMemberList(kept));
  return XST_VALIDATE(XSet::FromSortedMembers(std::move(kept)));
}

}  // namespace xst
