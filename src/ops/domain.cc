#include "src/ops/domain.h"

#include "src/common/check.h"
#include "src/core/order.h"
#include "src/obs/trace.h"
#include "src/ops/span_kernels.h"

namespace xst {

XSet SigmaDomain(const XSet& r, const XSet& sigma) {
  XST_TRACE_SPAN("op.sigma_domain");
  std::vector<Membership> out;
  DomainSpans(r.members(), sigma, &out);
  XST_DCHECK(IsCanonicalMemberList(out));
  return XST_VALIDATE(XSet::FromSortedMembers(std::move(out)));
}

}  // namespace xst
