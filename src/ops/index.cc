#include "src/ops/index.h"

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/obs/trace.h"
#include "src/ops/rescope.h"

namespace xst {

ImageIndex::ImageIndex(XSet r, Sigma sigma) : r_(std::move(r)), sigma_(std::move(sigma)) {
  XST_TRACE_SPAN("op.image_index.build");
  // Build in parallel: per-chunk local buckets, merged in chunk order so the
  // per-key posting lists keep the carrier's canonical order.
  auto ms = r_.members();
  std::vector<Buckets> rest =
      ParallelCollect(ms.size(), kSpanGrain, &buckets_, [&](size_t lo, size_t hi, Buckets* dst) {
        for (size_t i = lo; i < hi; ++i) {
          const Membership& m = ms[i];
          XSet projected = RescopeByScope(m.element, sigma_.s2);
          if (projected.empty()) continue;  // can never contribute (Def 7.4)
          Membership out{projected, RescopeByScope(m.scope, sigma_.s2)};
          for (const Membership& inner : m.element.members()) {
            (*dst)[inner].push_back(out);
          }
        }
      });
  for (Buckets& part : rest) {
    for (auto& [key, postings] : part) {
      auto& slot = buckets_[key];
      if (slot.empty()) {
        slot = std::move(postings);
      } else {
        slot.insert(slot.end(), postings.begin(), postings.end());
      }
    }
  }
}

XSet ImageIndex::Lookup(const XSet& probes) const {
  XST_TRACE_SPAN("op.image_index.lookup");
  std::vector<Membership> out;
  for (const Membership& probe : probes.members()) {
    XSet elem_key = RescopeByElement(probe.element, sigma_.s1);
    XSet scope_key = RescopeByElement(probe.scope, sigma_.s1);
    if (elem_key.cardinality() == 1 && scope_key.empty()) {
      auto it = buckets_.find(elem_key.members()[0]);
      if (it != buckets_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
      continue;
    }
    // General shape: evaluate this probe against the full carrier.
    ++fallbacks_;
    ImageSpans(r_.members(), sigma_, MemberSpan(&probe, 1), &out);
  }
  return XST_VALIDATE(XSet::FromMembers(std::move(out)));
}

}  // namespace xst
