#include "src/ops/product.h"

#include <unordered_set>

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/common/thread_pool.h"
#include "src/obs/trace.h"
#include "src/ops/boolean.h"
#include "src/ops/tuple.h"

namespace xst {

namespace {

// (x·y) under kDisjointUnion: union with a guard that no position (scope)
// appears on both sides, which would silently merge or drop memberships.
Result<XSet> DisjointConcat(const XSet& x, const XSet& y) {
  std::unordered_set<uint64_t> scopes_of_x;
  for (const Membership& m : x.members()) scopes_of_x.insert(m.scope.hash());
  for (const Membership& m : y.members()) {
    if (scopes_of_x.count(m.scope.hash()) != 0) {
      // Hash hit: confirm a genuine scope collision before failing.
      for (const Membership& mx : x.members()) {
        if (mx.scope == m.scope) {
          return Status::TypeError("CrossProduct: operands share position " +
                                   m.scope.ToString());
        }
      }
    }
  }
  return Union(x, y);
}

Result<XSet> ConcatForMode(const XSet& x, const XSet& y, ConcatMode mode) {
  switch (mode) {
    case ConcatMode::kTupleShift:
      return Concat(x, y);
    case ConcatMode::kDisjointUnion:
      return DisjointConcat(x, y);
  }
  return Status::Invalid("CrossProduct: unknown concat mode");
}

}  // namespace

Result<XSet> CrossProduct(const XSet& a, const XSet& b, ConcatMode mode) {
  XST_TRACE_SPAN("op.cross_product");
  // |A|·|B| independent concatenations: parallel over A's members, with the
  // full inner loop over B per chunk item. A chunk stops at its first concat
  // error; the first error in chunk order is the result.
  struct Chunk {
    std::vector<Membership> members;
    Status error = Status::OK();
  };
  auto mas = a.members();
  auto mbs = b.members();
  Chunk result;
  result.members.reserve(mas.size() * mbs.size());
  std::vector<Chunk> rest = ParallelCollect(
      mas.size(), /*min_chunk=*/std::max<size_t>(1, 512 / (mbs.size() + 1)), &result,
      [&](size_t lo, size_t hi, Chunk* dst) {
        dst->members.reserve(dst->members.size() + (hi - lo) * mbs.size());
        for (size_t i = lo; i < hi; ++i) {
          for (const Membership& mb : mbs) {
            Result<XSet> element = ConcatForMode(mas[i].element, mb.element, mode);
            if (!element.ok()) {
              dst->error = element.status();
              return;
            }
            Result<XSet> scope = ConcatForMode(mas[i].scope, mb.scope, mode);
            if (!scope.ok()) {
              dst->error = scope.status();
              return;
            }
            dst->members.push_back(Membership{*element, *scope});
          }
        }
      });
  XST_RETURN_NOT_OK(result.error);
  for (const Chunk& part : rest) {
    XST_RETURN_NOT_OK(part.error);
    result.members.insert(result.members.end(), part.members.begin(), part.members.end());
  }
  return XST_VALIDATE(XSet::FromMembers(std::move(result.members)));
}

XSet Tag(const XSet& a, const XSet& tag) {
  std::vector<Membership> out;
  out.reserve(a.cardinality());
  for (const Membership& m : a.members()) {
    XSet element = XSet::FromMembers({Membership{m.element, tag}});
    XSet scope = m.scope.empty()
                     ? XSet::Empty()  // Def 9.6
                     : XSet::FromMembers({Membership{m.scope, tag}});  // Def 9.5
    out.push_back(Membership{element, scope});
  }
  return XST_VALIDATE(XSet::FromMembers(std::move(out)));
}

Result<XSet> CartesianProduct(const XSet& a, const XSet& b) {
  return CrossProduct(Tag(a, XSet::Int(1)), Tag(b, XSet::Int(2)),
                      ConcatMode::kDisjointUnion);
}

}  // namespace xst
