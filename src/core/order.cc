#include "src/core/order.h"

#include <algorithm>

#include "src/common/thread_pool.h"

namespace xst {

namespace {

// A functor (not a function) so sort/merge instantiate with an inlinable
// comparator instead of an opaque function pointer.
struct MembershipLess {
  bool operator()(const Membership& a, const Membership& b) const {
    return CompareMembership(a, b) < 0;
  }
};

// Below this size the serial sort wins over any splitting overhead.
constexpr size_t kParallelSortMin = size_t{1} << 13;

// Sorts [first, first + n) with a merge sort whose chunk sorts and merge
// levels execute on `pool`; comparisons are deep structural compares, so
// the sort dominates canonicalization cost for fresh data.
void ParallelMergeSort(std::vector<Membership>::iterator first, size_t n, ThreadPool& pool) {
  // Power-of-two chunk count keeps the merge tree regular.
  size_t chunks = 1;
  while (chunks < pool.size() + 1) chunks <<= 1;
  const size_t chunk_size = (n + chunks - 1) / chunks;
  auto at = [&](size_t c) { return first + static_cast<ptrdiff_t>(std::min(n, c * chunk_size)); };
  pool.ParallelFor(chunks, 1, [&](size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) std::sort(at(c), at(c + 1), MembershipLess{});
  });
  for (size_t width = 1; width < chunks; width *= 2) {
    const size_t pairs = chunks / (2 * width);
    pool.ParallelFor(pairs, 1, [&](size_t lo, size_t hi) {
      for (size_t p = lo; p < hi; ++p) {
        std::inplace_merge(at(2 * p * width), at(2 * p * width + width),
                           at(2 * p * width + 2 * width), MembershipLess{});
      }
    });
  }
}

}  // namespace

int Compare(const XSet& a, const XSet& b) {
  if (a == b) return 0;  // interned: pointer equality is structural equality
  const internal::Node* na = a.node();
  const internal::Node* nb = b.node();
  if (na->kind != nb->kind) {
    return static_cast<int>(na->kind) < static_cast<int>(nb->kind) ? -1 : 1;
  }
  switch (na->kind) {
    case NodeKind::kInt:
      return na->int_value < nb->int_value ? -1 : 1;
    case NodeKind::kSymbol:
    case NodeKind::kString: {
      int c = na->str_value.compare(nb->str_value);
      return c < 0 ? -1 : 1;  // c != 0: interning guarantees distinct payloads
    }
    case NodeKind::kSet: {
      if (na->members.size() != nb->members.size()) {
        return na->members.size() < nb->members.size() ? -1 : 1;
      }
      for (size_t i = 0; i < na->members.size(); ++i) {
        int c = CompareMembership(na->members[i], nb->members[i]);
        if (c != 0) return c;
      }
      return 0;  // unreachable for distinct interned nodes
    }
  }
  return 0;
}

int CompareMembership(const Membership& a, const Membership& b) {
  int c = Compare(a.element, b.element);
  if (c != 0) return c;
  return Compare(a.scope, b.scope);
}

bool IsCanonicalMemberList(std::span<const Membership> members) {
  for (size_t i = 1; i < members.size(); ++i) {
    if (CompareMembership(members[i - 1], members[i]) >= 0) return false;
  }
  return true;
}

void CanonicalizeMembers(std::vector<Membership>* v, size_t from) {
  const auto first = v->begin() + static_cast<ptrdiff_t>(from);
  const size_t n = v->size() - from;
  if (n <= 1) return;
  // Producers that emit in carrier order (joins, order-preserving filters)
  // hand over already-sorted data; the linear scan is far cheaper than the
  // n·log n deep compares a redundant sort would spend.
  if (!std::is_sorted(first, v->end(), MembershipLess{})) {
    if (n < kParallelSortMin || ThreadPool::InWorker() || ThreadPool::Global().size() == 0) {
      std::sort(first, v->end(), MembershipLess{});
    } else {
      ParallelMergeSort(first, n, ThreadPool::Global());
    }
  }
  v->erase(std::unique(first, v->end()), v->end());
}

}  // namespace xst
