// Page-native B+tree ordered index over the pager (ROADMAP item 1).
//
// The paper's operations are defined over *ordered* canonical member lists,
// so the natural on-disk index for a stored set is a B+tree keyed by the
// structural order from core/order: every leaf entry is one encoded
// membership, leaves are chained left-to-right, and an in-order walk of the
// leaf level IS the set's canonical member list. Range σ-restriction by
// element interval and member point-lookup then touch O(height + leaves in
// range) pages instead of decoding the whole blob.
//
// Layout (one node per 8 KiB slotted page):
//   record 0          node header: kind byte (0x00 leaf / 0x01 internal);
//                     leaves append varint(next_leaf_page + 1), 0 = none
//   records 1..n      entries, in strictly ascending key order
//     leaf entry      encoded membership: EncodeXSet(element) ‖
//                     EncodeXSet(scope), or an overflow reference
//     internal entry  varint(child_page) ‖ key payload, where the key is the
//                     exact minimum membership of the child's subtree (full
//                     keys, not separators — parent/child consistency is
//                     byte-comparable and Validate can check equality)
//   overflow          entries longer than kMaxInlineEntry store
//                     0xFE ‖ varint(first_page, page_span, byte_length) and
//                     spill the payload across a contiguous page span (one
//                     record per page), written, read and validated by the
//                     same page-span helper as SetStore blobs (pager.h).
//                     Spans are immutable once written; stale ones are
//                     garbage until Compact rewrites the store.
//
// Mutations rewrite whole nodes (slotted pages have no in-place update), so
// a crash mid-mutation leaves either a consistent pre-/post-state or a tree
// that ValidateBTree/checksums detect as Corruption — the same contract the
// blob store proves under fault injection. Fill is tracked in BYTES, not
// entry counts, because entries vary from a few bytes to kMaxInlineEntry:
// non-root nodes keep at least kMinNodeFill bytes of entries, splits cut at
// the byte midpoint, and underflow is repaired by borrow (when the sibling
// is byte-rich) or merge (when both halves fit one page).
//
// Reads (Contains, ReadRange) take no store lock: each node visit copies one
// ReadPageSnapshot and searches it in place, comparing encoded keys against
// the probe (CompareEncoded) and decoding only the members a read returns.
// ReadRange walks the leaves first, copying each in-range leaf, and then
// decodes the copies across the thread pool, so a large read re-interns its
// members on every core (DESIGN.md §13.1, §15.2). Each snapshot is
// consistent on its own, but a walk across leaves is only as consistent as
// its caller makes it: SetStore runs a whole read inside one validated
// view, so a multi-leaf answer is one commit.
// Mutations run under SetStore::mu_ and write whole pages (WritePage).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/xset.h"
#include "src/store/pager.h"

namespace xst {

/// \brief Entries whose encoded payload exceeds this many bytes spill to an
/// overflow page span. Chosen so a non-root node always holds several
/// entries (kMinNodeFill covers at least one maximal inline entry).
inline constexpr size_t kMaxInlineEntry = 1024;

/// \brief Upper bound on tree height accepted anywhere (descents, catalog
/// entries): a deeper tree than this is structurally impossible for any
/// page count and signals corruption or a cycle.
inline constexpr uint32_t kMaxBTreeHeight = 64;

/// \brief Identity of one tree: root page, level count, cardinality.
/// Persisted in the catalog (first_page=root, page_span=height,
/// byte_length=member_count for index-kind entries).
struct BTreeInfo {
  uint32_t root = kInvalidPageId;
  uint32_t height = 0;  // levels; 1 = a single leaf
  uint64_t member_count = 0;
};

/// \brief Handle over one stored tree. Mutations update the handle's info()
/// (root/height/member_count); the caller persists it to the catalog.
class BTree {
 public:
  BTree(Pager* pager, const BTreeInfo& info) : pager_(pager), info_(info) {}

  /// \brief Bulk-loads a tree from a canonical (strictly ascending) member
  /// list, packing leaves left-to-right. An empty list builds a single
  /// empty leaf, so the root is always a live page.
  static Result<BTreeInfo> Build(Pager& pager, std::span<const Membership> members);

  const BTreeInfo& info() const { return info_; }

  /// \brief Inserts a membership; false if it was already present (the tree
  /// is unchanged and no page is written: the entry, and any overflow span,
  /// is encoded only after the leaf search). Splits propagate upward and may
  /// grow a new root.
  Result<bool> Insert(const Membership& m);

  /// \brief Removes a membership; false if absent. Underflow is repaired by
  /// borrow/merge; a single-child internal root collapses.
  Result<bool> Erase(const Membership& m);

  /// \brief Point lookup along one root-to-leaf path.
  Result<bool> Contains(const Membership& m) const;

  /// \brief The one read: appends every member whose ELEMENT lies in
  /// [*lo, *hi] under the structural order (a null bound is open) to `out`,
  /// in canonical order. It seeks `lo`, copies the in-range leaves, then
  /// decodes their entries in chunks of kSpanGrain members on the global
  /// pool; a read of at most one grain decodes inline. Nothing past `hi` is
  /// decoded, and a failure is the first error in member order, exactly as
  /// a serial walk would report it.
  Status ReadRange(const XSet* lo, const XSet* hi, std::vector<Membership>* out) const;

  /// \brief Full structural check: key ordering within and across nodes,
  /// parent key == exact child-subtree minimum, uniform leaf depth, byte
  /// fill floors, leaf chaining, page-id cycles, and cardinality against
  /// info().member_count. Returns Corruption with a diagnostic on the first
  /// violated invariant.
  Status Validate() const;

 private:
  Pager* pager_;
  BTreeInfo info_;
};

/// \brief Free-function form of BTree::Validate for callers that only hold
/// the catalog identity. Wired into the XST_VALIDATE tiers by SetStore:
/// level ≥ 1 validates after every tree mutation, level ≥ 2 additionally
/// re-validates on open and on every cursor seek.
Status ValidateBTree(Pager& pager, const BTreeInfo& info);

}  // namespace xst
