// SetStore-backed implementations of the core cursor abstraction
// (src/core/cursor.h), so VM operands come from the pager the same way
// they come from the interner.
//
// A stored cursor is one consistent read: SetStore::OpenCursor and
// OpenElementRange read the whole answer under one view at open, and the
// cursor owns it from then on. Two stored shapes, one contract:
//  - blob sets decode into the interner and arrive as an XSetCursor, whose
//    WholeSet() hands the value over (the only representation that keeps
//    atoms);
//  - ordered-index sets (SetStore::PutIndexed) are read by one
//    BTree::ReadRange, which walks the in-range leaves and decodes them
//    across the thread pool, into a MemberListCursor that gives out the
//    owned member list as one batch.
// StoreCursorSource picks per name through SetStore::OpenCursor, so VM
// consumers of the kLoadBinding path are storage-mode agnostic. Errors
// (I/O, corruption) come back from the open; the cursors never fail.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cursor.h"
#include "src/store/setstore.h"

namespace xst {

/// \brief Cursor over an owned canonical member list, given out as one
/// batch: an ordered index's answer, read in full at open.
class MemberListCursor final : public MemberCursor {
 public:
  explicit MemberListCursor(std::vector<Membership> members)
      : members_(std::move(members)) {}

  std::span<const Membership> NextBatch() override {
    if (done_) return {};
    done_ = true;
    return members_;
  }

 private:
  std::vector<Membership> members_;
  bool done_ = false;
};

/// \brief CursorSource resolving names against a SetStore catalog. The
/// store chooses the cursor per storage mode, and indexed sets serve
/// element ranges by seeking instead of filtering.
class StoreCursorSource final : public CursorSource {
 public:
  explicit StoreCursorSource(SetStore& store) : store_(store) {}

  Result<std::unique_ptr<MemberCursor>> Open(const std::string& name) const override {
    return store_.OpenCursor(name);
  }

  Result<std::unique_ptr<MemberCursor>> OpenElementRange(
      const std::string& name, const XSet& lo, const XSet& hi) const override {
    return store_.OpenElementRange(name, lo, hi);
  }

 private:
  SetStore& store_;
};

}  // namespace xst
