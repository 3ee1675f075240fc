// SetStore-backed implementations of the core cursor abstraction
// (src/core/cursor.h), so VM operands stream from the pager the same way
// they stream from the interner.
//
// Two stored shapes, one contract:
//  - blob sets decode into the interner on open (Get) and the cursor serves
//    fixed-size batch slices of the decoded member list;
//  - ordered-index sets (SetStore::PutIndexed) stream leaf-by-leaf off the
//    B+tree via BTreeCursor, never materializing the whole set — one leaf
//    page snapshot copied per batch.
// StoreCursorSource picks per name through SetStore::OpenCursor, so VM
// consumers of the kLoadBinding path are storage-mode agnostic. Atoms are
// handed over via WholeSet(), which is the only representation that
// preserves them. Page-backed batches can fail (I/O, corruption); NextBatch
// reports that as exhaustion and consumers must check status() afterwards.

#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cursor.h"
#include "src/store/btree.h"
#include "src/store/setstore.h"

namespace xst {

/// \brief Members per NextBatch() from a stored cursor.
inline constexpr size_t kStoredCursorBatch = 4096;

/// \brief Cursor over one stored set, serving batch slices of its canonical
/// member list.
class StoredSetCursor final : public MemberCursor {
 public:
  explicit StoredSetCursor(XSet set) : set_(std::move(set)) {}

  std::span<const Membership> NextBatch() override {
    std::span<const Membership> ms = set_.members();
    if (offset_ >= ms.size()) return {};
    const size_t len = std::min(kStoredCursorBatch, ms.size() - offset_);
    std::span<const Membership> batch = ms.subspan(offset_, len);
    offset_ += len;
    return batch;
  }

  std::optional<XSet> WholeSet() const override {
    // Atoms have no member list to stream; sets stream in batches so
    // consumers exercise the same path a page-native cursor will use.
    if (set_.is_atom()) return set_;
    return std::nullopt;
  }

 private:
  XSet set_;
  size_t offset_ = 0;
};

/// \brief Cursor streaming an ordered-index set leaf-by-leaf. Each
/// NextBatch() is one SetStore::ReadIndexBatch call — one leaf page of
/// memberships — so memory stays O(leaf), not O(set). Optionally bounded
/// above by an element (`hi`) for range σ-restriction; the lower bound is
/// baked into the starting position by SeekElement. Invalidated by any
/// mutation of the store.
class BTreeCursor final : public MemberCursor {
 public:
  BTreeCursor(SetStore& store, BTreeCursorPos pos, std::optional<XSet> hi)
      : store_(store), pos_(pos), hi_(std::move(hi)) {}

  std::span<const Membership> NextBatch() override {
    if (!status_.ok()) return {};
    buffer_.clear();
    Status read = store_.ReadIndexBatch(&pos_, hi_ ? &*hi_ : nullptr, &buffer_);
    if (!read.ok()) {
      status_ = std::move(read);
      buffer_.clear();
    }
    return buffer_;
  }

  Status status() const override { return status_; }

 private:
  SetStore& store_;
  BTreeCursorPos pos_;
  std::optional<XSet> hi_;
  std::vector<Membership> buffer_;
  Status status_;
};

/// \brief CursorSource resolving names against a SetStore catalog. The
/// store chooses the cursor per storage mode (blob slices vs B+tree leaf
/// streaming), and indexed sets serve element ranges by seeking instead of
/// filtering.
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
