// A shared cursor/iterator abstraction over set operands, so consumers (the
// bytecode VM above all) read memberships uniformly whether the operand
// lives in the interner or in a SetStore page file.
//
// The unit of iteration is a BATCH: a borrowed span of canonical
// memberships, valid until the next NextBatch() call or cursor destruction.
// Successive batches are consecutive slices of one canonical member list,
// so a consumer that concatenates them reconstructs the operand's canonical
// list without re-sorting. An interned operand additionally exposes its
// whole handle via WholeSet() — the zero-copy fast path — and atoms (which
// have no membership list at all) are ONLY representable that way, so
// sources must return WholeSet() for atoms or lose them.
//
// A cursor is a value, not a view: every cursor in this library holds its
// whole answer from the open on (a stored cursor reads it under one
// consistent view, store/cursor.h), so a source reports errors from Open
// and later writes to the source never reach an open cursor.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/order.h"
#include "src/core/xset.h"

namespace xst {

/// \brief Streams one operand's canonical member list in batches.
class MemberCursor {
 public:
  virtual ~MemberCursor() = default;

  /// \brief The next batch of members; empty when exhausted. The span
  /// borrows from the cursor and is invalidated by the next call.
  virtual std::span<const Membership> NextBatch() = 0;

  /// \brief The operand as an already-interned handle, when the cursor has
  /// one (in-memory operands and blob-stored sets do; an ordered index's
  /// answer is a member list instead). Consumers should prefer this: it is
  /// zero-copy and preserves atoms.
  virtual std::optional<XSet> WholeSet() const { return std::nullopt; }

  /// \brief Non-OK when a cursor that reads lazily hit an error after its
  /// open; NextBatch signals exhaustion and error identically (an empty
  /// span), so consumers that drain a cursor check this afterwards. Every
  /// cursor in this library reads at open and stays OK.
  virtual Status status() const { return Status::OK(); }
};

/// \brief Cursor over an interned set (or atom): one batch, zero copies.
class XSetCursor final : public MemberCursor {
 public:
  explicit XSetCursor(XSet set) : set_(std::move(set)) {}

  std::span<const Membership> NextBatch() override {
    if (done_) return {};
    done_ = true;
    return set_.members();
  }

  std::optional<XSet> WholeSet() const override { return set_; }

 private:
  XSet set_;
  bool done_ = false;
};

/// \brief Filters an inner cursor down to members whose ELEMENT lies in
/// [lo, hi] under the structural order — the generic (non-indexed) range
/// access path. Batches are copied into an internal buffer; successive
/// batches are consecutive slices of the RESULT's canonical list, so the
/// batching contract holds relative to the restricted set.
class ElementRangeCursor final : public MemberCursor {
 public:
  ElementRangeCursor(std::unique_ptr<MemberCursor> inner, XSet lo, XSet hi)
      : inner_(std::move(inner)), lo_(std::move(lo)), hi_(std::move(hi)) {}

  std::span<const Membership> NextBatch() override {
    buffer_.clear();
    while (!done_ && buffer_.empty()) {
      std::span<const Membership> batch = inner_->NextBatch();
      if (batch.empty()) {
        done_ = true;
        break;
      }
      for (const Membership& m : batch) {
        if (Compare(m.element, hi_) > 0) {
          // Elements ascend within the canonical list, so the first
          // overshoot ends the range for good.
          done_ = true;
          break;
        }
        if (Compare(m.element, lo_) >= 0) buffer_.push_back(m);
      }
    }
    return buffer_;
  }

  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<MemberCursor> inner_;
  XSet lo_;
  XSet hi_;
  std::vector<Membership> buffer_;
  bool done_ = false;
};

/// \brief Opens cursors over named operands — the VM's only window onto
/// binding environments, set stores, or anything else that names sets.
class CursorSource {
 public:
  virtual ~CursorSource() = default;

  /// \brief Opens a cursor over the operand bound to `name`; NotFound when
  /// the source does not bind it.
  virtual Result<std::unique_ptr<MemberCursor>> Open(const std::string& name) const = 0;

  /// \brief Opens a cursor over {z^w ∈ name : lo ≤ z ≤ hi} (element-interval
  /// σ-restriction). The default filters a full cursor; sources with an
  /// ordered index override it to seek directly (leaf-only page access).
  /// Atoms have no members, so their range is empty.
  virtual Result<std::unique_ptr<MemberCursor>> OpenElementRange(
      const std::string& name, const XSet& lo, const XSet& hi) const {
    Result<std::unique_ptr<MemberCursor>> inner = Open(name);
    if (!inner.ok()) return inner.status();
    return std::unique_ptr<MemberCursor>(
        new ElementRangeCursor(std::move(*inner), lo, hi));
  }
};

/// \brief CursorSource over an in-memory name → set map (xsp::Bindings).
class MapCursorSource final : public CursorSource {
 public:
  explicit MapCursorSource(const std::map<std::string, XSet>& bindings)
      : bindings_(bindings) {}

  Result<std::unique_ptr<MemberCursor>> Open(const std::string& name) const override {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      return Status::NotFound("unbound name '" + name + "'");
    }
    return std::unique_ptr<MemberCursor>(new XSetCursor(it->second));
  }

 private:
  const std::map<std::string, XSet>& bindings_;
};

}  // namespace xst
