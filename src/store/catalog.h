// The set-store catalog: name → blob location.
//
// Dogfooding the thesis that every data representation has a set identity,
// the catalog itself round-trips through an extended set:
//
//   { ⟨"name", first_page, page_span, byte_length⟩, … }
//
// — a classical set of 4-tuples — and is persisted with the same codec and
// pages as user data. That set is written only by a checkpoint (and by a
// fresh store's first commit); a commit logs just the entries it changed,
// each as a delta record whose value is EncodeCatalogEntry's fixed-width
// form, and the store applies them to its in-memory catalog (store/wal.h).
//
// Ordered-index entries (PR8) extend the tuple with a kind discriminant:
// ⟨"name", root_page, height, member_count, kind⟩. Blob entries keep the
// 4-tuple spelling, so catalogs written before indexes existed load
// unchanged, and the three location fields are reinterpreted per kind
// (first_page=root, page_span=height, byte_length=cardinality).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/core/xset.h"

namespace xst {

struct CatalogEntry {
  uint32_t first_page = kInvalidFirstPage;  // index kind: the tree's root page
  uint32_t page_span = 0;                   // index kind: the tree's height
  uint64_t byte_length = 0;                 // index kind: the member count
  uint8_t kind = kKindBlob;

  static constexpr uint32_t kInvalidFirstPage = 0xffffffff;
  static constexpr uint8_t kKindBlob = 0;
  static constexpr uint8_t kKindIndex = 1;
  bool operator==(const CatalogEntry&) const = default;
};

/// \brief One catalog change a commit makes: `name` now maps to `entry`,
/// or is removed when `entry` is empty.
struct CatalogChange {
  std::string name;
  std::optional<CatalogEntry> entry;
};

/// \brief The bytes of EncodeCatalogEntry's fixed-width form.
inline constexpr size_t kEncodedCatalogEntryBytes = 17;

/// \brief An entry's value bytes in a log delta: first_page u32, page_span
/// u32, byte_length u64, kind u8.
std::string EncodeCatalogEntry(const CatalogEntry& entry);

/// \brief Inverse of EncodeCatalogEntry; Corruption on a wrong length or
/// an unknown kind.
Result<CatalogEntry> DecodeCatalogEntry(std::string_view bytes);

class Catalog {
 public:
  /// \brief Registers or replaces a name.
  void Put(const std::string& name, const CatalogEntry& entry);

  /// \brief Looks a name up; NotFound if absent.
  Result<CatalogEntry> Get(const std::string& name) const;

  /// \brief Applies one change: Put, or a removal (of a name that may be
  /// absent).
  void Apply(const CatalogChange& change);

  bool Contains(const std::string& name) const { return entries_.count(name) != 0; }

  /// \brief All names in lexicographic order.
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

  /// \brief The catalog as an extended set (see file comment).
  XSet ToXSet() const;

  /// \brief Rebuilds a catalog from its set form; TypeError on malformed
  /// entries.
  static Result<Catalog> FromXSet(const XSet& repr);

 private:
  std::map<std::string, CatalogEntry> entries_;
};

}  // namespace xst
