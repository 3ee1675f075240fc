#include "src/store/catalog.h"

#include "src/ops/tuple.h"
#include "src/store/codec.h"

namespace xst {

std::string EncodeCatalogEntry(const CatalogEntry& entry) {
  std::string out;
  out.reserve(kEncodedCatalogEntryBytes);
  PutFixed32(entry.first_page, &out);
  PutFixed32(entry.page_span, &out);
  PutFixed64(entry.byte_length, &out);
  out.push_back(static_cast<char>(entry.kind));
  return out;
}

Result<CatalogEntry> DecodeCatalogEntry(std::string_view bytes) {
  if (bytes.size() != kEncodedCatalogEntryBytes) {
    return Status::Corruption("catalog delta of " + std::to_string(bytes.size()) +
                              " bytes, expected " +
                              std::to_string(kEncodedCatalogEntryBytes));
  }
  CatalogEntry entry;
  entry.first_page = DecodeFixed32(bytes.data());
  entry.page_span = DecodeFixed32(bytes.data() + 4);
  entry.byte_length = DecodeFixed64(bytes.data() + 8);
  entry.kind = static_cast<uint8_t>(bytes[16]);
  if (entry.kind != CatalogEntry::kKindBlob && entry.kind != CatalogEntry::kKindIndex) {
    return Status::Corruption("catalog delta has unknown kind " +
                              std::to_string(entry.kind));
  }
  return entry;
}

void Catalog::Put(const std::string& name, const CatalogEntry& entry) {
  entries_[name] = entry;
}

Result<CatalogEntry> Catalog::Get(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("catalog: no set named '" + name + "'");
  }
  return it->second;
}

void Catalog::Apply(const CatalogChange& change) {
  if (change.entry) {
    entries_[change.name] = *change.entry;
  } else {
    entries_.erase(change.name);
  }
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

XSet Catalog::ToXSet() const {
  std::vector<XSet> tuples;
  tuples.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    std::vector<XSet> parts{XSet::String(name), XSet::Int(entry.first_page),
                            XSet::Int(entry.page_span),
                            XSet::Int(static_cast<int64_t>(entry.byte_length))};
    // Blob entries keep the historical 4-tuple spelling byte-for-byte; only
    // non-blob kinds carry the discriminant.
    if (entry.kind != CatalogEntry::kKindBlob) parts.push_back(XSet::Int(entry.kind));
    tuples.push_back(XSet::Tuple(parts));
  }
  return XSet::Classical(tuples);
}

Result<Catalog> Catalog::FromXSet(const XSet& repr) {
  Catalog catalog;
  for (const Membership& m : repr.members()) {
    std::vector<XSet> parts;
    if (!m.scope.empty() || !TupleElements(m.element, &parts) ||
        (parts.size() != 4 && parts.size() != 5) || !parts[0].is_string() ||
        !parts[1].is_int() || !parts[2].is_int() || !parts[3].is_int() ||
        (parts.size() == 5 && !parts[4].is_int())) {
      return Status::TypeError("catalog: malformed entry " + m.element.ToString());
    }
    // Range-check before the narrowing casts: a negative or oversized field
    // must surface as Corruption here, not wrap into a bogus page id that
    // fails much later (or, worse, aliases a live page).
    const int64_t first_page = parts[1].int_value();
    const int64_t page_span = parts[2].int_value();
    const int64_t byte_length = parts[3].int_value();
    constexpr int64_t kMaxU32 = 0xffffffff;
    if (first_page < 0 || first_page > kMaxU32 || page_span < 0 ||
        page_span > kMaxU32 || byte_length < 0) {
      return Status::Corruption(
          "catalog: entry '" + parts[0].str_value() + "' field out of range"
          " (first_page=" + std::to_string(first_page) +
          ", page_span=" + std::to_string(page_span) +
          ", byte_length=" + std::to_string(byte_length) + ")");
    }
    const int64_t kind = parts.size() == 5 ? parts[4].int_value()
                                           : CatalogEntry::kKindBlob;
    if (kind != CatalogEntry::kKindBlob && kind != CatalogEntry::kKindIndex) {
      return Status::Corruption("catalog: entry '" + parts[0].str_value() +
                                "' has unknown kind " + std::to_string(kind));
    }
    CatalogEntry entry;
    entry.first_page = static_cast<uint32_t>(first_page);
    entry.page_span = static_cast<uint32_t>(page_span);
    entry.byte_length = static_cast<uint64_t>(byte_length);
    entry.kind = static_cast<uint8_t>(kind);
    catalog.Put(parts[0].str_value(), entry);
  }
  return catalog;
}

}  // namespace xst
