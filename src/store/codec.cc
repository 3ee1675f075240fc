#include "src/store/codec.h"

namespace xst {

namespace {

constexpr uint8_t kTagEmpty = 0x00;
constexpr uint8_t kTagInt = 0x01;
constexpr uint8_t kTagSymbol = 0x02;
constexpr uint8_t kTagString = 0x03;
constexpr uint8_t kTagSet = 0x04;

constexpr uint32_t kMaxDecodeDepth = 512;

Status CorruptAt(size_t offset, const char* what) {
  return Status::Corruption(std::string(what) + " at offset " + std::to_string(offset));
}

Status DecodeImpl(std::string_view data, size_t* offset, uint32_t depth, XSet* out);

Status DecodeStringPayload(std::string_view data, size_t* offset, std::string_view* payload) {
  uint64_t len;
  if (!GetVarint(data, offset, &len)) return CorruptAt(*offset, "truncated length");
  if (len > data.size() - *offset) return CorruptAt(*offset, "string overruns buffer");
  *payload = data.substr(*offset, len);
  *offset += len;
  return Status::OK();
}

// A kTagSet member count, checked the same way for decode and compare.
Status DecodeSetCount(std::string_view data, size_t* offset, uint64_t* count) {
  if (!GetVarint(data, offset, count)) return CorruptAt(*offset, "truncated count");
  // The empty set encodes as kTagEmpty, never as a zero-count kTagSet:
  // admitting both would give ∅ two on-disk spellings and break the
  // equal-sets-have-equal-encodings property checksums and dedup rely on.
  if (*count == 0) return CorruptAt(*offset, "non-canonical zero-count set");
  // Each membership needs at least 2 tag bytes; reject absurd counts
  // before reserving memory.
  if (*count > (data.size() - *offset) / 2) {
    return CorruptAt(*offset, "member count overruns buffer");
  }
  return Status::OK();
}

Status DecodeImpl(std::string_view data, size_t* offset, uint32_t depth, XSet* out) {
  if (depth > kMaxDecodeDepth) return CorruptAt(*offset, "nesting too deep");
  if (*offset >= data.size()) return CorruptAt(*offset, "truncated value");
  uint8_t tag = static_cast<uint8_t>(data[(*offset)++]);
  switch (tag) {
    case kTagEmpty:
      *out = XSet::Empty();
      return Status::OK();
    case kTagInt: {
      uint64_t raw;
      if (!GetVarint(data, offset, &raw)) return CorruptAt(*offset, "truncated int");
      *out = XSet::Int(ZigZagDecode(raw));
      return Status::OK();
    }
    case kTagSymbol: {
      std::string_view payload;
      Status st = DecodeStringPayload(data, offset, &payload);
      if (!st.ok()) return st;
      *out = XSet::Symbol(payload);
      return Status::OK();
    }
    case kTagString: {
      std::string_view payload;
      Status st = DecodeStringPayload(data, offset, &payload);
      if (!st.ok()) return st;
      *out = XSet::String(payload);
      return Status::OK();
    }
    case kTagSet: {
      uint64_t count;
      Status st = DecodeSetCount(data, offset, &count);
      if (!st.ok()) return st;
      std::vector<Membership> members;
      members.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        XSet element, scope;
        st = DecodeImpl(data, offset, depth + 1, &element);
        if (!st.ok()) return st;
        st = DecodeImpl(data, offset, depth + 1, &scope);
        if (!st.ok()) return st;
        members.push_back(Membership{element, scope});
      }
      *out = XSet::FromMembers(std::move(members));
      return Status::OK();
    }
    default:
      return CorruptAt(*offset - 1, "unknown tag");
  }
}

template <typename T>
int Sign(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

Status CompareImpl(std::string_view data, size_t* offset, const internal::Node* x,
                   uint32_t depth, int* cmp) {
  if (depth > kMaxDecodeDepth) return CorruptAt(*offset, "nesting too deep");
  if (*offset >= data.size()) return CorruptAt(*offset, "truncated value");
  const uint8_t tag = static_cast<uint8_t>(data[(*offset)++]);
  NodeKind kind;
  switch (tag) {
    case kTagInt: kind = NodeKind::kInt; break;
    case kTagSymbol: kind = NodeKind::kSymbol; break;
    case kTagString: kind = NodeKind::kString; break;
    case kTagEmpty:  // ∅ is the set of cardinality 0
    case kTagSet: kind = NodeKind::kSet; break;
    default: return CorruptAt(*offset - 1, "unknown tag");
  }
  if (kind != x->kind) {  // rank: int < symbol < string < set
    *cmp = Sign(kind, x->kind);
    return Status::OK();
  }
  switch (kind) {
    case NodeKind::kInt: {
      uint64_t raw;
      if (!GetVarint(data, offset, &raw)) return CorruptAt(*offset, "truncated int");
      *cmp = Sign(ZigZagDecode(raw), x->int_value);
      return Status::OK();
    }
    case NodeKind::kSymbol:
    case NodeKind::kString: {
      std::string_view payload;
      Status st = DecodeStringPayload(data, offset, &payload);
      if (!st.ok()) return st;
      *cmp = Sign(payload.compare(x->str_value), 0);
      return Status::OK();
    }
    case NodeKind::kSet: {
      uint64_t count = 0;
      if (tag == kTagSet) {
        Status st = DecodeSetCount(data, offset, &count);
        if (!st.ok()) return st;
      }
      if (count != x->members.size()) {
        *cmp = Sign<uint64_t>(count, x->members.size());
        return Status::OK();
      }
      for (const Membership& m : x->members) {
        Status st = CompareImpl(data, offset, m.element.node(), depth + 1, cmp);
        if (!st.ok() || *cmp != 0) return st;
        st = CompareImpl(data, offset, m.scope.node(), depth + 1, cmp);
        if (!st.ok() || *cmp != 0) return st;
      }
      *cmp = 0;
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view data, size_t* offset, uint64_t* out) {
  // On every failure path *offset is restored to the start of the varint, so
  // a caller's error message points at the malformed value, not mid-way
  // through it.
  const size_t start = *offset;
  uint64_t result = 0;
  int shift = 0;
  while (*offset < data.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data[(*offset)++]);
    if (shift == 63 && (byte & 0x7e) != 0) {
      // The 10th byte may only carry bit 64's single payload bit; anything
      // above it would be silently shifted out of the uint64_t.
      *offset = start;
      return false;
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
    shift += 7;
  }
  // Truncated, or a continuation bit still set after 10 bytes (> 64 bits).
  *offset = start;
  return false;
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void EncodeXSet(const XSet& s, std::string* out) {
  switch (s.kind()) {
    case NodeKind::kInt:
      out->push_back(static_cast<char>(kTagInt));
      PutVarint(ZigZagEncode(s.int_value()), out);
      return;
    case NodeKind::kSymbol:
    case NodeKind::kString: {
      out->push_back(static_cast<char>(s.is_symbol() ? kTagSymbol : kTagString));
      PutVarint(s.str_value().size(), out);
      out->append(s.str_value());
      return;
    }
    case NodeKind::kSet: {
      if (s.empty()) {
        out->push_back(static_cast<char>(kTagEmpty));
        return;
      }
      out->push_back(static_cast<char>(kTagSet));
      PutVarint(s.cardinality(), out);
      for (const Membership& m : s.members()) {
        EncodeXSet(m.element, out);
        EncodeXSet(m.scope, out);
      }
      return;
    }
  }
}

std::string EncodeXSetToString(const XSet& s) {
  std::string out;
  EncodeXSet(s, &out);
  return out;
}

Result<XSet> DecodeXSet(std::string_view data, size_t* offset) {
  XSet out;
  Status st = DecodeImpl(data, offset, 0, &out);
  if (!st.ok()) return st;
  return out;
}

Result<XSet> DecodeXSetWhole(std::string_view data) {
  size_t offset = 0;
  Result<XSet> r = DecodeXSet(data, &offset);
  if (!r.ok()) return r;
  if (offset != data.size()) {
    return Status::Corruption("trailing bytes after value: " +
                              std::to_string(data.size() - offset));
  }
  return r;
}

Status CompareEncoded(std::string_view data, size_t* offset, const XSet& x, int* cmp) {
  return CompareImpl(data, offset, x.node(), 0, cmp);
}

}  // namespace xst
