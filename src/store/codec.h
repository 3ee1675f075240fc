// Binary codec for extended sets.
//
// The 1977 thesis is that stored data *is* a set — so the storage layer
// serializes XSet values directly, with no record-format detour. The
// encoding is a compact recursive tag/varint format:
//
//   value   := tag payload
//   tag     := 0x00 ∅ | 0x01 int | 0x02 symbol | 0x03 string | 0x04 set
//   int     := zigzag varint
//   symbol  := varint length + bytes        (same for string)
//   set     := varint member count + (element value, scope value)*
//
// ∅ has its own tag because it is by far the most common scope. Encoded
// bytes are deterministic (canonical member order), so equal sets have equal
// encodings — the property the set store's checksums and dedup rely on.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/core/xset.h"

namespace xst {

/// \brief Appends the canonical encoding of `s` to `out`.
void EncodeXSet(const XSet& s, std::string* out);

/// \brief Convenience: the canonical encoding as a fresh buffer.
std::string EncodeXSetToString(const XSet& s);

/// \brief Decodes one value from `data` starting at *offset; advances
/// *offset past it. Corruption on malformed input.
Result<XSet> DecodeXSet(std::string_view data, size_t* offset);

/// \brief Decodes a buffer that must contain exactly one value.
Result<XSet> DecodeXSetWhole(std::string_view data);

/// \brief Compares the value encoded at data[*offset..] against `x` under
/// core/order's structural order, without decoding: *cmp gets the sign of
/// Compare(value, x). Allocates and interns nothing, and walks only as far
/// as the first difference. When *cmp == 0, *offset is left just past the
/// value; otherwise it is unspecified. Corruption on malformed bytes it
/// walks (DecodeXSet's checks). Exact for canonical encodings; a
/// non-canonical member order compares as encoded, not as DecodeXSet would
/// re-sort it.
Status CompareEncoded(std::string_view data, size_t* offset, const XSet& x, int* cmp);

// Exposed for the page layer and tests.
void PutVarint(uint64_t v, std::string* out);
bool GetVarint(std::string_view data, size_t* offset, uint64_t* out);
uint64_t ZigZagEncode(int64_t v);
int64_t ZigZagDecode(uint64_t v);

// Fixed-width integers in host byte order (little-endian on every supported
// target): the page header and slot directory, and the log's header and
// record framing.
inline void PutFixed32(uint32_t v, std::string* out) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}
inline void PutFixed64(uint64_t v, std::string* out) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}
inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v = 0;
  std::memcpy(&v, src, sizeof v);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v = 0;
  std::memcpy(&v, src, sizeof v);
  return v;
}

}  // namespace xst
