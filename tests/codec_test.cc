// Binary codec: round-trips, determinism, and corruption handling.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "src/core/order.h"
#include "src/core/validate.h"
#include "src/store/codec.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("XST_FUZZ_SEED")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) return static_cast<uint64_t>(v);
  }
  return 1977;  // the year of the paper
}

TEST(Varint, RoundTrips) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     0xffffffffull, 0xffffffffffffffffull}) {
    std::string buf;
    PutVarint(v, &buf);
    size_t offset = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint(buf, &offset, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(Varint, TruncatedFails) {
  std::string buf;
  PutVarint(0xffffffffull, &buf);
  buf.pop_back();
  size_t offset = 0;
  uint64_t out;
  EXPECT_FALSE(GetVarint(buf, &offset, &out));
}

TEST(Varint, OverflowBitsInTenthByteFail) {
  // Nine 0xff continuation bytes put the decoder at shift 63; a 10th byte
  // with any payload bit above bit 0 would be silently shifted out of the
  // uint64_t (the pre-fix decoder returned a wrong value here).
  std::string buf(9, static_cast<char>(0xff));
  buf.push_back(0x7f);  // bits 1..6 overflow
  size_t offset = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint(buf, &offset, &out));
  EXPECT_EQ(offset, 0u);  // failure restores the offset

  // The same shape with only bit 0 set is UINT64_MAX and must still decode.
  buf.back() = 0x01;
  offset = 0;
  ASSERT_TRUE(GetVarint(buf, &offset, &out));
  EXPECT_EQ(out, 0xffffffffffffffffull);
  EXPECT_EQ(offset, buf.size());
}

TEST(Varint, MoreThanTenBytesFailsWithOffsetRestored) {
  // Eleven continuation bytes: > 64 bits of payload. The pre-fix decoder
  // returned false but left *offset advanced ten bytes into the garbage.
  std::string buf(11, static_cast<char>(0x80));
  buf.push_back(0x00);
  size_t offset = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint(buf, &offset, &out));
  EXPECT_EQ(offset, 0u);
}

TEST(ZigZag, RoundTrips) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 63, -64, 1000000, -1000000,
                                        INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(Codec, AtomRoundTrips) {
  for (const char* text : {"0", "-9", "922337203685477580", "sym", "\"str with ws\"",
                           "{}"}) {
    XSet original = X(text);
    Result<XSet> back = DecodeXSetWhole(EncodeXSetToString(original));
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    EXPECT_EQ(*back, original);
  }
}

TEST(Codec, StructuredRoundTrips) {
  testing::RandomSetGen gen(2024);
  for (int i = 0; i < 400; ++i) {
    XSet original = gen.Value(4, 5);
    Result<XSet> back = DecodeXSetWhole(EncodeXSetToString(original));
    ASSERT_TRUE(back.ok()) << original.ToString();
    EXPECT_EQ(*back, original);
  }
}

TEST(Codec, EncodingIsDeterministicAndCanonical) {
  // Equal sets (regardless of construction order) encode identically.
  XSet a = X("{z^2, a^1}");
  XSet b = X("{a^1, z^2}");
  EXPECT_EQ(EncodeXSetToString(a), EncodeXSetToString(b));
}

TEST(Codec, EmptySetIsOneByte) {
  EXPECT_EQ(EncodeXSetToString(XSet::Empty()).size(), 1u);
}

TEST(Codec, SharedScopesCostPerMembership) {
  // Encoding is a tree (no back-references): documented size behavior.
  XSet one = X("{a^1}");
  XSet two = X("{a^1, b^1}");
  EXPECT_GT(EncodeXSetToString(two).size(), EncodeXSetToString(one).size());
}

TEST(Codec, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodeXSetWhole("").status().IsCorruption());
  EXPECT_TRUE(DecodeXSetWhole("\x7f").status().IsCorruption());  // unknown tag
  // Set with a count that overruns the buffer.
  std::string bad;
  bad.push_back(0x04);
  PutVarint(1000000, &bad);
  EXPECT_TRUE(DecodeXSetWhole(bad).status().IsCorruption());
  // Truncated string payload.
  std::string trunc;
  trunc.push_back(0x02);
  PutVarint(10, &trunc);
  trunc += "abc";
  EXPECT_TRUE(DecodeXSetWhole(trunc).status().IsCorruption());
}

TEST(Codec, AbsurdCountGuardIsExact) {
  // Four payload bytes remain after the count, so at two tag bytes per
  // membership at most two memberships can follow. The pre-fix guard
  // (remaining/2 + 1) admitted count=3 and only failed later with a
  // misleading "truncated value"; the exact guard rejects the count itself.
  std::string bad;
  bad.push_back(0x04);
  PutVarint(3, &bad);
  bad.append(4, '\x00');
  Status st = DecodeXSetWhole(bad).status();
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.ToString().find("member count overruns buffer"), std::string::npos)
      << st.ToString();
  // count == remaining/2 is still admitted (and decodes: two ∅^∅ members
  // collapse to one).
  std::string ok;
  ok.push_back(0x04);
  PutVarint(2, &ok);
  ok.append(4, '\x00');
  EXPECT_TRUE(DecodeXSetWhole(ok).ok());
}

TEST(Codec, RejectsNonCanonicalEmptySetEncoding) {
  // ∅ has exactly one encoding: the kTagEmpty byte. A zero-count kTagSet
  // would be a second spelling — decode must reject it so re-encoding always
  // round-trips byte-for-byte (the checksum/dedup assumption).
  const std::string canonical(1, '\x00');
  Result<XSet> empty = DecodeXSetWhole(canonical);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(EncodeXSetToString(*empty), canonical);

  std::string zero_count;
  zero_count.push_back(0x04);
  zero_count.push_back(0x00);
  Status st = DecodeXSetWhole(zero_count).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// Seeded mutation fuzz: encode random sets, corrupt the bytes, and require
// decode to either fail with a Status or produce a structurally valid XSet —
// never crash, never hand back a corrupt node. Replay failures with
// XST_FUZZ_SEED=<seed>.
TEST(CodecFuzz, MutatedEncodingsNeverYieldInvalidSets) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("XST_FUZZ_SEED=" + std::to_string(seed));
  testing::RandomSetGen gen(seed);
  std::mt19937_64 rng(seed ^ 0x5eedc0dec0ffeeull);
  int decoded_ok = 0;
  for (int round = 0; round < 300; ++round) {
    const std::string clean = EncodeXSetToString(gen.Value(4, 5));
    for (int variant = 0; variant < 8; ++variant) {
      std::string buf = clean;
      switch (rng() % 3) {
        case 0:  // flip one bit
          if (!buf.empty()) buf[rng() % buf.size()] ^= static_cast<char>(1u << (rng() % 8));
          break;
        case 1:  // overwrite one byte
          if (!buf.empty()) buf[rng() % buf.size()] = static_cast<char>(rng() & 0xff);
          break;
        default:  // truncate to a prefix
          buf.resize(rng() % (buf.size() + 1));
          break;
      }
      Result<XSet> r = DecodeXSetWhole(buf);
      if (r.ok()) {
        ++decoded_ok;
        Status valid = ValidateXSet(*r);
        ASSERT_TRUE(valid.ok()) << valid.ToString();
        // A decodable mutant must re-encode deterministically.
        Result<XSet> again = DecodeXSetWhole(EncodeXSetToString(*r));
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(*again, *r);
      }
    }
  }
  // Some mutants survive (bit flips inside atom payloads); the interesting
  // assertion is that every survivor validates.
  SUCCEED() << decoded_ok << " mutants decoded OK";
}

int Sign(int c) { return (c > 0) - (c < 0); }

// CompareEncoded(Encode(a), b) against Compare(a, b); on equality the
// offset must land just past a's encoding.
void ExpectCompareEncodedAgrees(const XSet& a, const XSet& b) {
  const std::string bytes = EncodeXSetToString(a);
  size_t offset = 0;
  int cmp = 7;
  Status st = CompareEncoded(bytes, &offset, b, &cmp);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(Sign(cmp), Sign(Compare(a, b))) << a.ToString() << " vs " << b.ToString();
  if (cmp == 0) {
    EXPECT_EQ(offset, bytes.size()) << a.ToString();
  }
}

TEST(Codec, CompareEncodedOrdersEveryKindLikeCompare) {
  // Rank boundaries, multi-byte and negative varints, byte order above
  // 0x7f, prefixes, symbol vs string with the same text, ∅ against sets,
  // and sets that tie on cardinality and differ only in a scope.
  const std::vector<XSet> values = {
      XSet::Int(INT64_MIN), XSet::Int(-300), XSet::Int(-1), XSet::Int(0),
      XSet::Int(1), XSet::Int(127), XSet::Int(128), XSet::Int(INT64_MAX),
      XSet::Symbol(""), XSet::Symbol("a"), XSet::Symbol("ab"), XSet::Symbol("b"),
      XSet::String(""), XSet::String("a"), XSet::String("a\x7f"),
      XSet::String("a\x80"), XSet::String("a\xff"), XSet::String(std::string(300, 'q')),
      XSet::Empty(), X("{a}"), X("{b}"), X("{a^1}"), X("{a^2}"), X("{a, b}"),
      X("{<a, 1>, b^{c}}"), X("{<a, 1>, b^{d}}"), X("{{{}}}")};
  for (const XSet& a : values) {
    for (const XSet& b : values) ExpectCompareEncodedAgrees(a, b);
  }
}

TEST(Codec, CompareEncodedReportsCorruptionItWalks) {
  int cmp = 0;
  size_t offset = 0;
  EXPECT_TRUE(CompareEncoded("", &offset, X("1"), &cmp).IsCorruption());
  offset = 0;
  EXPECT_TRUE(CompareEncoded("\x7f", &offset, X("1"), &cmp).IsCorruption());
  std::string zero_count("\x04\x00", 2);
  offset = 0;
  EXPECT_TRUE(CompareEncoded(zero_count, &offset, X("{a}"), &cmp).IsCorruption());
  std::string overrun(1, '\x04');
  PutVarint(1000, &overrun);
  offset = 0;
  EXPECT_TRUE(CompareEncoded(overrun, &offset, X("{a}"), &cmp).IsCorruption());
  std::string truncated = EncodeXSetToString(X("{abc}"));
  truncated.pop_back();
  offset = 0;
  EXPECT_TRUE(CompareEncoded(truncated, &offset, X("{abc}"), &cmp).IsCorruption());
  // A rank difference is decided by the tag alone; the bytes after it are
  // never walked.
  offset = 0;
  ASSERT_TRUE(CompareEncoded(std::string("\x03\x7f", 2), &offset, X("{a}"), &cmp).ok());
  EXPECT_LT(cmp, 0);
}

// Seeded comparator fuzz: CompareEncoded(Encode(a), b) must have the sign of
// Compare(a, b) for random pairs, including a against itself and against a
// with one member added or removed. Mutated encodings get a weaker oracle,
// because decode re-sorts members: a mutant that decodes and re-encodes to
// the same bytes must agree with Compare(decoded, b); any other must come
// back OK or Corruption without crashing. Replay with XST_FUZZ_SEED=<seed>.
TEST(CodecFuzz, CompareEncodedAgreesWithCompare) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("XST_FUZZ_SEED=" + std::to_string(seed));
  testing::RandomSetGen gen(seed);
  std::mt19937_64 rng(seed ^ 0xc0de5eedc0ffeeull);
  int checked_mutants = 0;
  for (int round = 0; round < 300; ++round) {
    const XSet a = gen.Value(4, 5);
    std::vector<XSet> others = {a, gen.Value(4, 5), gen.Value(4, 5)};
    if (a.is_set()) {
      std::vector<Membership> members(a.members().begin(), a.members().end());
      std::vector<Membership> grown = members;
      grown.push_back(Membership{gen.Value(2, 3), gen.Value(1, 2)});
      others.push_back(XSet::FromMembers(std::move(grown)));
      if (!members.empty()) {
        members.erase(members.begin() + static_cast<ptrdiff_t>(rng() % members.size()));
        others.push_back(XSet::FromMembers(std::move(members)));
      }
    }
    for (const XSet& b : others) {
      ExpectCompareEncodedAgrees(a, b);
      ExpectCompareEncodedAgrees(b, a);
    }

    const std::string clean = EncodeXSetToString(a);
    for (int variant = 0; variant < 8; ++variant) {
      std::string buf = clean;
      switch (rng() % 3) {
        case 0:  // flip one bit
          buf[rng() % buf.size()] ^= static_cast<char>(1u << (rng() % 8));
          break;
        case 1:  // overwrite one byte
          buf[rng() % buf.size()] = static_cast<char>(rng() & 0xff);
          break;
        default:  // truncate to a prefix
          buf.resize(rng() % (buf.size() + 1));
          break;
      }
      const XSet& b = others[rng() % others.size()];
      size_t offset = 0;
      int cmp = 0;
      Status st = CompareEncoded(buf, &offset, b, &cmp);
      ASSERT_TRUE(st.ok() || st.IsCorruption()) << st.ToString();
      Result<XSet> decoded = DecodeXSetWhole(buf);
      if (decoded.ok() && EncodeXSetToString(*decoded) == buf) {
        ++checked_mutants;
        ASSERT_TRUE(st.ok()) << st.ToString();
        ASSERT_EQ(Sign(cmp), Sign(Compare(*decoded, b)))
            << decoded->ToString() << " vs " << b.ToString();
        if (cmp == 0) {
          EXPECT_EQ(offset, buf.size());
        }
      }
    }
  }
  SUCCEED() << checked_mutants << " canonical mutants checked against Compare";
}

TEST(Codec, DecodeRejectsTrailingBytes) {
  std::string buf = EncodeXSetToString(X("{a}"));
  buf += "junk";
  EXPECT_TRUE(DecodeXSetWhole(buf).status().IsCorruption());
}

TEST(Codec, DecodeRejectsBombNesting) {
  // 600 nested singleton sets exceed the decoder's depth bound.
  std::string bomb;
  for (int i = 0; i < 600; ++i) {
    bomb.push_back(0x04);
    PutVarint(1, &bomb);  // one member: element follows, then scope
  }
  bomb.push_back(0x00);  // innermost element ∅
  // (scopes are missing — but depth triggers first)
  EXPECT_TRUE(DecodeXSetWhole(bomb).status().IsCorruption());
}

TEST(Codec, TruncationAnywhereIsDetected) {
  XSet original = X("{<a, 1>, <b, 2>, {q^{nested^3}}}");
  std::string buf = EncodeXSetToString(original);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Result<XSet> r = DecodeXSetWhole(buf.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

}  // namespace
}  // namespace xst
