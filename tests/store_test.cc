// Pages, the pager, and the set store: persistence, caching behavior,
// corruption detection (failure injection), and compaction.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "src/store/codec.h"
#include "src/store/fault_file.h"
#include "src/store/page.h"
#include "src/store/pager.h"
#include "src/store/setstore.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::PagerCounters;
using testing::X;

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

// A unique temp path per test, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = ::testing::TempDir();
    if (path_.empty()) path_ = "/tmp/";
    if (path_.back() != '/') path_ += '/';
    path_ += "xst_store_test_" + tag + "_" + std::to_string(::getpid());
    Remove();
  }
  ~TempFile() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  // The ".wal" sidecar belongs to the main file (a stale one would replay
  // the previous test's state into a fresh store), so remove them together.
  void Remove() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove((path_ + ".compact").c_str());
    std::remove((path_ + ".compact.wal").c_str());
  }

  std::string path_;
};

TEST(PageTest, AddGetDelete) {
  Page page;
  Result<uint32_t> slot0 = page.AddRecord("hello");
  Result<uint32_t> slot1 = page.AddRecord("world!");
  ASSERT_TRUE(slot0.ok());
  ASSERT_TRUE(slot1.ok());
  EXPECT_EQ(*slot0, 0u);
  EXPECT_EQ(*slot1, 1u);
  EXPECT_EQ(*page.GetRecord(0), "hello");
  EXPECT_EQ(*page.GetRecord(1), "world!");
  EXPECT_TRUE(page.GetRecord(2).status().IsOutOfRange());
  ASSERT_TRUE(page.DeleteRecord(0).ok());
  EXPECT_TRUE(page.GetRecord(0).status().IsNotFound());
  EXPECT_EQ(*page.GetRecord(1), "world!");
}

TEST(PageTest, RejectsEmptyAndOversizedRecords) {
  Page page;
  EXPECT_TRUE(page.AddRecord("").status().IsInvalid());
  std::string big(kPageSize, 'x');
  EXPECT_TRUE(page.AddRecord(big).status().IsCapacityError());
}

TEST(PageTest, FillsToCapacity) {
  Page page;
  std::string record(100, 'r');
  int added = 0;
  while (page.AddRecord(record).ok()) ++added;
  // 8192 bytes / (100 payload + 8 directory) ≈ 75 records.
  EXPECT_GT(added, 70);
  EXPECT_LT(added, 80);
}

TEST(PageTest, SerializationRoundTrips) {
  Page page;
  ASSERT_TRUE(page.AddRecord("alpha").ok());
  ASSERT_TRUE(page.AddRecord("beta").ok());
  ASSERT_TRUE(page.DeleteRecord(0).ok());
  std::string bytes = page.ToBytes();
  ASSERT_EQ(bytes.size(), kPageSize);
  Result<Page> back = Page::FromBytes(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->GetRecord(0).status().IsNotFound());
  EXPECT_EQ(*back->GetRecord(1), "beta");
}

TEST(PageTest, ChecksumCatchesBitFlips) {
  Page page;
  ASSERT_TRUE(page.AddRecord("payload").ok());
  std::string bytes = page.ToBytes();
  for (size_t pos : {size_t{9}, size_t{20}, kPageSize - 1}) {
    std::string tampered = bytes;
    tampered[pos] = static_cast<char>(tampered[pos] ^ 0x40);
    EXPECT_TRUE(Page::FromBytes(tampered).status().IsCorruption()) << pos;
  }
  EXPECT_TRUE(Page::FromBytes("short").status().IsCorruption());
}

TEST(PagerTest, AllocateFetchPersist) {
  TempFile file("pager_basic");
  {
    auto pager = Pager::Open(file.path(), 4);
    ASSERT_TRUE(pager.ok());
    Result<PageRef> page = (*pager)->AllocatePage();
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->id(), 0u);
    ASSERT_TRUE((*page)->AddRecord("persisted").ok());
    page->MarkDirty();
    page->Reset();
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  auto pager = Pager::Open(file.path(), 4);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 1u);
  Result<PageRef> page = (*pager)->FetchPage(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(*(*page)->GetRecord(0), "persisted");
}

TEST(PagerTest, FetchBeyondEndFails) {
  TempFile file("pager_oob");
  auto pager = Pager::Open(file.path(), 4);
  ASSERT_TRUE(pager.ok());
  EXPECT_TRUE((*pager)->FetchPage(0).status().IsOutOfRange());
}

TEST(PagerTest, LruEvictionCountsAndWritesBack) {
  TempFile file("pager_lru");
  auto pager_or = Pager::Open(file.path(), 2);  // tiny pool
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  PagerCounters counters;
  for (int i = 0; i < 4; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("page " + std::to_string(i)).ok());
    page->MarkDirty();
  }
  EXPECT_GT(counters.evictions(), 0u);
  // Re-read everything: early pages must have been written back on eviction.
  for (uint32_t i = 0; i < 4; ++i) {
    Result<PageRef> page = pager.FetchPage(i);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(*(*page)->GetRecord(0), "page " + std::to_string(i));
  }
  EXPECT_GT(counters.misses(), 0u);
}

TEST(PagerTest, HotPageStaysCached) {
  TempFile file("pager_hot");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pager.AllocatePage().ok());
  ASSERT_TRUE(pager.Flush().ok());
  PagerCounters counters;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(pager.FetchPage(0).ok());
  EXPECT_GE(counters.hits(), 9u);
}

TEST(PagerTest, PinnedFrameSurvivesEvictionPressure) {
  // Regression shape for the historical use-after-evict: hold a reference
  // across fetches that force evictions. With raw Page* the frame would be
  // recycled under the caller; with PageRef the pin keeps it resident and
  // the eviction picks other victims.
  TempFile file("pager_pin_pressure");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 4; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("page " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(pager.Flush().ok());

  Result<PageRef> held = pager.FetchPage(0);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(pager.pinned_frames(), 1u);
  // Sweep every other page through the 2-frame pool; page 0 must not move.
  for (uint32_t i = 1; i < 4; ++i) {
    Result<PageRef> page = pager.FetchPage(i);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(*(*page)->GetRecord(0), "page " + std::to_string(i));
  }
  EXPECT_EQ(*(*held)->GetRecord(0), "page 0");  // still valid, still page 0
  held->Reset();
  EXPECT_EQ(pager.pinned_frames(), 0u);
}

TEST(PagerTest, CapacityOnePoolInterleavings) {
  // The fetch/allocate interleavings that dangled under the raw-pointer API
  // now either succeed (pin released) or fail loudly (pin held).
  TempFile file("pager_cap1");
  auto pager_or = Pager::Open(file.path(), 1);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  {
    Result<PageRef> p0 = pager.AllocatePage();
    ASSERT_TRUE(p0.ok());
    ASSERT_TRUE((*p0)->AddRecord("zero").ok());
    // Allocation needs a fresh frame: ResourceExhausted, and the held
    // reference stays intact rather than dangling.
    EXPECT_TRUE(pager.AllocatePage().status().IsResourceExhausted());
    // Fetching the already-resident page is a second pin on the same frame,
    // not a new one, so it succeeds.
    {
      Result<PageRef> again = pager.FetchPage(0);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*(*again)->GetRecord(0), "zero");
      EXPECT_EQ(pager.pinned_frames(), 1u);  // one frame, two pins
    }
    EXPECT_EQ(*(*p0)->GetRecord(0), "zero");
  }
  // Pin released: allocation succeeds. While the new page is pinned, a fetch
  // of the now-evicted page 0 is refused rather than recycling the frame.
  {
    Result<PageRef> p1 = pager.AllocatePage();
    ASSERT_TRUE(p1.ok());
    EXPECT_EQ(p1->id(), 1u);
    ASSERT_TRUE((*p1)->AddRecord("one").ok());
    EXPECT_TRUE(pager.FetchPage(0).status().IsResourceExhausted());
  }
  Result<PageRef> p0 = pager.FetchPage(0);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*(*p0)->GetRecord(0), "zero");
  p0->Reset();
  Result<PageRef> p1 = pager.FetchPage(1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*(*p1)->GetRecord(0), "one");
}

TEST(PagerTest, PinExhaustionReportsResourceExhausted) {
  TempFile file("pager_exhaust");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  Result<PageRef> a = pager.AllocatePage();
  Result<PageRef> b = pager.AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pager.pinned_frames(), 2u);
  Status st = pager.AllocatePage().status();
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_NE(st.message().find("pinned"), std::string::npos);
  // Releasing one pin unblocks the pool.
  b->Reset();
  EXPECT_TRUE(pager.AllocatePage().ok());
}

TEST(PagerTest, LruTouchOrderGovernsEviction) {
  TempFile file("pager_touch");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  for (int i = 0; i < 3; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("page " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(pager.Flush().ok());
  // Pool now holds {1, 2} (0 was evicted by the third allocation).
  ASSERT_TRUE(pager.FetchPage(1).ok());  // touch 1: LRU order is now 2 < 1
  PagerCounters counters;
  ASSERT_TRUE(pager.FetchPage(0).ok());  // must evict 2, not 1
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.evictions(), 1u);
  ASSERT_TRUE(pager.FetchPage(1).ok());  // 1 survived: hit
  EXPECT_EQ(counters.hits(), 1u);
  ASSERT_TRUE(pager.FetchPage(2).ok());  // 2 was the victim: miss again
  EXPECT_EQ(counters.misses(), 2u);
}

TEST(PagerTest, StatsCountersExact) {
  TempFile file("pager_stats");
  auto pager_or = Pager::Open(file.path(), 2);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  PagerCounters counters;
  // 3 allocations into a 2-frame pool: the third evicts page 0 (dirty from
  // birth → one writeback).
  for (int i = 0; i < 3; ++i) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE((*page)->AddRecord("p").ok());
  }
  EXPECT_EQ(counters.allocations(), 3u);
  EXPECT_EQ(counters.evictions(), 1u);
  EXPECT_EQ(counters.writebacks(), 1u);
  EXPECT_EQ(counters.hits(), 0u);
  EXPECT_EQ(counters.misses(), 0u);
  // Fetch resident page 2 (hit), evicted page 0 (miss + eviction of 1 +
  // its writeback).
  ASSERT_TRUE(pager.FetchPage(2).ok());
  ASSERT_TRUE(pager.FetchPage(0).ok());
  EXPECT_EQ(counters.hits(), 1u);
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.evictions(), 2u);
  EXPECT_EQ(counters.writebacks(), 2u);
  // Flush writes back the two resident dirty pages... page 2 and page 0?
  // Page 2 is dirty (allocated, never written back); page 0 was written back
  // at eviction and re-read clean. So exactly one more writeback.
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(counters.writebacks(), 3u);
}

TEST(SetStoreTest, PutGetDeleteList) {
  TempFile file("store_basic");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("pairs", X("{<a, 1>, <b, 2>}")).ok());
  ASSERT_TRUE(store.Put("empty", X("{}")).ok());
  EXPECT_EQ(*store.Get("pairs"), X("{<a, 1>, <b, 2>}"));
  EXPECT_EQ(*store.Get("empty"), X("{}"));
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"empty", "pairs"}));
  ASSERT_TRUE(store.Delete("empty").ok());
  EXPECT_TRUE(store.Get("empty").status().IsNotFound());
  EXPECT_TRUE(store.Delete("empty").IsNotFound());
  EXPECT_TRUE(store.Put("", X("{}")).IsInvalid());
}

TEST(SetStoreTest, ReplaceKeepsLatest) {
  TempFile file("store_replace");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("s", X("{old}")).ok());
  ASSERT_TRUE(store.Put("s", X("{new}")).ok());
  EXPECT_EQ(*store.Get("s"), X("{new}"));
}

TEST(SetStoreTest, PersistsAcrossReopen) {
  TempFile file("store_reopen");
  XSet value = X("{<alpha, 1>^<k, v>, {nested^{deep^9}}}");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("survivor", value).ok());
  }
  auto store = SetStore::Open(file.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("survivor"), value);
}

TEST(SetStoreTest, LargeSetsSpanPages) {
  TempFile file("store_large");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  // ~20k tuples encode to far more than one 8 KiB page.
  std::vector<XSet> tuples;
  for (int i = 0; i < 20000; ++i) {
    tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i * 7)));
  }
  XSet big = XSet::Classical(tuples);
  ASSERT_TRUE(store.Put("big", big).ok());
  EXPECT_GT(store.page_count(), 10u);
  EXPECT_EQ(*store.Get("big"), big);
  // Reopen and read through the pool again.
  PagerCounters counters;
  auto reopened = SetStore::Open(file.path(), SetStoreOptions{.buffer_pool_pages = 8});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("big"), big);
  EXPECT_GT(counters.misses(), 8u);  // forced through a small pool
}

TEST(SetStoreTest, CatalogIsAnExtendedSet) {
  TempFile file("store_catalog");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("x", X("{1}")).ok());
  ASSERT_TRUE(store.Put("y", X("{2}")).ok());
  XSet catalog = store.CatalogAsXSet();
  EXPECT_EQ(catalog.cardinality(), 2u);
  // Entries are ⟨name, first_page, span, bytes⟩ 4-tuples.
  for (const Membership& m : catalog.members()) {
    EXPECT_TRUE(m.scope.empty());
    EXPECT_EQ(m.element.cardinality(), 4u);
  }
}

TEST(SetStoreTest, CompactionReclaimsSpace) {
  TempFile file("store_compact");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  XSet keep = X("{<keep, 1>}");
  ASSERT_TRUE(store.Put("keep", keep).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Put("churn", X(("{" + std::to_string(i) + "}").c_str())).ok());
  }
  ASSERT_TRUE(store.Delete("churn").ok());
  uint32_t before = store.page_count();
  ASSERT_TRUE(store.Compact().ok()) << "compaction failed";
  EXPECT_LT(store.page_count(), before);
  EXPECT_EQ(*store.Get("keep"), keep);
  EXPECT_EQ(store.List(), std::vector<std::string>{"keep"});
}

TEST(SetStoreTest, FailureInjectionTornPage) {
  TempFile file("store_torn");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    std::vector<XSet> tuples;
    for (int i = 0; i < 5000; ++i) tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i)));
    ASSERT_TRUE((*store)->Put("data", XSet::Classical(tuples)).ok());
  }
  // Flip one byte in the middle of page 3: page 0 is the superblock and
  // page 1 holds the stale first (empty) catalog blob, so page 3 is in the
  // middle of the live data blob.
  {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto target = static_cast<std::streamoff>(3 * kPageSize + kPageSize / 2);
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(target);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  auto store = SetStore::Open(file.path(), SetStoreOptions{.buffer_pool_pages = 2});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Result<XSet> data = (*store)->Get("data");
  EXPECT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption()) << data.status().ToString();
}

TEST(SetStoreTest, PutBatchIsOneCommit) {
  TempFile file("store_batch");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  uint32_t pages_before = store.page_count();
  ASSERT_TRUE(store
                  .PutBatch({{"a", X("{1}")},
                             {"b", X("{2}")},
                             {"c", X("{3}")}})
                  .ok());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(*store.Get("b"), X("{2}"));
  // One catalog persist for the whole batch: 3 blob pages + 1 catalog page.
  EXPECT_EQ(store.page_count(), pages_before + 4);
}

TEST(SetStoreTest, PutBatchValidation) {
  TempFile file("store_batch_bad");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  EXPECT_TRUE(store.PutBatch({{"x", X("{1}")}, {"x", X("{2}")}}).IsInvalid());
  EXPECT_TRUE(store.PutBatch({{"", X("{1}")}}).IsInvalid());
  // Failed validation left no trace.
  EXPECT_TRUE(store.List().empty());
}

TEST(SetStoreTest, ScrubVerifiesEverything) {
  TempFile file("store_scrub");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutBatch({{"one", X("{<a, 1>}")}, {"two", X("{<b, 2>}")}}).ok());
  Result<size_t> verified = store.Scrub();
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 2u);
}

TEST(SetStoreTest, ScrubDetectsTamperedBlob) {
  TempFile file("store_scrub_bad");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    std::vector<XSet> tuples;
    for (int i = 0; i < 5000; ++i) tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i)));
    ASSERT_TRUE((*store)->Put("data", XSet::Classical(tuples)).ok());
  }
  {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    const auto target = static_cast<std::streamoff>(3 * kPageSize + 64);
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(target);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  auto store = SetStore::Open(file.path(), SetStoreOptions{.buffer_pool_pages = 2});
  ASSERT_TRUE(store.ok());
  Result<size_t> verified = (*store)->Scrub();
  EXPECT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsCorruption());
}

TEST(SetStoreTest, CorruptSuperblockRangeIsRejected) {
  // Regression: out-of-range superblock values used to be narrowed into
  // uint32 page ids and chased, producing confusing downstream errors (or a
  // wrapped fetch). They must be rejected up front, naming the bad value.
  TempFile file("store_badsuper");
  const auto rewrite_superblock = [&](int64_t first, int64_t len, int64_t span) {
    XSet pointer = XSet::Pair(XSet::Int(first), XSet::Int(len));
    XSet with_span = XSet::Pair(pointer, XSet::Int(span));
    Page super;
    ASSERT_TRUE(super.AddRecord(EncodeXSetToString(with_span)).ok());
    std::string bytes = super.ToBytes();  // seed 0 == page 0's checksum seed
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(0);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("x", X("{1}")).ok());
  }
  // Span runs past end of file.
  rewrite_superblock(2, 10, 1 << 20);
  auto beyond = SetStore::Open(file.path());
  ASSERT_FALSE(beyond.ok());
  EXPECT_TRUE(beyond.status().IsCorruption()) << beyond.status().ToString();
  EXPECT_NE(beyond.status().message().find("page range beyond end of file"),
            std::string::npos)
      << beyond.status().ToString();
  // Negative first page, with the offending value named in the message.
  rewrite_superblock(-1, 10, 1);
  auto negative = SetStore::Open(file.path());
  ASSERT_FALSE(negative.ok());
  EXPECT_TRUE(negative.status().IsCorruption());
  EXPECT_NE(negative.status().message().find("first_page=-1"), std::string::npos)
      << negative.status().ToString();
  // Byte length no page span could hold.
  rewrite_superblock(2, 1 << 30, 1);
  auto oversized = SetStore::Open(file.path());
  ASSERT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsCorruption());
  EXPECT_NE(oversized.status().message().find("byte length exceeds"),
            std::string::npos)
      << oversized.status().ToString();
}

TEST(SetStoreTest, CompactWriteFailureCleansUpAndKeepsServing) {
  // Regression: a failed compaction used to leave the half-written
  // "<path>.compact" sibling behind. Every error path must remove it and
  // leave the original store untouched and usable.
  TempFile file("store_compact_fail");
  auto state = std::make_shared<FaultState>();
  state->fail_write = 0;  // the compact target's device dies immediately
  SetStoreOptions options;
  options.file_factory = [state](const std::string& path) -> Result<std::unique_ptr<File>> {
    Result<std::unique_ptr<File>> base = StdioFile::Open(path);
    if (!base.ok()) return base.status();
    const std::string suffix = ".compact";
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return std::unique_ptr<File>(new FaultFile(std::move(*base), state));
    }
    return base;
  };
  auto store_or = SetStore::Open(file.path(), options);
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("keep", X("{<keep, 1>}")).ok());
  ASSERT_TRUE(store.Put("churn", X("{c}")).ok());
  ASSERT_TRUE(store.Delete("churn").ok());

  Status st = store.Compact();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(state->triggered);
  EXPECT_NE(st.message().find("compact"), std::string::npos) << st.ToString();
  EXPECT_FALSE(FileExists(file.path() + ".compact"));
  // The original store is fully usable: reads, writes, and a later compact
  // (after the injected device heals) all work.
  EXPECT_EQ(*store.Get("keep"), X("{<keep, 1>}"));
  ASSERT_TRUE(store.Put("more", X("{2}")).ok());
  state->fail_write = -1;
  state->device_failed = false;
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(*store.Get("keep"), X("{<keep, 1>}"));
  EXPECT_EQ(store.List(), (std::vector<std::string>{"keep", "more"}));
}

TEST(SetStoreTest, CompactRenameFailureReopensOriginal) {
  // Regression: if the atomic swap itself fails, Compact must remove the
  // temp file and go back to serving the original file — not leave the
  // store pointing at a closed pager.
  TempFile file("store_compact_rename");
  SetStoreOptions options;
  int rename_calls = 0;
  options.rename_fn = [&rename_calls](const char*, const char*) {
    ++rename_calls;
    return -1;
  };
  auto store_or = SetStore::Open(file.path(), options);
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("keep", X("{<keep, 1>}")).ok());
  ASSERT_TRUE(store.Put("churn", X("{c}")).ok());
  ASSERT_TRUE(store.Delete("churn").ok());

  Status st = store.Compact();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find("rename failed"), std::string::npos) << st.ToString();
  EXPECT_EQ(rename_calls, 1);
  EXPECT_FALSE(FileExists(file.path() + ".compact"));
  // Reopened against the original file: everything still there and writable.
  EXPECT_EQ(*store.Get("keep"), X("{<keep, 1>}"));
  ASSERT_TRUE(store.Put("after", X("{3}")).ok());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"after", "keep"}));
}

TEST(SetStoreTest, ClosedStoreAccessorsReportNoPages) {
  // Regression: a store closes itself when a failure-recovery reopen fails,
  // and its pager accessors then dereferenced the missing pager. Here the
  // reopen after Compact's swap cannot open the main file.
  TempFile file("store_closed");
  const std::string path = file.path();
  auto swapped = std::make_shared<bool>(false);
  SetStoreOptions options;
  options.rename_fn = [swapped](const char* from, const char* to) {
    *swapped = true;
    return std::rename(from, to);
  };
  options.file_factory = [swapped, path](const std::string& p) -> Result<std::unique_ptr<File>> {
    if (*swapped && p == path) return Status::IOError("injected open failure");
    return StdioFile::Open(p);
  };
  auto store_or = SetStore::Open(path, options);
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.Put("keep", X("{<keep, 1>}")).ok());
  EXPECT_GT(store.page_count(), 0u);
  EXPECT_GT(store.pager_latch_shards(), 0u);

  Status st = store.Compact();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("reopen after swap: injected open failure"),
            std::string::npos)
      << st.ToString();
  Result<XSet> got = store.Get("keep");
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("is closed"), std::string::npos)
      << got.status().ToString();
  EXPECT_EQ(store.page_count(), 0u);
  EXPECT_EQ(store.pager_latch_shards(), 0u);
}

// --- Ordered-index storage mode (PR 8) ---

XSet IntRun(int lo, int hi) {
  std::vector<Membership> members;
  for (int i = lo; i <= hi; ++i) {
    members.push_back(Membership{XSet::Int(i), XSet::Empty()});
  }
  return XSet::FromMembers(std::move(members));
}

TEST(SetStoreTest, IndexedPutGetRoundTrip) {
  TempFile file("store_idx_basic");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  XSet pairs = X("{<a, 1>, <b, 2>, <c, 3>}");
  ASSERT_TRUE(store.PutIndexed("pairs", pairs).ok());
  EXPECT_EQ(*store.Get("pairs"), pairs);
  EXPECT_EQ(*store.ModeOf("pairs"), StorageMode::kOrderedIndex);
  ASSERT_TRUE(store.Put("blob", pairs).ok());
  EXPECT_EQ(*store.ModeOf("blob"), StorageMode::kBlob);
  // Atoms have no member list to index.
  EXPECT_TRUE(store.PutIndexed("atom", XSet::Int(7)).IsInvalid());
  EXPECT_TRUE(store.PutIndexed("", X("{}")).IsInvalid());
  // Replacing an indexed set re-buckets it wholesale.
  ASSERT_TRUE(store.PutIndexed("pairs", X("{<d, 4>}")).ok());
  EXPECT_EQ(*store.Get("pairs"), X("{<d, 4>}"));
}

TEST(SetStoreTest, IndexedMemberMutations) {
  TempFile file("store_idx_mut");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("s", IntRun(0, 99)).ok());

  Membership extra{XSet::Int(500), XSet::Empty()};
  EXPECT_EQ(*store.ContainsMember("s", extra), false);
  ASSERT_TRUE(store.InsertMember("s", extra).ok());
  EXPECT_EQ(*store.ContainsMember("s", extra), true);
  // Duplicate insert and absent erase are no-ops, not errors.
  ASSERT_TRUE(store.InsertMember("s", extra).ok());
  ASSERT_TRUE(store.EraseMember("s", Membership{XSet::Int(1000), XSet::Empty()}).ok());
  ASSERT_TRUE(store.EraseMember("s", extra).ok());
  EXPECT_EQ(*store.ContainsMember("s", extra), false);
  EXPECT_EQ(*store.Get("s"), IntRun(0, 99));

  // Member mutations only apply to the indexed mode.
  ASSERT_TRUE(store.Put("b", X("{1}")).ok());
  EXPECT_TRUE(store.InsertMember("b", extra).IsInvalid());
  EXPECT_TRUE(store.EraseMember("b", extra).IsInvalid());
  // ContainsMember works on both modes.
  EXPECT_EQ(*store.ContainsMember("b", Membership{XSet::Int(1), XSet::Empty()}), true);
}

TEST(SetStoreTest, DuplicateOverflowInsertWritesNothing) {
  TempFile file("store_idx_dup_overflow");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  // A 2,000-byte member exceeds kMaxInlineEntry: its entry is an overflow
  // reference to a page span. Inserting it again must allocate no span, log
  // no record and pay no commit.
  const Membership big{XSet::String(std::string(2000, 'x')), XSet::Empty()};
  const XSet value = XSet::FromMembers({big, Membership{XSet::Int(1), XSet::Empty()}});
  ASSERT_TRUE(store.PutIndexed("s", value).ok());
  const uint32_t pages = store.page_count();
  const uint64_t appended = store.wal_stats().appended_lsn;
  ASSERT_TRUE(store.InsertMember("s", big).ok());
  EXPECT_EQ(store.page_count(), pages);
  EXPECT_EQ(store.wal_stats().appended_lsn, appended);
  EXPECT_EQ(*store.Get("s"), value);
  EXPECT_TRUE(store.Scrub().ok());
}

TEST(SetStoreTest, IndexedPersistsAcrossReopen) {
  TempFile file("store_idx_reopen");
  XSet value = IntRun(0, 2000);
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->PutIndexed("big", value).ok());
    ASSERT_TRUE((*store)->InsertMember(
        "big", Membership{XSet::Int(9999), XSet::Empty()}).ok());
  }
  auto store = SetStore::Open(file.path());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->ModeOf("big"), StorageMode::kOrderedIndex);
  EXPECT_EQ(*(*store)->ContainsMember(
      "big", Membership{XSet::Int(9999), XSet::Empty()}), true);
  EXPECT_EQ((*store)->Get("big")->cardinality(), 2002u);
}

TEST(SetStoreTest, IndexedElementRangeCursorStreamsSlice) {
  TempFile file("store_idx_range");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("big", IntRun(0, 19999)).ok());

  // The open reads the whole slice, so the count covers it. At
  // XST_VALIDATE_LEVEL >= 2 every open also deep-validates the whole tree,
  // which legitimately touches every node: allow exactly one validation on
  // top of the bound.
  uint64_t validation_touches = 0;
  if constexpr (XST_VALIDATE_LEVEL >= 2) {
    Result<uint64_t> touches = testing::IndexValidationTouches(store);
    ASSERT_TRUE(touches.ok());
    validation_touches = *touches;
  }
  PagerCounters counters;
  auto cursor = store.OpenElementRange("big", XSet::Int(5000), XSet::Int(5020));
  ASSERT_TRUE(cursor.ok());
  std::vector<Membership> got;
  for (;;) {
    auto batch = (*cursor)->NextBatch();
    if (batch.empty()) break;
    got.insert(got.end(), batch.begin(), batch.end());
  }
  ASSERT_TRUE((*cursor)->status().ok());
  ASSERT_EQ(got.size(), 21u);
  EXPECT_EQ(got.front().element, XSet::Int(5000));
  EXPECT_EQ(got.back().element, XSet::Int(5020));
  // Leaf-only access: a seek spine plus the in-range leaves, never a full
  // tree scan or materialization.
  EXPECT_LE(counters.hits() + counters.misses(), 24u + validation_touches)
      << "hits " << counters.hits() << " misses " << counters.misses()
      << " validation " << validation_touches;
}

TEST(SetStoreTest, IndexedModeSurvivesCompact) {
  TempFile file("store_idx_compact");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("tree", IntRun(0, 500)).ok());
  ASSERT_TRUE(store.Put("blob", X("{<a, 1>}")).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(store.Put("churn", IntRun(0, i)).ok());
  }
  ASSERT_TRUE(store.Delete("churn").ok());
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(*store.ModeOf("tree"), StorageMode::kOrderedIndex);
  EXPECT_EQ(*store.ModeOf("blob"), StorageMode::kBlob);
  EXPECT_EQ(*store.Get("tree"), IntRun(0, 500));
  ASSERT_TRUE(store.InsertMember(
      "tree", Membership{XSet::Int(777), XSet::Empty()}).ok());
  EXPECT_EQ(*store.ContainsMember(
      "tree", Membership{XSet::Int(777), XSet::Empty()}), true);
}

TEST(SetStoreTest, ScrubCoversIndexedSets) {
  TempFile file("store_idx_scrub");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  ASSERT_TRUE(store.PutIndexed("tree", IntRun(0, 800)).ok());
  ASSERT_TRUE(store.Put("blob", X("{1, 2}")).ok());
  EXPECT_TRUE(store.Scrub().ok());
}

TEST(SetStoreTest, FailureInjectionTruncatedFile) {
  TempFile file("store_trunc");
  {
    auto store = SetStore::Open(file.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("x", X("{1}")).ok());
  }
  // Truncate to a non-page boundary.
  ASSERT_EQ(truncate(file.path().c_str(), static_cast<off_t>(kPageSize + 100)), 0);
  auto store = SetStore::Open(file.path());
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption());
}

}  // namespace
}  // namespace xst
