// Pages, the pager, and the set store: persistence, caching behavior,
// corruption detection (failure injection), and compaction.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "src/obs/metrics.h"
#include "src/store/codec.h"
#include "src/store/fault_file.h"
#include "src/store/page.h"
#include "src/store/pager.h"
#include "src/store/setstore.h"
#include "src/store/wal.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::CommitAndCheckpoint;
using testing::LoggedPager;
using testing::OpenLoggedPager;
using testing::PagerCounters;
using testing::X;

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

// A unique temp store path per test, its files removed on destruction.
class TempFile : public testing::ScopedStorePath {
 public:
  explicit TempFile(const std::string& tag)
      : ScopedStorePath(::testing::TempDir() + "xst_store_test_" + tag + "_" +
                        std::to_string(::getpid())) {}
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

// Every pager test runs the pager the way the store does: over its log,
// with a log transaction open. Writes replace whole pages (WritePage), reads
// copy them (ReadPageSnapshot), and an evicted page that changed since the
// log captured it spills to the log.
LoggedPager OpenPagerOrDie(const std::string& path, size_t capacity) {
  Result<LoggedPager> logged = OpenLoggedPager(path, capacity);
  EXPECT_TRUE(logged.ok()) << logged.status().ToString();
  return std::move(*logged);
}

// A page holding the one record `record`.
Page PageWith(const std::string& record) {
  Page page;
  EXPECT_TRUE(page.AddRecord(record).ok());
  return page;
}

// Writes a page holding `record` over page `id`.
void WriteRecord(Pager& pager, uint32_t id, const std::string& record) {
  Status st = pager.WritePage(id, PageWith(record));
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// Allocates a page and writes `record` into it.
void AllocateWithRecord(Pager& pager, const std::string& record) {
  Result<uint32_t> id = pager.AllocatePage();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_NO_FATAL_FAILURE(WriteRecord(pager, *id, record));
}

// Record 0 of page `id`, read through a snapshot.
Result<std::string> ReadRecord(Pager& pager, uint32_t id) {
  Page snapshot;
  XST_RETURN_NOT_OK(pager.ReadPageSnapshot(id, &snapshot));
  XST_ASSIGN_OR_RAISE(std::string_view record, snapshot.GetRecord(0));
  return std::string(record);
}

// Reads page `id` and discards the copy (the caching and counting are the
// point).
Status Touch(Pager& pager, uint32_t id) {
  Page snapshot;
  return pager.ReadPageSnapshot(id, &snapshot);
}

// Log records appended so far: a spilled page image, a drained one, or a
// commit record.
uint64_t LogAppends() {
  return obs::MetricsRegistry::Global().GetCounter(internal::kWalAppendsCounter).value();
}

TEST(PagerTest, AllocateFetchPersist) {
  TempFile file("pager_basic");
  {
    LoggedPager logged = OpenPagerOrDie(file.path(), 4);
    Result<uint32_t> id = logged.pager->AllocatePage();
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 0u);
    ASSERT_NO_FATAL_FAILURE(WriteRecord(*logged.pager, 0, "persisted"));
    ASSERT_TRUE(CommitAndCheckpoint(*logged.pager, *logged.wal).ok());
  }
  LoggedPager logged = OpenPagerOrDie(file.path(), 4);
  EXPECT_EQ(logged.pager->page_count(), 1u);
  Result<std::string> record = ReadRecord(*logged.pager, 0);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(*record, "persisted");
}

TEST(PagerTest, FetchBeyondEndFails) {
  TempFile file("pager_oob");
  LoggedPager logged = OpenPagerOrDie(file.path(), 4);
  EXPECT_TRUE(Touch(*logged.pager, 0).IsOutOfRange());
  EXPECT_TRUE(logged.pager->WritePage(0, PageWith("lost")).IsOutOfRange());
  ASSERT_TRUE(logged.pager->AllocatePage().ok());
  EXPECT_TRUE(Touch(*logged.pager, 1).IsOutOfRange());
  EXPECT_TRUE(logged.pager->WritePage(1, PageWith("lost")).IsOutOfRange());
  EXPECT_EQ(logged.pager->page_count(), 1u);
}

TEST(PagerTest, LruEvictionCountsAndWritesBack) {
  TempFile file("pager_lru");
  LoggedPager logged = OpenPagerOrDie(file.path(), 2);  // tiny pool
  Pager& pager = *logged.pager;
  PagerCounters counters;
  const uint64_t appends_before = LogAppends();
  for (int i = 0; i < 4; ++i) {
    ASSERT_NO_FATAL_FAILURE(AllocateWithRecord(pager, "page " + std::to_string(i)));
  }
  EXPECT_GT(counters.evictions(), 0u);
  // Re-read everything: the early pages must have been spilled to the log
  // on eviction.
  for (uint32_t i = 0; i < 4; ++i) {
    Result<std::string> record = ReadRecord(pager, i);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(*record, "page " + std::to_string(i));
  }
  // Pages 0 and 1 miss and are read from their log images, which a read
  // never caches, so the re-reads evict nothing; pages 2 and 3 hit. Each
  // spilled page was logged exactly once, and nothing reached the main file.
  EXPECT_EQ(counters.misses(), 2u);
  EXPECT_EQ(counters.hits(), 2u);
  EXPECT_EQ(counters.evictions(), 2u);
  EXPECT_EQ(LogAppends() - appends_before, 2u);
  EXPECT_EQ(counters.writebacks(), 0u);
}

TEST(PagerTest, HotPageStaysCached) {
  TempFile file("pager_hot");
  LoggedPager logged = OpenPagerOrDie(file.path(), 2);
  Pager& pager = *logged.pager;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(pager.AllocatePage().ok());
  ASSERT_TRUE(CommitAndCheckpoint(pager, *logged.wal).ok());
  PagerCounters counters;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(Touch(pager, 0).ok());
  EXPECT_GE(counters.hits(), 9u);
}

TEST(PagerTest, CapacityOnePoolInterleavings) {
  // A one-frame pool: every allocation, write and read of another page
  // evicts the one resident frame, spilling it to the log when it changed.
  // Alternating them must lose no record.
  TempFile file("pager_cap1");
  LoggedPager logged = OpenPagerOrDie(file.path(), 1);
  Pager& pager = *logged.pager;
  constexpr uint32_t kPages = 4;
  const auto record = [](uint32_t id, int version) {
    return "page " + std::to_string(id) + " v" + std::to_string(version);
  };
  for (uint32_t id = 0; id < kPages; ++id) {
    ASSERT_NO_FATAL_FAILURE(AllocateWithRecord(pager, record(id, 1)));
    // Every page so far reads back, the one just written and the spilled.
    for (uint32_t j = 0; j <= id; ++j) {
      Result<std::string> got = ReadRecord(pager, j);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, record(j, 1));
    }
  }
  // Rewrite each page, reading another one in between.
  for (uint32_t id = 0; id < kPages; ++id) {
    ASSERT_NO_FATAL_FAILURE(WriteRecord(pager, id, record(id, 2)));
    Result<std::string> other = ReadRecord(pager, (id + 1) % kPages);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    EXPECT_EQ(*other, record((id + 1) % kPages, id + 1 < kPages ? 1 : 2));
  }
  ASSERT_TRUE(CommitAndCheckpoint(pager, *logged.wal).ok());
  for (uint32_t id = 0; id < kPages; ++id) {
    Result<std::string> got = ReadRecord(pager, id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, record(id, 2));
  }
}

TEST(PagerTest, LruTouchOrderGovernsEviction) {
  TempFile file("pager_touch");
  LoggedPager logged = OpenPagerOrDie(file.path(), 2);
  Pager& pager = *logged.pager;
  for (int i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(AllocateWithRecord(pager, "page " + std::to_string(i)));
  }
  ASSERT_TRUE(CommitAndCheckpoint(pager, *logged.wal).ok());
  // Pool now holds {1, 2} (0 was evicted by the third allocation).
  ASSERT_TRUE(Touch(pager, 1).ok());  // touch 1: LRU order is now 2 < 1
  PagerCounters counters;
  ASSERT_TRUE(Touch(pager, 0).ok());  // must evict 2, not 1
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.evictions(), 1u);
  ASSERT_TRUE(Touch(pager, 1).ok());  // 1 survived: hit
  EXPECT_EQ(counters.hits(), 1u);
  ASSERT_TRUE(Touch(pager, 2).ok());  // 2 was the victim: miss again
  EXPECT_EQ(counters.misses(), 2u);
}

TEST(PagerTest, StatsCountersExact) {
  TempFile file("pager_stats");
  LoggedPager logged = OpenPagerOrDie(file.path(), 2);
  Pager& pager = *logged.pager;
  PagerCounters counters;
  const uint64_t appends_before = LogAppends();
  // 3 allocations into a 2-frame pool: the third evicts page 0 (unlogged
  // from birth → one log spill, and no main-file write).
  for (int i = 0; i < 3; ++i) ASSERT_NO_FATAL_FAILURE(AllocateWithRecord(pager, "p"));
  EXPECT_EQ(counters.allocations(), 3u);
  EXPECT_EQ(counters.evictions(), 1u);
  EXPECT_EQ(LogAppends() - appends_before, 1u);
  EXPECT_EQ(counters.writebacks(), 0u);
  EXPECT_EQ(counters.hits(), 0u);
  EXPECT_EQ(counters.misses(), 0u);
  // Read resident page 2 (hit) and evicted page 0 (miss). Page 0 comes from
  // its log image, which a read never caches, so nothing more is evicted or
  // spilled.
  ASSERT_TRUE(Touch(pager, 2).ok());
  ASSERT_TRUE(Touch(pager, 0).ok());
  EXPECT_EQ(counters.hits(), 1u);
  EXPECT_EQ(counters.misses(), 1u);
  EXPECT_EQ(counters.evictions(), 1u);
  EXPECT_EQ(LogAppends() - appends_before, 1u);
  // The commit drains the two resident unlogged pages, 1 and 2, plus the
  // commit record. Only the checkpoint writes the main file: one write-back
  // per logged page.
  ASSERT_TRUE(CommitAndCheckpoint(pager, *logged.wal).ok());
  EXPECT_EQ(LogAppends() - appends_before, 4u);
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
  obs::Counter& commits =
      obs::MetricsRegistry::Global().GetCounter(internal::kWalCommitsCounter);
  const uint64_t commits_before = commits.value();
  ASSERT_TRUE(store
                  .PutBatch({{"a", X("{1}")},
                             {"b", X("{2}")},
                             {"c", X("{3}")}})
                  .ok());
  EXPECT_EQ(store.List(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(*store.Get("b"), X("{2}"));
  // One commit for the whole batch: 3 blob pages and no catalog page — the
  // commit logs its three catalog entries as deltas.
  EXPECT_EQ(commits.value(), commits_before + 1);
  EXPECT_EQ(store.page_count(), pages_before + 3);
  // The checkpoint folds the deltas into one new catalog page; a second
  // one, with no deltas left to fold, writes none.
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(store.page_count(), pages_before + 4);
  ASSERT_TRUE(store.Checkpoint().ok());
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
  // and its pager accessors then dereferenced the missing pager, while its
  // catalog reads kept answering from the catalog it closed to never
  // serve. Here the reopen after Compact's swap cannot open the main file.
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
  EXPECT_TRUE(store.Contains("keep"));

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
  EXPECT_FALSE(store.Contains("keep"));
  EXPECT_TRUE(store.List().empty());
  EXPECT_EQ(store.CatalogAsXSet(), XSet::Empty());
  Result<StorageMode> mode = store.ModeOf("keep");
  ASSERT_FALSE(mode.ok());
  EXPECT_NE(mode.status().message().find("is closed"), std::string::npos)
      << mode.status().ToString();
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

TEST(SetStoreTest, MemberInsertLogsOneImageAndOneDelta) {
  // A commit logs the pages it changed and the catalog entries it changed,
  // not the catalog: on a store of 300 names, an insert that splits no leaf
  // logs one page image, one delta and a commit record, and allocates
  // nothing.
  TempFile file("store_insert_delta");
  auto store_or = SetStore::Open(file.path());
  ASSERT_TRUE(store_or.ok());
  SetStore& store = **store_or;
  std::vector<std::pair<std::string, XSet>> blobs;
  for (int i = 0; i < 300; ++i) {
    blobs.emplace_back("blob" + std::to_string(i), IntRun(i, i + 2));
  }
  ASSERT_TRUE(store.PutBatch(blobs).ok());
  std::vector<Membership> evens;
  for (int i = 0; i < 400; i += 2) evens.push_back(Membership{XSet::Int(i), XSet::Empty()});
  ASSERT_TRUE(store.PutIndexed("links", XSet::FromMembers(evens)).ok());
  ASSERT_TRUE(store.Checkpoint().ok());
  // A page-image frame: 20 bytes of frame header, the type byte, the txn id
  // and page id varints, and the page.
  constexpr uint64_t kImageFrame = 20 + 1 + 10 + 5 + kPageSize;
  const uint32_t pages = store.page_count();
  for (int i = 1; i < 400; i += 2) {
    const uint64_t before = store.wal_stats().segment_bytes;
    ASSERT_TRUE(store.InsertMember("links", Membership{XSet::Int(i), XSet::Empty()}).ok());
    EXPECT_LE(store.wal_stats().segment_bytes - before, kImageFrame + 512) << "insert " << i;
    EXPECT_EQ(store.page_count(), pages) << "insert " << i;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(*store.Get("links"), IntRun(0, 399));
  EXPECT_EQ(store.List().size(), 301u);
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
