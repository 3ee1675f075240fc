// Concurrent readers against the sharded pager latch: a static store read
// from many threads must serve exact values, and readers racing a writer on
// the optimistic read path must only ever observe fully-published versions
// (never a torn mix of two commits), a multi-leaf range cursor included
// while the writer reshapes the leaves under it. A reader parked inside its
// optimistic window must retry, then run under the store lock, exactly as
// often as writers invalidate it. A pager miss parked after its file read
// while a checkpoint rewrites the page must read the page again, through
// either pager entry point. CI runs this suite under TSan with
// XST_NUM_THREADS=4; gtest assertions are not thread-safe, so worker threads
// count failures atomically and the main thread asserts at the end.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/macros.h"
#include "src/core/cursor.h"
#include "src/core/order.h"
#include "src/obs/metrics.h"
#include "src/store/catalog.h"
#include "src/store/pager.h"
#include "src/store/setstore.h"
#include "src/store/wal.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;

class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = ::testing::TempDir();
    if (path_.empty()) path_ = "/tmp/";
    if (path_.back() != '/') path_ += '/';
    path_ += "xst_concurrent_test_" + tag + "_" + std::to_string(::getpid());
    Remove();
  }
  ~TempFile() { Remove(); }
  const std::string& path() const { return path_; }

 private:
  void Remove() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }

  std::string path_;
};

// "{0, 1, ..., n-1}" — version n of the hot set; each version is
// distinguishable by size and internally consistent, so a torn read (members
// from two different versions) breaks the size/content agreement.
std::string DenseSetText(int n) {
  std::string out = "{";
  for (int i = 0; i < n; ++i) {
    if (i) out += ", ";
    out += std::to_string(i);
  }
  return out + "}";
}

TEST(StoreConcurrentTest, ParallelReadersSeeExactValues) {
  TempFile tmp("static");
  SetStoreOptions options;
  options.buffer_pool_pages = 8;  // small pool: force misses + evictions
  Result<std::unique_ptr<SetStore>> store = SetStore::Open(tmp.path(), options);
  ASSERT_TRUE(store.ok());

  constexpr int kSets = 12;
  std::vector<XSet> expected;
  for (int i = 0; i < kSets; ++i) {
    expected.push_back(X(DenseSetText(i + 3)));
    ASSERT_TRUE((*store)->Put("set" + std::to_string(i), expected.back()).ok());
  }
  ASSERT_TRUE((*store)->PutIndexed("idx", X(DenseSetText(64))).ok());

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < kIters; ++iter) {
        const int i = (t + iter) % kSets;
        Result<XSet> got = (*store)->Get("set" + std::to_string(i));
        if (!got.ok() || !(*got == expected[i])) failures.fetch_add(1);
        // Point probes on the B+tree index, hit and miss.
        const Membership hit{XSet::Int(iter % 64), XSet::Empty()};
        const Membership miss{XSet::Int(999), XSet::Empty()};
        Result<bool> has = (*store)->ContainsMember("idx", hit);
        if (!has.ok() || !*has) failures.fetch_add(1);
        has = (*store)->ContainsMember("idx", miss);
        if (!has.ok() || *has) failures.fetch_add(1);
        // Full cursor stream over the index: canonical order, exact count.
        Result<std::unique_ptr<MemberCursor>> cur = (*store)->OpenCursor("idx");
        if (!cur.ok()) {
          failures.fetch_add(1);
          continue;
        }
        size_t count = 0;
        bool ordered = true;
        const Membership* prev = nullptr;
        Membership prev_copy;
        for (auto batch = (*cur)->NextBatch(); !batch.empty();
             batch = (*cur)->NextBatch()) {
          for (const Membership& m : batch) {
            if (prev != nullptr && CompareMembership(*prev, m) >= 0) {
              ordered = false;
            }
            prev_copy = m;
            prev = &prev_copy;
            ++count;
          }
        }
        if (!(*cur)->status().ok() || count != 64 || !ordered) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StoreConcurrentTest, ReadersRacingWriterSeeOnlyPublishedVersions) {
  TempFile tmp("race");
  SetStoreOptions options;
  options.buffer_pool_pages = 8;
  Result<std::unique_ptr<SetStore>> store = SetStore::Open(tmp.path(), options);
  ASSERT_TRUE(store.ok());

  constexpr int kVersions = 48;
  std::atomic<int> published{0};  // highest version whose Put has returned
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int v = 1; v <= kVersions; ++v) {
      if (!(*store)->Put("hot", X(DenseSetText(v))).ok()) {
        failures.fetch_add(1);
        break;
      }
      published.store(v);
    }
    done.store(true);
  });

  constexpr int kThreads = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      int last_seen = 0;
      while (!done.load() || last_seen < 1) {
        const int floor_version = published.load();
        Result<XSet> got = (*store)->Get("hot");
        if (!got.ok()) {
          // Only the pre-first-commit window may miss.
          if (floor_version > 0) failures.fetch_add(1);
          continue;
        }
        const int n = static_cast<int>(got->members().size());
        // A read must be some whole published version: dense 0..n-1 (group
        // commit may expose a version past `published`, never a torn one),
        // and at least as new as what was published before the read began.
        if (n < floor_version || n > kVersions || !(*got == X(DenseSetText(n)))) {
          failures.fetch_add(1);
        }
        last_seen = n;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(published.load(), kVersions);

  Result<XSet> final_value = (*store)->Get("hot");
  ASSERT_TRUE(final_value.ok());
  EXPECT_TRUE(*final_value == X(DenseSetText(kVersions)));
}

TEST(StoreConcurrentTest, IndexProbesMonotoneUnderRewrites) {
  TempFile tmp("mono");
  SetStoreOptions options;
  options.buffer_pool_pages = 8;
  Result<std::unique_ptr<SetStore>> store = SetStore::Open(tmp.path(), options);
  ASSERT_TRUE(store.ok());

  // Versions only grow, so any member of version 1 stays present forever:
  // a ContainsMember that raced a rewrite and answered "no" would be a
  // stale (pre-publication) or torn index view.
  constexpr int kVersions = 24;
  ASSERT_TRUE((*store)->PutIndexed("mono", X(DenseSetText(4))).ok());
  const Membership anchor{XSet::Int(0), XSet::Empty()};

  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int v = 2; v <= kVersions; ++v) {
      if (!(*store)->PutIndexed("mono", X(DenseSetText(4 * v))).ok()) {
        failures.fetch_add(1);
        break;
      }
    }
    done.store(true);
  });

  constexpr int kThreads = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        Result<bool> has = (*store)->ContainsMember("mono", anchor);
        if (!has.ok() || !*has) failures.fetch_add(1);
        // Range scans must stream a whole version: count divisible by 4.
        Result<std::unique_ptr<MemberCursor>> cur = (*store)->OpenCursor("mono");
        if (!cur.ok()) {
          failures.fetch_add(1);
          continue;
        }
        size_t count = 0;
        for (auto batch = (*cur)->NextBatch(); !batch.empty();
             batch = (*cur)->NextBatch()) {
          count += batch.size();
        }
        if (!(*cur)->status().ok() || count % 4 != 0 || count == 0 ||
            count > 4 * kVersions) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StoreConcurrentTest, RangeReadsRacingMemberMutationsSeeOneCommit) {
  TempFile tmp("range_race");
  Result<std::unique_ptr<SetStore>> store = SetStore::Open(tmp.path());
  ASSERT_TRUE(store.ok());

  // The even integers 0..5998: 3,000 members over several leaves.
  std::vector<Membership> evens;
  for (int i = 0; i < 6000; i += 2) evens.push_back(Membership{XSet::Int(i), XSet::Empty()});
  ASSERT_TRUE((*store)->PutIndexed("idx", XSet::FromMembers(std::move(evens))).ok());

  // The writer inserts one odd member of [kLo, kHi] and erases it again, so
  // every commit holds the 2,001 evens of the range and at most one odd
  // member. An answer stitched from two commits can miss or repeat members
  // the inserts shift between leaves, or hold two odd members.
  constexpr int kLo = 1000;
  constexpr int kHi = 5001;
  constexpr int kEvensInRange = 2001;
  constexpr int kReaders = 2;
  constexpr int kReadsPerReader = 100;
  std::atomic<int> failures{0};
  std::atomic<int> commits{0};
  std::atomic<int> readers_done{0};
  std::thread writer([&] {
    for (int k = 0; readers_done.load() < kReaders; ++k) {
      // Stride through the odd members so consecutive ones land in
      // different leaves.
      const int slot = static_cast<int>((997LL * k) % kEvensInRange);
      const Membership odd{XSet::Int(kLo + 1 + 2 * slot), XSet::Empty()};
      if (!(*store)->InsertMember("idx", odd).ok() ||
          !(*store)->EraseMember("idx", odd).ok()) {
        failures.fetch_add(1);
        break;
      }
      commits.fetch_add(2);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      // Start once the writer is committing, so every read races it.
      while (commits.load() == 0 && failures.load() == 0) std::this_thread::yield();
      std::vector<Membership> got;
      for (int r = 0; r < kReadsPerReader; ++r) {
        Result<std::unique_ptr<MemberCursor>> cur =
            (*store)->OpenElementRange("idx", XSet::Int(kLo), XSet::Int(kHi));
        if (!cur.ok()) {
          failures.fetch_add(1);
          continue;
        }
        got.clear();
        for (auto batch = (*cur)->NextBatch(); !batch.empty();
             batch = (*cur)->NextBatch()) {
          got.insert(got.end(), batch.begin(), batch.end());
        }
        bool ok = (*cur)->status().ok();
        int even = 0;
        int odd = 0;
        for (size_t i = 0; i < got.size() && ok; ++i) {
          const XSet& e = got[i].element;
          ok = e.is_int() && e.int_value() >= kLo && e.int_value() <= kHi &&
               (i == 0 || CompareMembership(got[i - 1], got[i]) < 0);
          (e.is_int() && e.int_value() % 2 == 0 ? even : odd) += 1;
        }
        if (!ok || even != kEvensInRange || odd > 1) failures.fetch_add(1);
      }
      readers_done.fetch_add(1);
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(commits.load(), 0);
}

// Shared by the test thread and the store's main-file ParkingFile: which
// page read to park, how many more times, whether it parks before or after
// reading, and the hand-off counters.
struct ReadGate {
  std::atomic<uint64_t> park_offset{UINT64_MAX};
  std::atomic<int> parks_left{0};  // reads of park_offset still to park
  std::atomic<bool> park_after_read{false};  // park holding the bytes read
  std::atomic<int> arrivals{0};    // reads parked so far
  std::atomic<int> releases{0};    // parked reads the test has let go
};

// A main file whose reads of one page park until the test releases them, so
// the test can commit a write inside a reader's optimistic window. Parked
// before the read, a released reader reads fresh bytes; parked after it, the
// reader holds the bytes it read before the test's write.
class ParkingFile : public File {
 public:
  ParkingFile(std::unique_ptr<File> inner, std::shared_ptr<ReadGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  Result<uint64_t> Size() override { return inner_->Size(); }
  Status ReadAt(uint64_t offset, char* dst, size_t n) override {
    const bool park = offset == gate_->park_offset.load() && gate_->parks_left.load() > 0;
    if (park) gate_->parks_left.fetch_sub(1);
    const bool after = gate_->park_after_read.load();
    if (park && !after) Park();
    Status st = inner_->ReadAt(offset, dst, n);
    if (park && after) Park();
    return st;
  }
  Status WriteAt(uint64_t offset, const char* src, size_t n) override {
    return inner_->WriteAt(offset, src, n);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }

 private:
  void Park() {
    const int ticket = gate_->arrivals.fetch_add(1) + 1;
    while (gate_->releases.load() < ticket) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  std::unique_ptr<File> inner_;
  std::shared_ptr<ReadGate> gate_;
};

// True once `n` reads have parked; false after ten seconds without them.
bool WaitForArrivals(const ReadGate& gate, int n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (gate.arrivals.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// A Get whose view a writer invalidates is retried, and after three
// invalidated views it runs under the store lock; both paths return the
// stored value, and the store.read counters record each step.
TEST(StoreConcurrentTest, InvalidatedReadsRetryThenRunUnderTheStoreLock) {
  TempFile tmp("park");
  auto gate = std::make_shared<ReadGate>();
  SetStoreOptions options;
  options.buffer_pool_pages = 4;  // one shard, smaller than the blob
  options.file_factory = [gate](const std::string& path) {
    Result<std::unique_ptr<File>> file = StdioFile::Open(path);
    if (file.ok() && !path.ends_with(".wal")) {
      file = std::unique_ptr<File>(std::make_unique<ParkingFile>(std::move(*file), gate));
    }
    return file;
  };
  Result<std::unique_ptr<SetStore>> store = SetStore::Open(tmp.path(), options);
  ASSERT_TRUE(store.ok());

  std::vector<Membership> wide;
  for (int i = 0; i < 64; ++i) {
    wide.push_back(Membership{XSet::String(std::string(512, 'x') + std::to_string(i)),
                              XSet::Empty()});
  }
  const XSet big = XSet::FromMembers(std::move(wide));
  ASSERT_TRUE((*store)->Put("big", big).ok());
  // After the checkpoint the blob lives only in the main file, and the
  // blob's later pages evict its first from the 4-frame pool, so every
  // attempt re-reads that first page through ReadAt.
  ASSERT_TRUE((*store)->Checkpoint().ok());
  Result<Catalog> catalog = Catalog::FromXSet((*store)->CatalogAsXSet());
  ASSERT_TRUE(catalog.ok());
  Result<CatalogEntry> entry = catalog->Get("big");
  ASSERT_TRUE(entry.ok());
  ASSERT_GT(entry->page_span, 4u);
  gate->park_offset.store(uint64_t{entry->first_page} * kPageSize);

  obs::Counter& retries =
      obs::MetricsRegistry::Global().GetCounter(internal::kStoreReadRetriesCounter);
  obs::Counter& fallbacks =
      obs::MetricsRegistry::Global().GetCounter(internal::kStoreReadFallbacksCounter);
  int writes = 0;
  // One Get whose first `parks` attempts each park on the blob's first page
  // until a Put of another name commits.
  const auto get_under_writes = [&](int parks) {
    gate->arrivals.store(0);
    gate->releases.store(0);
    gate->parks_left.store(parks);
    Result<XSet> got = Status::Invalid("unset");
    std::thread reader([&] { got = (*store)->Get("big"); });
    for (int k = 1; k <= parks; ++k) {
      if (!WaitForArrivals(*gate, k)) break;
      EXPECT_TRUE((*store)->Put("w" + std::to_string(++writes), X("{1}")).ok());
      gate->releases.store(k);
    }
    gate->releases.store(parks);  // never leave the reader parked
    reader.join();
    EXPECT_EQ(gate->arrivals.load(), parks);
    gate->parks_left.store(0);  // disarm, even if the reader never parked
    return got;
  };

  uint64_t retries_before = retries.value();
  uint64_t fallbacks_before = fallbacks.value();
  Result<XSet> once = get_under_writes(1);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  EXPECT_TRUE(*once == big);
  EXPECT_EQ(retries.value() - retries_before, 1u);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 0u);

  retries_before = retries.value();
  fallbacks_before = fallbacks.value();
  Result<XSet> every = get_under_writes(3);
  ASSERT_TRUE(every.ok()) << every.status().ToString();
  EXPECT_TRUE(*every == big);
  EXPECT_EQ(retries.value() - retries_before, 3u);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 1u);

  // An undisturbed read validates its first view and touches neither.
  retries_before = retries.value();
  fallbacks_before = fallbacks.value();
  Result<XSet> quiet = (*store)->Get("big");
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(retries.value(), retries_before);
  EXPECT_EQ(fallbacks.value(), fallbacks_before);
}

// Record 0 of page `id`, read through the pager's pinned path (FetchPage)
// or its snapshot path (ReadPageSnapshot).
Result<std::string> ReadRecord(Pager& pager, uint32_t id, bool pinned) {
  Page snapshot;
  PageRef ref;
  if (pinned) {
    XST_ASSIGN_OR_RAISE(ref, pager.FetchPage(id));
  } else {
    XST_RETURN_NOT_OK(pager.ReadPageSnapshot(id, &snapshot));
  }
  XST_ASSIGN_OR_RAISE(std::string_view record, (pinned ? *ref : snapshot).GetRecord(0));
  return std::string(record);
}

// Seals the open log transaction, then checkpoints it the way the store
// does: images into the main file, fsync, recycle the log.
void CommitAndCheckpoint(Pager& pager, Wal& wal) {
  ASSERT_TRUE(pager.DrainUnloggedToWal().ok());
  Result<uint64_t> lsn = wal.AppendCommit();
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE(wal.WaitDurable(*lsn).ok());
  for (const auto& [id, image] : wal.SnapshotResident()) {
    ASSERT_TRUE(pager.ApplyCheckpointImage(id, image).ok());
  }
  ASSERT_TRUE(pager.SyncFile().ok());
  ASSERT_TRUE(wal.Reset(*lsn).ok());
}

// A pool miss that races a checkpoint. The reader reads version 1 of a page
// from the main file and parks holding it; meanwhile version 2 is committed,
// checkpointed into the file and evicted, so neither the pool nor the log
// holds it. The file-write tick must send the reader back to the file: the
// stale bytes may be neither returned nor cached.
void CheckpointRaceCase(const std::string& tag, bool pinned) {
  TempFile tmp(tag);
  auto gate = std::make_shared<ReadGate>();
  gate->park_after_read.store(true);
  Result<std::unique_ptr<Wal>> wal = Wal::Open(tmp.path() + ".wal");
  ASSERT_TRUE(wal.ok());
  Result<std::unique_ptr<File>> file = StdioFile::Open(tmp.path());
  ASSERT_TRUE(file.ok());
  Result<std::unique_ptr<Pager>> pager_or = Pager::Open(
      std::make_unique<ParkingFile>(std::move(*file), gate), 4, tmp.path());
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  pager.AttachWal(wal->get());
  ASSERT_EQ(pager.latch_shards(), 1u);

  // Page 0 holds the raced record; pages 1-4 fill the 4-frame pool, and
  // fetching them evicts page 0.
  constexpr uint32_t kPages = 5;
  const auto evict_page_0 = [&] {
    for (uint32_t id = 1; id < kPages; ++id) ASSERT_TRUE(pager.FetchPage(id).ok());
  };
  (*wal)->BeginTxn();
  for (uint32_t id = 0; id < kPages; ++id) {
    Result<PageRef> page = pager.AllocatePage();
    ASSERT_TRUE(page.ok());
    PageWriteGuard guard(*page);
    ASSERT_TRUE(guard->AddRecord(id == 0 ? "v1" : "filler").ok());
  }
  CommitAndCheckpoint(pager, **wal);
  evict_page_0();

  gate->park_offset.store(0);
  gate->parks_left.store(1);
  Result<std::string> raced = Status::Invalid("unset");
  std::thread reader([&] { raced = ReadRecord(pager, 0, pinned); });
  EXPECT_TRUE(WaitForArrivals(*gate, 1));
  (*wal)->BeginTxn();
  {
    Result<PageRef> page = pager.FetchPage(0);
    EXPECT_TRUE(page.ok());
    if (page.ok()) {
      PageWriteGuard guard(*page);
      *guard = Page();
      EXPECT_TRUE(guard->AddRecord("v2").ok());
    }
  }
  CommitAndCheckpoint(pager, **wal);
  evict_page_0();
  gate->releases.store(1);
  reader.join();

  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  EXPECT_EQ(*raced, "v2");
  Result<std::string> again = ReadRecord(pager, 0, pinned);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, "v2");
}

TEST(PagerLoadTest, SnapshotMissRacingACheckpointRereadsTheFile) {
  CheckpointRaceCase("ckpt_race_snapshot", /*pinned=*/false);
}

TEST(PagerLoadTest, FetchMissRacingACheckpointRereadsTheFile) {
  CheckpointRaceCase("ckpt_race_fetch", /*pinned=*/true);
}

}  // namespace
}  // namespace xst
