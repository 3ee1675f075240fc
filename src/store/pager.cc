#include "src/store/pager.h"

#include <algorithm>
#include <optional>

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/wal.h"

namespace xst {

namespace {

// The pager's counters (see pager.h internal): one process-wide registry
// counter per statistic.
obs::Counter& HitsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kPagerHitsCounter);
  return c;
}
obs::Counter& MissesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kPagerMissesCounter);
  return c;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kPagerEvictionsCounter);
  return c;
}
obs::Counter& WritebacksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kPagerWritebacksCounter);
  return c;
}
obs::Counter& AllocationsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kPagerAllocationsCounter);
  return c;
}
obs::Counter& LatchAcquisitionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kPagerLatchAcquisitionsCounter);
  return c;
}
obs::Counter& LatchContentionCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kPagerLatchContentionCounter);
  return c;
}

// Largest power of two that is <= n (n >= 1).
size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// A page-span chunk fills a fresh page: the page's free space for its one
// record.
size_t ChunkCapacity() {
  static const size_t capacity = Page().FreeSpace();
  return capacity;
}

size_t ShardsFor(size_t capacity) {
  // A power of two (page-id masking), at most 16, and small enough that
  // every shard keeps >= 4 frames — thinner slices would turn pin pressure
  // into spurious ResourceExhausted. Pools under 8 frames get one shard,
  // which is exactly the coarse pager (same LRU order, same eviction
  // counts).
  return FloorPow2(std::min<size_t>(16, std::max<size_t>(1, capacity / 4)));
}

}  // namespace

namespace internal {

ShardLatchLock::ShardLatchLock(PagerShard* shard) : shard_(shard) {
  // Counter resolution happens before the latch is taken, so the one-time
  // registry lookup (registry mutex, rank 90) never runs under a latch.
  LatchAcquisitionsCounter().Increment();
  if (!shard_->latch.TryLock()) {
    LatchContentionCounter().Increment();
    shard_->latch.Lock();
  }
}

}  // namespace internal

PageRef::PageRef(Pager* pager, internal::PageFrame* frame)
    : pager_(pager), frame_(frame) {
  // Pins are only ever acquired under the frame's shard latch (every PageRef
  // is minted inside a latched pager section), so the 0->1 transition cannot
  // race an eviction scan of the same shard.
  if (frame_->pins.fetch_add(1, std::memory_order_relaxed) == 0) {
    pager_->pinned_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Reset();
    pager_ = other.pager_;
    frame_ = other.frame_;
    other.pager_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

void PageRef::Reset() {
  if (frame_ != nullptr) pager_->Unpin(frame_);
  pager_ = nullptr;
  frame_ = nullptr;
}

void PageRef::MarkDirty() { pager_->MarkFrameDirty(frame_); }

void Pager::Unpin(internal::PageFrame* frame) {
  // Latch-free release: the evictor reads pins under the shard latch, and
  // its acquisition of the latch orders after this release RMW; we never
  // touch the frame after the decrement, so an immediate eviction is safe.
  uint32_t before = frame->pins.fetch_sub(1, std::memory_order_acq_rel);
  XST_CHECK(before > 0);
  if (before == 1) pinned_frames_.fetch_sub(1, std::memory_order_relaxed);
}

void Pager::MarkFrameDirty(internal::PageFrame* frame) {
  internal::PagerShard& shard = ShardFor(frame->page_id);
  internal::ShardLatchLock latch(&shard);
  frame->dirty = true;
  frame->logged = false;
}

PageWriteGuard::PageWriteGuard(PageRef& ref)
    : frame_(ref.frame_), latch_(&ref.pager_->ShardFor(ref.frame_->page_id)) {}

PageWriteGuard::~PageWriteGuard() {
  // The write window closes dirty: content changed, so any previously
  // logged image no longer matches and must not satisfy a commit drain.
  // latch_ unlocks after this body, so the flags flip under it.
  frame_->dirty = true;
  frame_->logged = false;
}

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path, size_t capacity) {
  Result<std::unique_ptr<File>> file = StdioFile::Open(path);
  if (!file.ok()) return file.status();
  return Open(std::move(*file), capacity, path);
}

Result<std::unique_ptr<Pager>> Pager::Open(std::unique_ptr<File> file,
                                           size_t capacity, const std::string& name) {
  if (capacity == 0) return Status::Invalid("buffer pool capacity must be >= 1");
  Result<uint64_t> size = file->Size();
  if (!size.ok()) return size.status().WithContext(name);
  if (*size % kPageSize != 0) {
    return Status::Corruption(name + ": file size " + std::to_string(*size) +
                              " is not a whole number of pages");
  }
  return std::unique_ptr<Pager>(new Pager(std::move(file), name, capacity,
                                          static_cast<uint32_t>(*size / kPageSize)));
}

Pager::Pager(std::unique_ptr<File> file, std::string name, size_t capacity,
             uint32_t page_count)
    : file_(std::move(file)),
      name_(std::move(name)),
      capacity_per_shard_(capacity / ShardsFor(capacity)),
      page_count_(page_count) {
  const size_t shards = ShardsFor(capacity);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<internal::PagerShard>());
  }
  shard_mask_ = static_cast<uint32_t>(shards - 1);
}

Pager::~Pager() {
  // Pin discipline: every PageRef must be released before its pager dies —
  // a surviving handle would point into a freed frame.
  XST_CHECK(pinned_frames() == 0);
  // WAL mode: writing appended-but-unsynced frames to the main file here
  // would let data overtake the log; the store checkpoints explicitly.
  if (wal_ != nullptr) return;
  // Deliberate drop: a destructor has no error channel. Callers that care
  // about durability must Flush() explicitly and check the Status first.
  (void)Flush();
}

void Pager::AttachWal(Wal* wal) {
  // Runs during store open, before any concurrent access to this pager.
  wal_ = wal;
  // The log may hold committed images for pages past the main file's end
  // (allocated since the last checkpoint); they are real logical pages.
  uint32_t bound = wal->PageCountLowerBound();
  if (bound > page_count_.load(std::memory_order_relaxed)) {
    page_count_.store(bound, std::memory_order_release);
  }
}

Result<PageRef> Pager::AllocatePage() {
  // Allocation (like all mutation) is externally serialized — the store
  // holds SetStore::mu_ — so the id handoff below cannot race another
  // allocator; concurrent readers only ever touch ids < page_count_.
  uint32_t id = page_count_.load(std::memory_order_relaxed);
  internal::PagerShard& shard = ShardFor(id);
  internal::ShardLatchLock latch(&shard);
  Status st = EvictIfFullLocked(shard);
  if (!st.ok()) return st;
  internal::PageFrame& frame = shard.lru.emplace_front();
  frame.page_id = id;
  frame.dirty = true;
  shard.frames[id] = shard.lru.begin();
  page_count_.store(id + 1, std::memory_order_release);
  AllocationsCounter().Increment();
  return PageRef(this, &frame);
}

template <typename Use>
Status Pager::Load(uint32_t page_id, Page* snapshot, const Use& use) {
  if (page_id >= page_count_.load(std::memory_order_acquire)) {
    return Status::OutOfRange(
        "page " + std::to_string(page_id) + " of " +
        std::to_string(page_count_.load(std::memory_order_relaxed)));
  }
  internal::PagerShard& shard = ShardFor(page_id);
  bool counted_miss = false;
  std::string bytes;  // sized only for a main-file read; LookupPage assigns it
  // The page as decoded from a log image, or from the previous pass's
  // main-file read (decoded with no latch held); and the file-write tick
  // taken before that read began.
  std::optional<Result<Page>> decoded;
  uint64_t ticks_before = 0;
  for (;;) {
    {
      // Latched probe: the pool, then the log's image table, then the
      // previous pass's file read. Wal::LookupPage takes Wal::mu_ (rank 30)
      // over this latch (rank 20): rank-increasing and non-blocking (an
      // in-memory map probe).
      internal::ShardLatchLock latch(&shard);
      auto it = shard.frames.find(page_id);
      if (it != shard.frames.end()) {
        // Resident — or cached by another thread during our file read, with
        // the same version or a newer one.
        if (!counted_miss) HitsCounter().Increment();
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
        use(*it->second);
        return Status::OK();
      }
      if (!counted_miss) {
        // Counted exactly once per load, no matter how many times the race
        // below makes us retry.
        counted_miss = true;
        MissesCounter().Increment();
      }
      const bool logged = wal_ != nullptr && wal_->LookupPage(page_id, &bytes);
      if (logged) {
        // The log wins over the file, including an image a concurrent
        // eviction spilled after our file read.
        decoded = Page::FromBytes(bytes, page_id);
      } else if (decoded && file_write_ticks_.load() != ticks_before) {
        // A file write (a checkpoint, or a legacy write-back) completed
        // during our unlatched read, so our bytes may be stale: read again.
        // The newest version is now cached, logged, or durably in the file.
        decoded.reset();
      }
      if (decoded) {
        Result<Page>& page = *decoded;
        if (!page.ok()) return page.status().WithContext("page " + std::to_string(page_id));
        // A snapshot's two exemptions: it never caches a log image, and a
        // shard with every frame pinned costs it only the caching, never the
        // read itself.
        Status st = Status::OK();
        if (snapshot == nullptr || !logged) st = EvictIfFullLocked(shard);
        if (snapshot != nullptr && (logged || !st.ok())) {
          *snapshot = std::move(*page);
          return Status::OK();
        }
        if (!st.ok()) return st;
        internal::PageFrame& frame = shard.lru.emplace_front();
        frame.page = std::move(*page);
        frame.page_id = page_id;
        shard.frames[page_id] = shard.lru.begin();
        use(frame);
        return Status::OK();
      }
      // The newest version of this page is in the main file. Remember the
      // file-write tick so the next pass can tell whether a write made the
      // file newer than what we read.
      ticks_before = file_write_ticks_.load();
    }
    // No latch held: the main-file read and its decode. StdioFile serializes
    // whole operations, so the image cannot tear against a concurrent
    // checkpoint write — at worst it is one committed version stale, which
    // the next pass catches.
    bytes.resize(kPageSize);
    Status read_st;
    {
      XST_TRACE_SPAN("io.page_read");
      read_st = file_->ReadAt(static_cast<uint64_t>(page_id) * kPageSize,
                              bytes.data(), kPageSize);
    }
    decoded = read_st.ok() ? Page::FromBytes(bytes, page_id) : Result<Page>(read_st);
  }
}

Result<PageRef> Pager::FetchPage(uint32_t page_id) {
  PageRef ref;
  XST_RETURN_NOT_OK(
      Load(page_id, nullptr, [&](internal::PageFrame& frame) { ref = PageRef(this, &frame); }));
  return ref;
}

Status Pager::ReadPageSnapshot(uint32_t page_id, Page* out) {
  // An in-pool copy under the latch; no pin is taken.
  return Load(page_id, out, [&](const internal::PageFrame& frame) { *out = frame.page; });
}

Status Pager::WriteBack(internal::PagerShard& shard, internal::PageFrame& frame) {
  (void)shard;  // held capability; frame belongs to it
  XST_TRACE_SPAN("io.page_write");
  std::string bytes = frame.page.ToBytes(frame.page_id);
  // Legacy no-WAL eviction path: dirty frames exist only when the store runs
  // without a log, and that mode is single-threaded by contract, so the I/O
  // under the shard latch cannot stall concurrent readers.
  Status st = file_->WriteAt(  // xst-lint: allow(blocking-under-latch)
      static_cast<uint64_t>(frame.page_id) * kPageSize, bytes.data(),
      kPageSize);
  if (!st.ok()) return st.WithContext("page " + std::to_string(frame.page_id));
  file_write_ticks_.fetch_add(1);
  WritebacksCounter().Increment();
  return Status::OK();
}

Status Pager::EvictIfFullLocked(internal::PagerShard& shard) {
  while (shard.lru.size() >= capacity_per_shard_) {
    // Least-recently-used unpinned frame; pinned frames are untouchable.
    // The pins load is ordered after any concurrent unpin's release RMW by
    // this thread's latch acquisition.
    auto victim = shard.lru.end();
    for (auto it = std::prev(shard.lru.end());; --it) {
      if (it->pins.load(std::memory_order_acquire) == 0) {
        victim = it;
        break;
      }
      if (it == shard.lru.begin()) break;
    }
    if (victim == shard.lru.end()) {
      return Status::ResourceExhausted(
          name_ + ": all " + std::to_string(capacity_per_shard_) +
          " buffer-pool frames are pinned; release a PageRef or grow the pool");
    }
    if (victim->dirty) {
      if (wal_ != nullptr) {
        // Spill to the log, never to the main file. A dirty-and-logged
        // frame's image is already in the log's table; just drop it.
        // LogPageImage only records into the in-memory image table (no
        // I/O), so it is legal under the latch (Wal::mu_ ranks above it).
        if (!victim->logged) {
          Status st = wal_->LogPageImage(victim->page_id,
                                         victim->page.ToBytes(victim->page_id));
          if (!st.ok()) return st;
          victim->logged = true;
        }
      } else {
        Status st = WriteBack(shard, *victim);
        if (!st.ok()) return st;
      }
    }
    shard.frames.erase(victim->page_id);
    shard.lru.erase(victim);
    EvictionsCounter().Increment();
  }
  return Status::OK();
}

Status Pager::Flush() {
  // In WAL mode the only legal main-file writer is ApplyCheckpointImage.
  XST_DCHECK(wal_ == nullptr);
  XST_TRACE_SPAN("io.flush");
  for (auto& shard : shards_) {
    internal::ShardLatchLock latch(shard.get());
    for (internal::PageFrame& frame : shard->lru) {
      if (!frame.dirty) continue;
      Status st = WriteBack(*shard, frame);
      if (!st.ok()) return st;
      frame.dirty = false;
    }
  }
  return file_->Flush();
}

Status Pager::DrainUnloggedToWal() {
  XST_DCHECK(wal_ != nullptr);
  for (auto& shard : shards_) {
    internal::ShardLatchLock latch(shard.get());
    for (internal::PageFrame& frame : shard->lru) {
      if (!frame.dirty || frame.logged) continue;
      // Buffer-only append (see EvictIfFullLocked) — legal under the latch.
      Status st =
          wal_->LogPageImage(frame.page_id, frame.page.ToBytes(frame.page_id));
      if (!st.ok()) return st.WithContext("page " + std::to_string(frame.page_id));
      frame.logged = true;
    }
  }
  return Status::OK();
}

Status Pager::ApplyCheckpointImage(uint32_t page_id, const std::string& bytes) {
  XST_DCHECK(wal_ != nullptr);
  XST_DCHECK(bytes.size() == kPageSize);
  // The file write runs with no latch held (the checkpointer holds only
  // SetStore::mu_, rank 10 — below the latch floor, so blocking here is
  // legal). Ordering matters for the snapshot miss protocol: the tick
  // increment happens after the write completes and before the WAL's image
  // table is reset, so a reader that missed both the pool and the log either
  // reads the new file content or sees the tick change and refuses to cache.
  {
    XST_TRACE_SPAN("io.page_write");
    Status st = file_->WriteAt(static_cast<uint64_t>(page_id) * kPageSize,
                               bytes.data(), bytes.size());
    if (!st.ok()) return st.WithContext("page " + std::to_string(page_id));
  }
  file_write_ticks_.fetch_add(1);
  WritebacksCounter().Increment();
  internal::PagerShard& shard = ShardFor(page_id);
  internal::ShardLatchLock latch(&shard);
  auto it = shard.frames.find(page_id);
  if (it != shard.frames.end()) {
    // The resident frame holds the same committed content the image came
    // from (checkpoints run with no transaction open), so it is clean now.
    it->second->dirty = false;
    it->second->logged = false;
  }
  return Status::OK();
}

Status Pager::SyncFile() { return file_->Flush(); }

namespace internal {

Result<PageSpan> WritePageSpan(Pager& pager, std::string_view bytes) {
  PageSpan span;
  span.byte_length = bytes.size();
  size_t offset = 0;
  do {
    // AllocatePage returns the frame pinned and already dirty; the pin drops
    // at the end of each iteration, so even a capacity-1 pool makes progress.
    XST_ASSIGN_OR_RAISE(PageRef page, pager.AllocatePage());
    if (span.pages++ == 0) span.first_page = page.id();
    // Content goes in under the shard latch (PageWriteGuard), so a concurrent
    // reader's in-pool copy or an eviction spill never sees it half-written.
    const std::string_view chunk = bytes.substr(offset, ChunkCapacity());
    PageWriteGuard guard(page);
    XST_RETURN_NOT_OK(guard->AddRecord(chunk).status());
    offset += chunk.size();
  } while (offset < bytes.size());
  return span;
}

Status ReadPageSpan(Pager& pager, const PageSpan& span, std::string* out) {
  out->clear();
  out->reserve(span.byte_length);
  Page snapshot;
  for (uint32_t i = 0; i < span.pages; ++i) {
    // Snapshot reads copy each page under its shard latch, so this streams
    // safely with no store lock held; the chunk view aliases our own copy.
    const uint32_t page_id = span.first_page + i;
    XST_RETURN_NOT_OK(pager.ReadPageSnapshot(page_id, &snapshot));
    Result<std::string_view> chunk = snapshot.GetRecord(0);
    if (!chunk.ok()) {
      return Status::Corruption("page " + std::to_string(page_id) +
                                ": page-span chunk missing");
    }
    out->append(*chunk);
  }
  if (out->size() != span.byte_length) {
    return Status::Corruption("page-span length mismatch: expected " +
                              std::to_string(span.byte_length) + ", got " +
                              std::to_string(out->size()));
  }
  return Status::OK();
}

Status ValidatePageSpan(std::string_view what, int64_t first_page, int64_t pages,
                        int64_t byte_length, uint32_t page_count) {
  const auto fail = [&](const char* detail) {
    return Status::Corruption(std::string(what) + ": " + detail + " (first_page=" +
                              std::to_string(first_page) +
                              ", page_span=" + std::to_string(pages) +
                              ", byte_length=" + std::to_string(byte_length) +
                              ", file has " + std::to_string(page_count) + " pages)");
  };
  // Page 0 is the store's superblock, so every span lives in [1, page_count).
  if (first_page < 1) return fail("first page out of range");
  if (pages < 1) return fail("page span out of range");
  if (byte_length < 0) return fail("negative byte length");
  if (first_page > int64_t{page_count} - pages) return fail("page range beyond end of file");
  // pages < page_count here, so the product cannot overflow.
  if (byte_length > pages * static_cast<int64_t>(ChunkCapacity())) {
    return fail("byte length exceeds what the page span can hold");
  }
  return Status::OK();
}

}  // namespace internal

}  // namespace xst
