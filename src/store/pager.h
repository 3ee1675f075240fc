// Pager: a file of pages behind a latch-sharded LRU buffer pool with pin
// discipline.
//
// The 1977 paper's backend context (block devices, scarce memory) is
// simulated with a page file plus a bounded write-back cache. The pager
// counts hits, misses, evictions, write-backs and allocations in the
// process-wide metrics registry (the only source of those statistics), so
// the benchmarks can report locality behavior. It validates checksums on
// every fill — a torn or tampered page surfaces as Corruption, never as
// silent bad data. The checksum is seeded with the page id, so a
// misdirected write (right bytes, wrong offset) is also Corruption.
//
// Access is exclusively through PageRef, an RAII pin handle: a pinned frame
// is never evicted, so the reference stays valid for the handle's entire
// lifetime — across further fetches and allocations. The historical
// use-after-evict (holding a raw Page* across a pager call that recycled
// the frame) is unrepresentable in this API. When every frame is pinned and
// a fetch needs a new one, the pager returns ResourceExhausted instead of
// invalidating anything.
//
// I/O goes through the File seam (file.h); tests interpose FaultFile to
// prove every read/write/flush failure surfaces as a Status.
//
// With a Wal attached (AttachWal; see wal.h and DESIGN.md §14) the pager
// NEVER writes the main file on its own: evicting a dirty frame spills its
// image into the log instead of the file, fetches read through the log's
// image table before touching the file, and the main file is written only
// by ApplyCheckpointImage — the no-steal ordering that keeps uncommitted
// (and committed-but-unsynced) pages from ever overtaking the log.
//
// Thread safety (DESIGN.md §15): the frame table is split into latch
// shards keyed by page id, each holding its own LRU list and map behind a
// rank-20 latch. Concurrent readers stream page copies out through
// ReadPageSnapshot while a single writer (serialized externally on
// SetStore::mu_) mutates content under PageWriteGuard; per-frame pin counts
// are atomic so a reader-triggered eviction scan can race the writer's
// pins. The latch protocol:
//   * A shard latch is held only for map/LRU surgery and in-pool byte
//     copies — never across main-file I/O on the load path.
//   * FetchPage and ReadPageSnapshot share one load protocol (Load): a
//     latched probe of the pool and the log's image table; on a miss, an
//     unlatched main-file read and decode; then a re-latched re-check that
//     prefers a frame or log image that raced in, and reads again if a
//     file write (file_write_ticks_) completed meanwhile. Under the latch a
//     fetch pins the frame and a snapshot copies it. A snapshot keeps two
//     exemptions: a log image stays uncached, and with every frame of the
//     shard pinned it keeps its copy instead of failing.
//   * Shard latches never nest with each other; a WAL spill under a latch
//     takes Wal::mu_, which ranks above the latch floor (rank order
//     SetStore::mu_ < shard latch < Wal::mu_; locksmith-checked).
//   * Frame content and the dirty/logged flags are read and written only
//     under the owning shard's latch (a per-instance capability Clang's
//     TSA cannot name; the locksmith rules and TSan cover it).
// The shard count follows the pool size: a power of two, at most 16, with
// at least 4 frames per shard. Pools under 8 frames keep one shard —
// exactly the coarse pager, whose LRU order and eviction counts the
// exact-accounting tests rely on.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/store/file.h"
#include "src/store/page.h"

namespace xst {

class Wal;

namespace internal {

// Registry names of the pager counters, the only source of these statistics.
// They aggregate across every pager in the process. ExplainAnalyze's
// pages-touched attribution, `xstctl stats`, the benchmarks and the metrics
// dump read them; tests read their deltas over steps that run one pager.
inline constexpr const char* kPagerHitsCounter = "pager.fetch.hits";
inline constexpr const char* kPagerMissesCounter = "pager.fetch.misses";
inline constexpr const char* kPagerEvictionsCounter = "pager.evictions";
inline constexpr const char* kPagerWritebacksCounter = "pager.writebacks";
inline constexpr const char* kPagerAllocationsCounter = "pager.allocations";
// Latch-shard telemetry: every shard-latch acquisition, and the subset that
// found the latch already held (TryLock failed → contended Lock).
inline constexpr const char* kPagerLatchAcquisitionsCounter =
    "pager.latch.acquisitions";
inline constexpr const char* kPagerLatchContentionCounter =
    "pager.latch.shard_contention";

/// \brief A buffer-pool frame. Lives in a shard's LRU list (std::list nodes
/// are address-stable), addressed by PageRef while pinned.
///
/// `pins` is atomic: pin acquisition (0→1 and every increment) happens under
/// the owning shard's latch, but release is latch-free — the evictor's
/// pins==0 load under the latch is ordered after the releasing decrement,
/// and PageRef::Reset never touches the frame after that decrement, so a
/// frame freed by the evictor is never revisited by the releasing thread.
/// `page`, `dirty` and `logged` are guarded by the owning shard's latch (a
/// per-instance capability TSA cannot express; see the file comment).
struct PageFrame {
  Page page;
  uint32_t page_id = kInvalidPageId;
  std::atomic<uint32_t> pins{0};
  bool dirty = false;
  // WAL mode: the current dirty content has been captured as a log record.
  // Content mutation clears it, so "dirty && !logged" is exactly the set of
  // frames DrainUnloggedToWal must capture before a commit record seals the
  // txn.
  bool logged = false;
};

/// \brief One latch shard: a slice of the frame table keyed by page id.
struct PagerShard {
  // The pager latch: the blocking floor of the lock hierarchy (DESIGN.md
  // §15) — nothing acquired at or above this rank may reach a blocking
  // point while held.
  mutable Mutex latch XST_LOCK_RANK(20);
  // LRU: most-recent at front. The map stores list iterators for O(1) touch.
  std::list<PageFrame> lru XST_GUARDED_BY(latch);
  std::unordered_map<uint32_t, std::list<PageFrame>::iterator> frames
      XST_GUARDED_BY(latch);
};

/// \brief RAII shard-latch acquisition with contention telemetry: a TryLock
/// probe counts `pager.latch.shard_contention` before falling back to a
/// blocking Lock; every acquisition counts `pager.latch.acquisitions`.
class XST_SCOPED_CAPABILITY ShardLatchLock {
 public:
  // The constructor body is opted out of TSA: the TryLock-then-Lock
  // telemetry probe confuses the analysis inside a ctor that is itself
  // ACQUIRE-annotated; callers still get the full scoped-capability
  // contract from the attributes.
  explicit ShardLatchLock(PagerShard* shard) XST_ACQUIRE(shard->latch)
      XST_NO_THREAD_SAFETY_ANALYSIS;
  ~ShardLatchLock() XST_RELEASE() { shard_->latch.Unlock(); }

  ShardLatchLock(const ShardLatchLock&) = delete;
  ShardLatchLock& operator=(const ShardLatchLock&) = delete;

 private:
  PagerShard* shard_;
};

}  // namespace internal

class Pager;

/// \brief RAII pin on a buffer-pool frame.
///
/// Holding a PageRef guarantees the frame is resident and address-stable;
/// releasing (destruction, move-assignment, Reset) unpins it. Move-only.
/// A PageRef must not outlive its Pager (checked at pager teardown).
///
/// A pin keeps the frame resident but does NOT license content access under
/// concurrency: mutate through PageWriteGuard (which latches the frame's
/// shard) and read shared pages through Pager::ReadPageSnapshot. Direct
/// `ref->` access remains correct wherever the caller is the only thread
/// touching the pager (tests, tools, the store's bootstrap).
///
/// [[nodiscard]]: a discarded PageRef unpins immediately, so the page the
/// caller thought it pinned is evictable right away — exactly the
/// use-after-evict window the pin API exists to close.
class [[nodiscard]] PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Reset(); }

  /// \brief True iff the handle pins a frame.
  explicit operator bool() const { return frame_ != nullptr; }

  Page* operator->() const { return &frame_->page; }
  Page& operator*() const { return frame_->page; }

  /// \brief The pinned page's id.
  uint32_t id() const { return frame_->page_id; }

  /// \brief Marks the pinned page dirty so eviction/flush persists it (any
  /// previously logged image is stale for the new content). Latches the
  /// frame's shard for the flag flip; content written beforehand must itself
  /// have been written under a PageWriteGuard when readers may be live.
  void MarkDirty();

  /// \brief Unpins early (the handle becomes empty).
  void Reset();

 private:
  friend class Pager;
  friend class PageWriteGuard;
  PageRef(Pager* pager, internal::PageFrame* frame);

  Pager* pager_ = nullptr;
  internal::PageFrame* frame_ = nullptr;
};

/// \brief RAII content-write window on a pinned frame: latches the frame's
/// shard on construction, exposes the page for mutation, and on destruction
/// marks the frame dirty (logged image invalidated) before unlatching. The
/// only legal way to mutate page content while concurrent readers may be
/// streaming snapshots (DESIGN.md §15).
///
/// Which shard is latched depends on the pinned page id — a per-instance
/// capability Clang's TSA cannot name, so the guard is opted out of the
/// static analysis; the locksmith blocking-under-latch rule still sees the
/// scope (keep it free of I/O and waits).
class [[nodiscard]] PageWriteGuard {
 public:
  explicit PageWriteGuard(PageRef& ref) XST_NO_THREAD_SAFETY_ANALYSIS;
  ~PageWriteGuard() XST_NO_THREAD_SAFETY_ANALYSIS;

  PageWriteGuard(const PageWriteGuard&) = delete;
  PageWriteGuard& operator=(const PageWriteGuard&) = delete;

  Page* operator->() const { return &frame_->page; }
  Page& operator*() const { return frame_->page; }

 private:
  internal::PageFrame* frame_;
  internal::ShardLatchLock latch_;  // declared last: released after the dtor body
};

class Pager {
 public:
  /// \brief Opens (creating if needed) a page file through StdioFile.
  /// `capacity` is the buffer-pool size in pages (≥ 1); it also sets the
  /// latch-shard count (see the file comment).
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             size_t capacity = 64);

  /// \brief Opens over a caller-supplied File (fault injection, alternate
  /// backends). `name` labels error messages.
  static Result<std::unique_ptr<Pager>> Open(std::unique_ptr<File> file,
                                             size_t capacity, const std::string& name);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// \brief Appends a fresh empty page and returns it pinned and dirty.
  /// ResourceExhausted if every frame in the page's shard is pinned.
  Result<PageRef> AllocatePage();

  /// \brief Reads a page through the pool, pinned. ResourceExhausted if the
  /// page is not resident and every frame in its shard is pinned.
  Result<PageRef> FetchPage(uint32_t page_id);

  /// \brief Copies the page's current content into `*out` without pinning:
  /// hits copy the resident frame under its shard latch; misses read
  /// through the log's image table and the main file with no latch held,
  /// then re-latch, re-check for a raced-in newer version, and cache the
  /// clean frame when that is provably safe. The read path of concurrent
  /// SetStore readers (DESIGN.md §15).
  Status ReadPageSnapshot(uint32_t page_id, Page* out);

  /// \brief Writes back every dirty page and flushes the file. Unreachable
  /// in WAL mode (durability is the log's job; see AttachWal).
  Status Flush();

  /// \brief Puts the pager in WAL mode: dirty evictions spill to the log,
  /// fetches read through the log's image table, teardown skips its flush,
  /// and the logical page count covers pages that exist only as log images
  /// (the main file lags the log until the next checkpoint). The Wal must
  /// outlive the pager.
  void AttachWal(Wal* wal);

  /// \brief Logs every dirty-and-unlogged frame's image (the pages the
  /// current transaction mutated that pool pressure has not already
  /// spilled). Called immediately before the commit record is appended.
  Status DrainUnloggedToWal();

  /// \brief Checkpoint writer: puts `bytes` (a full page image) at the
  /// page's offset in the main file and marks a matching resident frame
  /// clean. The only main-file write path in WAL mode.
  Status ApplyCheckpointImage(uint32_t page_id, const std::string& bytes);

  /// \brief Fsyncs the main file (checkpoint's final barrier).
  Status SyncFile();

  /// \brief Number of pages in the file.
  uint32_t page_count() const { return page_count_.load(std::memory_order_acquire); }

  /// \brief Currently pinned frames (for tests and invariant checks).
  size_t pinned_frames() const { return pinned_frames_.load(std::memory_order_relaxed); }

  /// \brief The number of latch shards the frame table is split into.
  size_t latch_shards() const { return shards_.size(); }

 private:
  friend class PageRef;
  friend class PageWriteGuard;

  Pager(std::unique_ptr<File> file, std::string name, size_t capacity,
        uint32_t page_count);

  internal::PagerShard& ShardFor(uint32_t page_id) const {
    return *shards_[page_id & shard_mask_];
  }
  /// The one page-load protocol behind FetchPage and ReadPageSnapshot (see
  /// the file comment): `use` runs under the shard latch on the frame that
  /// holds the page. A snapshot load (non-null `snapshot`) decodes straight
  /// into *snapshot instead when the page comes from the log, or when every
  /// frame of the shard is pinned.
  template <typename Use>
  Status Load(uint32_t page_id, Page* snapshot, const Use& use);
  /// Legacy-mode (no WAL) dirty-page write-back to the main file.
  Status WriteBack(internal::PagerShard& shard, internal::PageFrame& frame)
      XST_REQUIRES(shard.latch);
  Status EvictIfFullLocked(internal::PagerShard& shard) XST_REQUIRES(shard.latch);
  void Unpin(internal::PageFrame* frame);
  void MarkFrameDirty(internal::PageFrame* frame);

  std::unique_ptr<File> file_;  // internally synchronized (StdioFile::mu_)
  const std::string name_;
  const size_t capacity_per_shard_;
  Wal* wal_ = nullptr;  // unowned; null = legacy direct-write mode; set once
                        // before concurrency starts (AttachWal in Open)
  std::atomic<uint32_t> page_count_;
  std::atomic<size_t> pinned_frames_{0};
  // Counts every main-file write (checkpoint images, legacy write-backs).
  // A load miss records it before reading the file unlatched and uses its
  // bytes only if it is unchanged at re-latch — otherwise a checkpoint may
  // have made the file newer than what was read (see Load).
  std::atomic<uint64_t> file_write_ticks_{0};
  // Immutable after construction (the vector itself; shards are internally
  // latched). unique_ptr because Mutex is not movable.
  std::vector<std::unique_ptr<internal::PagerShard>> shards_;
  uint32_t shard_mask_;
};

namespace internal {

/// \brief Where a byte string laid over contiguous pages lives: the store's
/// catalog, a blob-stored set, or a B+tree overflow entry. Each page holds
/// one record, the next chunk of the bytes.
struct PageSpan {
  uint32_t first_page = kInvalidPageId;
  uint32_t pages = 0;
  uint64_t byte_length = 0;
};

/// \brief Writes non-empty `bytes` over freshly allocated contiguous pages.
/// The caller serializes allocation, as it does every mutation.
Result<PageSpan> WritePageSpan(Pager& pager, std::string_view bytes);

/// \brief Reads a span back into *out through page snapshots (no pin, no
/// store lock). Corruption unless every page holds a chunk and the chunks
/// total byte_length.
Status ReadPageSpan(Pager& pager, const PageSpan& span, std::string* out);

/// \brief Corruption, naming `what` and every field, unless the span lies in
/// pages [1, page_count) and byte_length fits what its pages can hold. The
/// fields are int64 so that decoded values are checked before any narrowing
/// cast.
Status ValidatePageSpan(std::string_view what, int64_t first_page, int64_t pages,
                        int64_t byte_length, uint32_t page_count);

}  // namespace internal

}  // namespace xst
