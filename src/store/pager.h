// Pager: a file of pages behind a latch-sharded LRU buffer pool, written
// only through the write-ahead log.
//
// The 1977 paper's backend context (block devices, scarce memory) is
// simulated with a page file plus a bounded cache. The pager counts hits,
// misses, evictions, write-backs and allocations in the process-wide metrics
// registry (the only source of those statistics), so the benchmarks can
// report locality behavior. It validates checksums on every fill — a torn or
// tampered page surfaces as Corruption, never as silent bad data. The
// checksum is seeded with the page id, so a misdirected write (right bytes,
// wrong offset) is also Corruption.
//
// Pages are values. A caller reads a copy (ReadPageSnapshot) and writes a
// whole page (WritePage); no pointer into the pool ever leaves the pager,
// so a frame can be evicted at any time and nothing dangles. WritePage and
// AllocatePage are the only places a frame becomes unlogged.
//
// I/O goes through the File seam (file.h); tests interpose FaultFile to
// prove every read/write/flush failure surfaces as a Status.
//
// The log is the pager's only writer (see wal.h and DESIGN.md §14): a page
// that changed since the log last captured it spills its image into the log
// when evicted, reads go through the log's image table before touching the
// file, and the main file is written only by ApplyCheckpointImage — the
// no-steal ordering that keeps uncommitted (and committed-but-unsynced)
// pages from ever overtaking the log.
//
// Thread safety (DESIGN.md §15): the frame table is split into latch
// shards keyed by page id, each holding its own LRU list and map behind a
// rank-20 latch. Concurrent readers copy pages out through ReadPageSnapshot
// while a single writer (serialized externally on SetStore::mu_) moves
// whole pages in through WritePage. The latch protocol:
//   * A shard latch is held only for map/LRU surgery and in-pool page
//     copies and moves — never across main-file I/O.
//   * ReadPageSnapshot's load: a latched probe of the pool and the log's
//     image table; on a miss, an unlatched main-file read and decode; then a
//     re-latched re-check that prefers a frame or log image that raced in,
//     and reads again if a checkpoint write (file_write_ticks_) completed
//     meanwhile. A page read from the file is cached; a log image never is,
//     and a read whose caching fails still returns its copy.
//   * Shard latches never nest with each other; a WAL spill under a latch
//     takes Wal::mu_, which ranks above the latch floor (rank order
//     SetStore::mu_ < shard latch < Wal::mu_; locksmith-checked).
//   * Frame content and the unlogged flag are read and written only under
//     the owning shard's latch (a per-instance capability Clang's TSA
//     cannot name; the locksmith rules and TSan cover it).
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

/// \brief A buffer-pool frame. Lives in a shard's LRU list; `page` and
/// `unlogged` are guarded by the owning shard's latch (a per-instance
/// capability TSA cannot express; see the file comment).
struct PageFrame {
  Page page;
  uint32_t page_id = kInvalidPageId;
  // The content changed since the log last captured it: eviction must spill
  // the image, and DrainUnloggedToWal must log it before a commit record
  // seals the transaction. A frame loaded from the log or the file starts
  // clean.
  bool unlogged = false;
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

class Pager {
 public:
  /// \brief Opens a pager over `file` whose only writer is `wal`, which
  /// must outlive it. `capacity` is the buffer-pool size in pages (≥ 1); it
  /// also sets the latch-shard count (see the file comment). `name` labels
  /// error messages. The page count covers pages that exist only as log
  /// images (the main file lags the log until the next checkpoint).
  static Result<std::unique_ptr<Pager>> Open(std::unique_ptr<File> file, Wal& wal,
                                             size_t capacity, const std::string& name);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// \brief Appends a fresh empty page and returns its id. Its frame starts
  /// unlogged, so the next commit logs the page even if no WritePage
  /// follows.
  Result<uint32_t> AllocatePage();

  /// \brief Copies the page's current content into `*out`: a hit copies the
  /// resident frame under its shard latch; a miss reads through the log's
  /// image table and the main file with no latch held, then re-latches,
  /// re-checks for a raced-in newer version, and caches a page it read from
  /// the file (see the file comment). The only read, and the read path of
  /// concurrent SetStore readers (DESIGN.md §15).
  Status ReadPageSnapshot(uint32_t page_id, Page* out);

  /// \brief Moves `page` into the page's frame under its shard latch and
  /// marks the frame unlogged, so a concurrent reader copies either the
  /// whole old page or the whole new one. A miss evicts as a read miss does
  /// (spilling an unlogged victim to the log) and loads nothing: the write
  /// replaces the page whole. OutOfRange past the last page. The caller
  /// serializes writes, as it does every mutation.
  Status WritePage(uint32_t page_id, Page page);

  /// \brief Logs every unlogged frame's image (the pages the current
  /// transaction mutated that pool pressure has not already spilled).
  /// Called immediately before the commit record is appended.
  Status DrainUnloggedToWal();

  /// \brief Checkpoint writer: puts `bytes` (a full page image) at the
  /// page's offset in the main file. The only main-file write path.
  Status ApplyCheckpointImage(uint32_t page_id, const std::string& bytes);

  /// \brief Fsyncs the main file (checkpoint's final barrier).
  Status SyncFile();

  /// \brief Number of pages in the file.
  uint32_t page_count() const { return page_count_.load(std::memory_order_acquire); }

  /// \brief The number of latch shards the frame table is split into.
  size_t latch_shards() const { return shards_.size(); }

 private:
  Pager(std::unique_ptr<File> file, Wal& wal, size_t capacity, uint32_t page_count);

  internal::PagerShard& ShardFor(uint32_t page_id) const {
    return *shards_[page_id & shard_mask_];
  }
  Status CheckInRange(uint32_t page_id) const;
  /// Evicts down to one free slot in `shard`, then installs a frame for
  /// `page_id` at the LRU front. Fails only if spilling a victim to the log
  /// fails.
  Result<internal::PageFrame*> InstallFrameLocked(internal::PagerShard& shard,
                                                  uint32_t page_id)
      XST_REQUIRES(shard.latch);

  std::unique_ptr<File> file_;  // internally synchronized (StdioFile::mu_)
  const size_t capacity_per_shard_;
  Wal& wal_;  // unowned; outlives the pager
  std::atomic<uint32_t> page_count_;
  // Counts every main-file write (checkpoint images). A read miss records
  // it before reading the file unlatched and uses its bytes only if it is
  // unchanged at re-latch — otherwise a checkpoint may have made the file
  // newer than what was read (see ReadPageSnapshot).
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

/// \brief Reads a span back into *out through page snapshots (no store
/// lock). Corruption unless every page holds a chunk and the chunks
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
