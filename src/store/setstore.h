// SetStore: named, persistent extended sets.
//
// The store realizes the 1977 proposition directly: the stored object is a
// set, the access interface is sets in / sets out, and everything else
// (pages, chunking, the catalog) is representation detail beneath the
// mathematical identity.
//
// Layout:
//   page 0           superblock: one record, the encoded tuple
//                    ⟨⟨catalog_first_page, catalog_byte_length⟩, page_span⟩
//                    (a fresh store persists an empty catalog immediately,
//                    so the pointer is always live)
//   pages 1..N       blob chunks; a blob occupies a contiguous page span,
//                    one record per page (internal::WritePageSpan, pager.h)
//
// Updates are append-only (new blob, catalog pointer swap); stale pages are
// reclaimed by Compact(), which rewrites the live blobs into a fresh file.
// Every page is checksummed; any torn or tampered byte surfaces as
// Corruption on read.
//
// Durability (DESIGN.md §14): every mutation is one WAL transaction — the
// pages it touched become log records, a commit record seals them, and the
// caller is acknowledged only after the log is fsynced (group commit
// batches those fsyncs across concurrent callers). The main file is
// written only at checkpoint; Open() replays the log's committed prefix
// after a crash. The `<path>.wal` sidecar belongs to the main file: move
// or delete them together.
//
// Failure contract (proved by tests/fault_injection_test.cc and
// tests/wal_recovery_test.cc): every I/O failure surfaces as a non-OK
// Status, no caller is ever acknowledged before its commit record is
// fsynced, the in-memory catalog never retains an update whose log commit
// failed (resident state falls back to the durable prefix), and a reopened
// store always equals an exact prefix of the acknowledged mutation history
// — every acknowledged commit present, no partial mutation, torn log tails
// truncated, torn pages detectable via checksums — never silently wrong.
//
// Reads return only durable commits: a read returns once the last commit
// it can see is fsynced, so it never returns — or reports NotFound for —
// a commit whose fsync then fails. A read that races a failed fsync
// returns the durable prefix (tests/store_concurrent_test.cc).

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/core/cursor.h"
#include "src/core/xset.h"
#include "src/store/btree.h"
#include "src/store/catalog.h"
#include "src/store/file.h"
#include "src/store/pager.h"
#include "src/store/wal.h"

namespace xst {

/// \brief How a named set is laid out on pages.
enum class StorageMode {
  kBlob,          ///< one encoded value across a contiguous page span
  kOrderedIndex,  ///< B+tree of memberships in canonical order (btree.h)
};

namespace internal {

// Registry names of the optimistic-read counters: views that failed
// validation (each one costs a re-read), and reads that gave up on views
// and ran under the store lock.
inline constexpr const char* kStoreReadRetriesCounter = "store.read.retries";
inline constexpr const char* kStoreReadFallbacksCounter = "store.read.fallbacks";

}  // namespace internal

struct SetStoreOptions {
  /// \brief Buffer-pool size in pages; the pager derives its latch-shard
  /// count from it (pager.h).
  size_t buffer_pool_pages = 64;

  /// \brief Opens the store's backing files; StdioFile::Open when unset.
  /// Applied to every file the store opens, including Compact's temp file —
  /// the hook the fault-injection suite hangs a failing device on.
  FileFactory file_factory{};

  /// \brief Compact's atomic-swap primitive; std::rename when unset
  /// (test hook for the rename-failure recovery path).
  std::function<int(const char* from, const char* to)> rename_fn{};

  /// \brief Checkpoint once the log segment outgrows this many bytes
  /// (checked after each acknowledged commit) — the knob that bounds
  /// recovery replay time. Generous default: checkpoints exist to recycle
  /// the log, not to pace steady-state writes.
  uint64_t wal_checkpoint_bytes = 8ull << 20;

  /// \brief Checkpoint in the destructor, leaving a cleanly closed store
  /// with a self-contained main file and an empty log. Tests and the
  /// recovery bench turn this off to exercise replay-on-open.
  bool checkpoint_on_close = true;
};

/// \brief Thread safety (DESIGN.md §15): mutations keep the 1977
/// single-writer discipline — every write path serializes on `mu_` (rank
/// 10), which guards the catalog, the pager identity, and the mutation
/// epoch. Commits are group commits: a committer appends its commit record
/// under `mu_`, then releases it and waits for the log's fsync.
///
/// Reads scale: Get/ContainsMember/cursor opens take `mu_` only long
/// enough to capture a ReadView (pager handle + catalog entry + epoch +
/// the LSN of the last commit it can see), then stream pages through the
/// pager's sharded latches with no store lock held, and re-take `mu_` at
/// the end to validate the view. A mutation, checkpoint, or pager reopen
/// that overlapped the read bumps the epoch (or swaps the pager), so
/// validation fails and the read retries. A validated read then waits,
/// outside `mu_`, until the view's last commit is durable — free when it
/// already is — and a failed wait counts as an invalidated view. After a
/// few optimistic attempts the read runs once under `mu_`, which makes the
/// resident commits durable (or rolls back to the durable prefix) first,
/// and so guarantees progress. Errors observed under an invalidated view
/// are discarded, never reported (they may be artifacts of racing a
/// writer). Every read goes through one helper (ReadConsistent), which
/// counts the retries and locked runs (`store.read.retries` /
/// `store.read.fallbacks`). A cursor open is one such read: it takes its
/// whole answer under one view, so a cursor never mixes two commits. The
/// catalog reads (Contains, List, ModeOf, CatalogAsXSet) take the locked
/// step directly.
class SetStore {
 public:
  /// \brief Opens (creating if necessary) a store at `path`. Replays the
  /// committed prefix of `path + ".wal"` into the main file first if a
  /// crash left one behind (see DESIGN.md §14).
  static Result<std::unique_ptr<SetStore>> Open(const std::string& path,
                                                const SetStoreOptions& options = {});

  /// \brief Best-effort close: checkpoints (or at least flushes the log)
  /// so a cleanly closed store reopens without replay. Failures are
  /// swallowed — the log already holds everything an fsynced commit needs.
  ~SetStore();

  /// \brief Writes (or replaces) a named set and persists the catalog.
  Status Put(const std::string& name, const XSet& value) XST_EXCLUDES(mu_);

  /// \brief Writes several named sets with ONE catalog persist at the end:
  /// all-or-nothing visibility across restarts (the superblock pointer is
  /// the commit point; blobs written before a crash are unreferenced
  /// garbage, reclaimed by Compact). Names must be unique within the batch.
  Status PutBatch(const std::vector<std::pair<std::string, XSet>>& entries)
      XST_EXCLUDES(mu_);

  /// \brief Writes (or replaces) a named SET as a B+tree ordered index:
  /// range and point access paths touch O(height + matching leaves) pages
  /// instead of decoding the whole value. Atoms have no member list and are
  /// rejected with Invalid. Get/Scrub/cursors work on either storage mode.
  Status PutIndexed(const std::string& name, const XSet& value) XST_EXCLUDES(mu_);

  /// \brief Inserts one membership into an ordered-index set (Invalid for
  /// blob-stored names). Idempotent: inserting a present member is a no-op.
  /// After an I/O failure mid-mutation the store reloads from disk, which
  /// holds either a consistent pre-state or detectable Corruption.
  Status InsertMember(const std::string& name, const Membership& m) XST_EXCLUDES(mu_);

  /// \brief Removes one membership from an ordered-index set (Invalid for
  /// blob-stored names). Erasing an absent member is a no-op.
  Status EraseMember(const std::string& name, const Membership& m) XST_EXCLUDES(mu_);

  /// \brief True iff the stored member list contains `m`. For indexed sets
  /// this is one root-to-leaf descent; blob sets decode and probe.
  Result<bool> ContainsMember(const std::string& name, const Membership& m)
      XST_EXCLUDES(mu_);

  /// \brief The storage mode of a stored name.
  Result<StorageMode> ModeOf(const std::string& name) XST_EXCLUDES(mu_);

  /// \brief Opens a cursor over the stored set's canonical member list.
  /// The open is one consistent read: the cursor owns the set as of one
  /// commit, and no later mutation, checkpoint, Compact or close of the
  /// store affects it. Errors come back from the open; the cursor itself
  /// cannot fail. Indexed sets are read leaf by leaf into one member list;
  /// blob sets decode once and hand over the interned value.
  Result<std::unique_ptr<MemberCursor>> OpenCursor(const std::string& name)
      XST_EXCLUDES(mu_);

  /// \brief Opens a cursor over {z^w ∈ name : lo ≤ z ≤ hi} (element-interval
  /// σ-restriction under the structural order), read the same way as
  /// OpenCursor. Indexed sets seek the lower edge and read only in-range
  /// leaves.
  Result<std::unique_ptr<MemberCursor>> OpenElementRange(const std::string& name,
                                                         const XSet& lo,
                                                         const XSet& hi)
      XST_EXCLUDES(mu_);

  /// \brief Full-store verification: re-reads every live blob through the
  /// checksummed page path and decodes it; ordered indexes additionally get
  /// a full structural ValidateBTree. Returns the number of sets verified,
  /// or the first Corruption/IOError encountered.
  Result<size_t> Scrub() XST_EXCLUDES(mu_);

  /// \brief Reads a named set back. NotFound / Corruption as appropriate.
  Result<XSet> Get(const std::string& name) XST_EXCLUDES(mu_);

  /// \brief Removes the name (space reclaimed at Compact()).
  Status Delete(const std::string& name) XST_EXCLUDES(mu_);

  /// \brief True iff `name` is stored; false once the store is closed.
  bool Contains(const std::string& name) XST_EXCLUDES(mu_);

  /// \brief All stored names; none once the store is closed.
  std::vector<std::string> List() XST_EXCLUDES(mu_);

  /// \brief Rewrites the store keeping only live blobs; reopens in place.
  /// On failure the temp file is removed and the original store stays
  /// usable; only a failed post-swap reopen leaves the store closed (the
  /// file itself remains valid — reopen from the path).
  Status Compact() XST_EXCLUDES(mu_);

  /// \brief Makes everything appended so far durable (fsyncs the log).
  Status Flush() XST_EXCLUDES(mu_);

  /// \brief Forces a checkpoint: fsyncs the log, writes every committed
  /// page image into the main file, fsyncs it, and recycles the log
  /// segment. After OK the main file is self-contained.
  Status Checkpoint() XST_EXCLUDES(mu_);

  /// \brief Snapshot of the log's segment/durability counters.
  WalStats wal_stats() const { return wal_->stats(); }

  /// \brief Pages in the store's file; 0 once the store is closed (a
  /// failure-recovery reopen failed; see Compact).
  uint32_t page_count() const XST_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pager_ != nullptr ? pager_->page_count() : 0;
  }
  /// \brief Pager latch shards in use (derived from the pool size); 0 once
  /// the store is closed.
  size_t pager_latch_shards() const XST_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pager_ != nullptr ? pager_->latch_shards() : 0;
  }

  /// \brief The catalog's set representation (for inspection and tests);
  /// {} once the store is closed.
  XSet CatalogAsXSet() XST_EXCLUDES(mu_);

 private:
  SetStore(std::string path, SetStoreOptions options)
      : path_(std::move(path)), options_(std::move(options)) {}

  /// A consistent read handle captured under mu_: the pager instance, the
  /// catalog entry for the name being read (NotFound if it was absent), the
  /// mutation epoch, the LSN of the last commit the view can see, and the
  /// rollback count at capture. The shared_ptr keeps the pager alive across
  /// a concurrent Compact/reopen; the epoch detects any overlapping
  /// mutation.
  struct ReadView {
    std::shared_ptr<Pager> pager;
    Result<CatalogEntry> entry = CatalogEntry{};
    uint64_t epoch = 0;
    uint64_t commit_lsn = 0;
    uint64_t rollbacks = 0;
  };

  Result<std::unique_ptr<Pager>> OpenPager(const std::string& path) const;
  Status CheckOpen() const XST_REQUIRES(mu_);
  /// Captures a ReadView of `name` under mu_; fails only on a closed store.
  Result<ReadView> CaptureView(const std::string& name) const XST_EXCLUDES(mu_);
  /// True iff nothing invalidated `view` since capture: same pager instance,
  /// same mutation epoch, store still open. Results computed under a view
  /// may be returned only when this holds.
  bool ValidateView(const ReadView& view) const XST_EXCLUDES(mu_);
  /// The one read protocol: runs `read(pager, entry)` for `name`'s catalog
  /// entry under up to three captured views and returns the first result
  /// whose view validates and whose last commit then proves durable
  /// (results from invalidated views, errors included, are discarded), then
  /// runs it once under mu_ after ReadDurableLocked.
  template <typename ReadFn>
  std::invoke_result_t<const ReadFn&, Pager&, const CatalogEntry&> ReadConsistent(
      const std::string& name, const ReadFn& read) XST_EXCLUDES(mu_);
  /// Reads a blob's page span and decodes the whole set, with name context.
  /// No store lock needed (static on purpose: the concurrent read path runs
  /// it against a captured view's pager).
  static Result<XSet> DecodeBlobSet(Pager& pager, const std::string& name,
                                    const CatalogEntry& entry);
  /// The one leaf walk over an ordered-index set: validates the tree at
  /// XST_VALIDATE_LEVEL >= 2, seeks `*lo` (or the first leaf) and appends
  /// every member up to `*hi` (or the last) to `out`, in canonical order.
  /// Static for the same reason as DecodeBlobSet.
  static Status ReadIndexMembers(Pager& pager, const std::string& name,
                                 const CatalogEntry& entry, const XSet* lo,
                                 const XSet* hi, std::vector<Membership>* out);
  /// Materializes an ordered-index set from the whole leaf walk
  /// (count- and order-checked).
  static Result<XSet> MaterializeIndex(Pager& pager, const std::string& name,
                                       const CatalogEntry& entry);
  /// The whole stored value, per storage mode (Get's reader).
  static Result<XSet> ReadSet(Pager& pager, const std::string& name,
                              const CatalogEntry& entry);
  /// OpenCursor (null bounds) and OpenElementRange: one body, one
  /// ReadConsistent call. Indexed sets walk `[*lo, *hi]` into a
  /// MemberListCursor; blob sets decode once into an XSetCursor and, when
  /// bounded, filter through ElementRangeCursor.
  Result<std::unique_ptr<MemberCursor>> OpenMemberCursor(const std::string& name,
                                                         const XSet* lo, const XSet* hi)
      XST_EXCLUDES(mu_);
  /// Writes `staged`'s blob + superblock pointer into the pool (no I/O to
  /// the main file; durability comes from the WAL commit that follows).
  Status StageCatalog(const Catalog& staged) XST_REQUIRES(mu_);
  Status LoadCatalog() XST_REQUIRES(mu_);
  /// Applies crash-recovery images to the main file and recycles the log.
  /// Runs in Open(), before the pager exists.
  Status ReplayRecoveredImages();
  /// Reopens pager_ (wal-attached) + catalog_; on failure the store closes.
  Status ReopenPagerLocked() XST_REQUIRES(mu_);
  /// Aborts the open WAL txn and reloads resident state from the log's
  /// appended-committed view (mutation failed before its commit record).
  Status AbortResidentLocked() XST_REQUIRES(mu_);
  /// AbortResidentLocked + context plumbing for a failed mutation.
  Status FailTxnLocked(Status cause) XST_REQUIRES(mu_);
  /// After a failed commit fsync: rolls the log and resident state back to
  /// the durable prefix (nothing acknowledged is lost by construction).
  Status RecoverDurableLocked() XST_REQUIRES(mu_);
  /// The locked read step: makes the resident commits durable, or rolls
  /// back to the durable prefix if their flush fails. Non-OK only once the
  /// store is closed.
  Status ReadDurableLocked() XST_REQUIRES(mu_);
  /// Phase 1 of every mutation, under mu_: stage the catalog, drain unlogged
  /// pages into the log, append the commit record. Returns the commit LSN
  /// (0 = nothing to commit); resident state is already advanced.
  Result<uint64_t> CommitLocked(Catalog staged) XST_REQUIRES(mu_);
  /// Phase 2, after mu_ is released: group-commit wait on the LSN, then
  /// maybe checkpoint. Error recovery re-acquires mu_.
  Status FinishCommit(const Result<uint64_t>& lsn) XST_EXCLUDES(mu_);
  Status CheckpointLocked() XST_REQUIRES(mu_);
  void MaybeCheckpoint() XST_EXCLUDES(mu_);
  /// Lock-holding bodies of the public mutations (phase 1). Put is a batch
  /// of one; InsertMember and EraseMember share MutateMemberLocked.
  Result<uint64_t> PutBatchLocked(
      const std::vector<std::pair<std::string, XSet>>& entries) XST_REQUIRES(mu_);
  Result<uint64_t> PutIndexedLocked(const std::string& name, const XSet& value)
      XST_REQUIRES(mu_);
  Result<uint64_t> MutateMemberLocked(const std::string& name, const Membership& m,
                                      bool insert) XST_REQUIRES(mu_);
  Result<uint64_t> DeleteLocked(const std::string& name) XST_REQUIRES(mu_);
  /// Get/Flush bodies for callers already holding the lock (Scrub, Compact).
  Result<XSet> GetLocked(const std::string& name) XST_REQUIRES(mu_);
  Status FlushLocked() XST_REQUIRES(mu_);
  /// Commits a tree mutation: validate (at XST_VALIDATE level ≥ 1), stage
  /// the new tree identity, commit; resident state reloads on failure.
  Result<uint64_t> CommitTreeMutation(const std::string& name, const BTreeInfo& info)
      XST_REQUIRES(mu_);
  /// Corruption unless an index entry's root/height are plausible.
  Status ValidateIndexRange(const std::string& what, const CatalogEntry& entry) const
      XST_REQUIRES(mu_);
  /// Compact's rewrite pass: copies every live set into the store at
  /// `tmp_path`. A named helper (not a lambda) so the analysis can see the
  /// lock requirement.
  Status CopyLiveTo(const std::string& tmp_path) XST_REQUIRES(mu_);

  std::string path_;        // immutable after construction
  SetStoreOptions options_; // immutable after construction
  // Created once in Open() before the store is reachable, then internally
  // synchronized — phase 2 of a commit uses it without holding mu_ (that is
  // the whole point of group commit), readers probe its image table under
  // pager latches and wait on its durable LSN with no lock held. Lock
  // order: mu_ < shard latch < Wal::mu_.
  std::unique_ptr<Wal> wal_;
  // The outermost lock in the hierarchy (DESIGN.md §15): every blocking
  // operation (file I/O, commit fsyncs) is legal under it, because its rank
  // sits below the pager-latch floor.
  mutable Mutex mu_ XST_LOCK_RANK(10);
  // shared_ptr, not unique_ptr: captured ReadViews keep the old pager alive
  // (and its file open) across a concurrent Compact/reopen; their reads
  // then fail validation and retry against the new instance.
  std::shared_ptr<Pager> pager_ XST_GUARDED_BY(mu_);
  Catalog catalog_ XST_GUARDED_BY(mu_);
  // Bumped at the start of every mutation, checkpoint, and pager reopen;
  // ReadView validation compares it to detect overlapping writes.
  uint64_t mutation_epoch_ XST_GUARDED_BY(mu_) = 0;
  // The LSN of the last commit record resident state reflects; 0 once a
  // rollback leaves only durable commits resident. Reads wait on it.
  uint64_t commit_lsn_ XST_GUARDED_BY(mu_) = 0;
  // Bumped (under mu_) by every rollback to the durable prefix. The log
  // then reuses the LSNs of the records it discarded, so a read that waited
  // on its view's commit LSN checks this to know the LSN that became
  // durable is still its own commit.
  std::atomic<uint64_t> rollbacks_{0};
  // Consecutive CheckpointLocked failures (MaybeCheckpoint's log backoff).
  uint64_t checkpoint_failure_streak_ XST_GUARDED_BY(mu_) = 0;
};

}  // namespace xst
