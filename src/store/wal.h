// Wal: a physical redo log with group commit.
//
// The store's durability story (DESIGN.md §14): every page mutated by an
// operation is captured as a full checksummed page image in a sidecar log
// file (`<store>.wal`), every catalog entry it changed as a delta record,
// a commit record seals the transaction, and only then is the caller
// acknowledged — after the log has been fsynced. The main page file is
// written exclusively at checkpoint, so an in-place B+tree node rewrite or
// superblock swap can never reach disk ahead of its commit record:
// write-ahead ordering by construction, not by careful sequencing (a
// no-steal, redo-only protocol).
//
// Log layout:
//   header (40 bytes)  magic, version, epoch, base LSN, seeded checksum
//   record frame       [u32 body_len][u64 lsn][u64 crc][body]
//   body               [u8 type][varint txn_id][payload]
//     kPageImage       payload = varint page_id + kPageSize image bytes
//     kCommit          payload empty — seals every prior record of txn_id
//     kUpsert          payload = varint name length + name + value bytes
//     kRemoval         payload = name
//
// Deltas are opaque `name → bytes | removal` pairs: the store logs the
// catalog entries a transaction changed (store/catalog.h encodes them), and
// the log knows nothing of their meaning. A delta's name and value together
// fit in kMaxDeltaBytes, so no record body exceeds one page plus framing,
// the bound past which a scan takes a frame for a torn tail. An older
// binary does not know the delta types: its scan stops at the first one and
// truncates the log there, so close a store cleanly (a checkpoint empties
// the log) before an older binary opens it.
//
// LSNs increase by one per record and are monotone across segment resets
// (the header's base LSN carries the numbering forward), so "durable up to
// LSN x" is meaningful for the whole life of the store. The crc seeds with
// (epoch, lsn): a record from a recycled segment generation can never
// validate at the same offset of the next one.
//
// Committed deltas: the log keeps the segment's committed deltas beside
// its page images — the latest image per page and the latest delta per
// name, which is what applying the records in LSN order leaves. The store's
// catalog is the superblock's catalog (page 0 and the blob it points at,
// read through the image table) plus those deltas, so the main file's
// catalog is rewritten only when a checkpoint folds the deltas in, as a
// transaction of its own that is durable before any image reaches the main
// file. Re-applying deltas a checkpointed catalog already holds changes
// nothing, so every crash point of that sequence recovers.
//
// Group commit: committers call AppendCommit() under the store's lock
// (buffer append only — no I/O), then WaitDurable(ticket) after releasing
// it.
// The first waiter becomes the flush leader: it takes the buffered bytes
// and a reserved file offset, writes + fsyncs without holding the lock,
// publishes the new durable LSN and wakes everyone (xst::CondVar). Commits
// that arrive while a flush is in flight batch into the next one — the
// `wal.group_commit.batch_size` histogram records commits per fsync.
// Readers wait on WaitDurable too: a store read returns only once the last
// commit record it can see is durable, so a reader that sees a commit in
// flight parks behind its flush or leads it. A durable LSN answers without
// the lock, so a read with no commit in flight never touches it. A failed
// flush poisons the device stickily; every waiter it stranded gets the
// error, and the store falls back to RecoverResidentFromDisk().
//
// Rollbacks and tickets: RecoverResidentFromDisk() rolls the log back to
// its durable prefix, and the records it discards hand their LSNs to later
// records. A bare LSN therefore cannot tell a durable commit from a
// discarded one whose number a later commit reused, so AppendCommit()
// returns a CommitTicket {lsn, rollback count}, and each rollback records
// the durable LSN it kept. A wait on a ticket fails if the first rollback
// after the ticket kept a durable LSN below the ticket's, and succeeds if
// the commit was durable before that rollback. The same rule decides who
// rolls back: only a failed waiter whose ticket no rollback has decided
// yet, since a second rollback would discard the commits appended after
// the first.
//
// Recovery: Open() scans the committed prefix — frames are valid while the
// length fits, the crc matches, and LSNs run contiguously; the scan stops
// at the first violation (a torn tail) and truncates it, along with any
// trailing committed-but-unsealed records. What survives (last image per
// page and last delta per name, in commit order) becomes the resident
// table, exactly as if this process had appended it: the store reads
// through it, rebuilds its catalog from the superblock plus the deltas, and
// checkpoints it before the segment is recycled. An unreadable or
// half-written header is treated as an empty log — the header is only ever
// (re)written when the main file is self-contained (segment creation and
// post-checkpoint reset), so nothing is lost.
//
// Thread safety: one internal Mutex guards all log state. The store's lock
// ordering is SetStore::mu_ → Wal::mu_ (appends run under both, waits take
// only the WAL's), which the lock-order lint sees as acyclic. The file
// handle is touched by at most one thread at a time: the single active
// flush leader, or any caller while `flusher_active_` is false and the
// lock is held (Reset, recovery).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/store/file.h"
#include "src/store/page.h"

namespace xst {

namespace internal {

// Registry names of the process-wide WAL metrics: records appended, commit
// records sealed, commits acknowledged per fsync (the group-commit batch
// size), checkpoints completed and failed, and page images replayed by
// recovery.
inline constexpr const char* kWalAppendsCounter = "wal.appends";
inline constexpr const char* kWalCommitsCounter = "wal.commits";
inline constexpr const char* kWalBatchSizeHistogram = "wal.group_commit.batch_size";
inline constexpr const char* kWalCheckpointsCounter = "wal.checkpoints";
inline constexpr const char* kWalCheckpointFailuresCounter = "wal.checkpoint.failures";
inline constexpr const char* kWalRecoveryReplayedCounter = "wal.recovery.replayed";

}  // namespace internal

/// \brief The most bytes a delta's name and value may hold together: one
/// page, so that a delta record fits the frame bound (see the file comment).
inline constexpr size_t kMaxDeltaBytes = kPageSize;

/// \brief A delta's value: the bytes of an upsert, or none for a removal.
using DeltaValue = std::optional<std::string>;

/// \brief Snapshot of a Wal's segment and durability state (xstctl stats).
struct WalStats {
  uint64_t segment = 0;             ///< segment generation (header epoch)
  uint64_t segment_bytes = 0;       ///< bytes appended to the current segment
  uint64_t durable_lsn = 0;         ///< highest fsynced LSN
  uint64_t appended_lsn = 0;        ///< highest buffered LSN
  uint64_t last_checkpoint_lsn = 0; ///< LSN the current segment was based on
  uint64_t resident_pages = 0;      ///< pages with a committed image in the segment
  uint64_t resident_deltas = 0;     ///< names with a committed delta in the segment
};

/// \brief A commit's claim on the log (see the file comment): its commit
/// LSN and the number of rollbacks before it was appended.
struct CommitTicket {
  uint64_t lsn = 0;        ///< 0: nothing was appended, nothing to wait for
  uint64_t rollbacks = 0;  ///< RecoverResidentFromDisk calls before the append
};

struct WalOptions {
  /// \brief Opens the log file; StdioFile::Open when unset. SetStore passes
  /// its own factory through, so fault injection covers the log too.
  FileFactory file_factory;
};

/// \brief The write-ahead log. See the file comment for the protocol.
class Wal {
 public:
  /// \brief Opens (creating if needed) the log at `path` and scans its
  /// committed prefix into the resident table: the page images and deltas a
  /// crash left unapplied, which the caller checkpoints. Appends continue
  /// after the last committed record (any torn or unsealed tail has been
  /// truncated away).
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           WalOptions options = {});

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// \brief Opens a transaction: subsequent LogPageImage and LogDelta calls
  /// are staged under one txn id until AppendCommit or AbortTxn. One
  /// transaction at a time (the store's lock already serializes mutations).
  void BeginTxn() XST_EXCLUDES(mu_);

  /// \brief Appends a page-image record for the open transaction. `image`
  /// must be the page's full kPageSize serialization (Page::ToBytes seeded
  /// by the page id). Buffer-only: durability comes from WaitDurable.
  Status LogPageImage(uint32_t page_id, std::string image) XST_EXCLUDES(mu_);

  /// \brief Appends a delta record for the open transaction: an upsert of
  /// `name` to `value`'s bytes, or a removal of `name` when `value` is
  /// empty. Invalid when the name and value exceed kMaxDeltaBytes.
  /// Buffer-only, like LogPageImage.
  Status LogDelta(const std::string& name, DeltaValue value) XST_EXCLUDES(mu_);

  /// \brief Seals the open transaction with a commit record and publishes
  /// its images and deltas to the resident (appended-committed) table.
  /// Returns the ticket to pass to WaitDurable.
  Result<CommitTicket> AppendCommit() XST_EXCLUDES(mu_);

  /// \brief Drops the open transaction's staged images and deltas. The
  /// appended records stay in the buffer/file but carry no commit record,
  /// so replay ignores them.
  void AbortTxn() XST_EXCLUDES(mu_);

  /// \brief Blocks until the ticket's commit is fsynced (group commit; see
  /// file comment). Returns at once, without the lock, for LSN 0 (nothing
  /// to wait for) and if the commit is durable and no rollback has happened
  /// since the ticket. Returns the flush error if the device died before
  /// reaching it, and an IOError if a rollback discarded it.
  Status WaitDurable(const CommitTicket& ticket) XST_EXCLUDES(mu_);

  /// \brief WaitDurable for everything appended so far.
  Status FlushAll() XST_EXCLUDES(mu_);

  /// \brief Latest appended image of `page_id` (open txn first, then
  /// committed), if the log holds one. The pager's read-through.
  bool LookupPage(uint32_t page_id, std::string* image) const XST_EXCLUDES(mu_);

  /// \brief Copy of the committed-resident image table (checkpoint source).
  /// Must not be called with a transaction open.
  std::map<uint32_t, std::string> SnapshotResident() const XST_EXCLUDES(mu_);

  /// \brief Copy of the segment's committed deltas, the latest per name —
  /// what applying them in LSN order leaves. Must not be called with a
  /// transaction open.
  std::map<std::string, DeltaValue> SnapshotDeltas() const XST_EXCLUDES(mu_);

  /// \brief One past the highest page id the log holds an image for
  /// (0 when empty) — the pager's lower bound on logical page count when
  /// the main file lags the log.
  uint32_t PageCountLowerBound() const XST_EXCLUDES(mu_);

  /// \brief Recycles the segment after a checkpoint: truncates the file,
  /// writes a fresh header (epoch + 1, LSN numbering continued), fsyncs,
  /// and clears the resident table. Caller guarantees the buffer is
  /// durable (FlushAll) and the main file, catalog included, is fsynced
  /// first. In-memory
  /// epoch/LSN state advances only once the fresh header is durable; on
  /// failure the on-disk segment is in an unknown state, so the device is
  /// poisoned stickily (appends and commits fail until reopen — continuing
  /// would acknowledge commits a crash-recovery scan must CRC-reject) while
  /// the resident table is kept, so reads of the checkpointed state keep
  /// working.
  Status Reset(uint64_t checkpoint_lsn) XST_EXCLUDES(mu_);

  /// \brief After WaitDurable(failed) failed: rolls the log back to its
  /// durable prefix. Rebuilds the resident table (images and deltas) from
  /// the on-disk committed prefix, discarding buffered/staged state that never reached
  /// the device, and un-poisons the device (a still-dead device will
  /// re-poison on the next append). Un-poisoning first checks that the
  /// on-disk segment header still matches the in-memory generation — after
  /// an interrupted Reset it does not, and the log stays poisoned. Either
  /// way the rollback is recorded with the durable LSN it kept, which
  /// decides every ticket issued before it. Returns false, and rolls
  /// nothing back, if a rollback since `failed` was issued already decided
  /// it: that rollback discarded the commit, and another would discard
  /// only the commits appended after it. The store pairs a rollback with a
  /// fresh pager so resident state equals the durable prefix exactly.
  Result<bool> RecoverResidentFromDisk(const CommitTicket& failed) XST_EXCLUDES(mu_);

  WalStats stats() const XST_EXCLUDES(mu_);

 private:
  struct FlushJob {
    std::string batch;
    uint64_t upto = 0;
    uint64_t commits = 0;
    uint64_t offset = 0;
  };

  Wal(std::unique_ptr<File> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  // Truncates the file and writes + fsyncs a fresh header for the given
  // generation. Pure device I/O — no member state is touched, so callers
  // decide what a failure means (Reset poisons; InitSegment propagates).
  Status WriteFreshSegment(uint64_t epoch, uint64_t base_lsn) XST_REQUIRES(mu_);
  Status InitSegment() XST_REQUIRES(mu_);
  // OK iff the on-disk header exists, validates, and carries the in-memory
  // epoch_/base_lsn_ — the precondition for trusting a rescan of the file.
  Status CheckSegmentHeader() XST_REQUIRES(mu_);
  // What a transaction, or the segment's committed prefix, holds: the
  // latest image per page and the latest delta per name.
  struct Changes {
    std::map<uint32_t, std::string> images;
    std::map<std::string, DeltaValue> deltas;
    // Moves `later`'s entries over these (later records win).
    void Absorb(Changes&& later);
  };

  // Scans committed records with LSN ≤ limit_lsn into *resident and trims
  // the rest. Open passes no limit (everything on disk survived a restart);
  // RecoverResidentFromDisk passes the durable LSN, so bytes a failed fsync
  // left behind are discarded rather than resurrected. If the trim itself
  // fails, the log stays poisoned: appending over an untrimmed same-epoch
  // tail could let a crash stitch old and new records into one chain.
  Status ScanCommittedPrefix(Changes* resident, uint64_t limit_lsn) XST_REQUIRES(mu_);
  void AppendRecord(uint8_t type, uint64_t txn_id, std::string_view payload)
      XST_REQUIRES(mu_);
  Status WriteBatch(const FlushJob& job);  // file I/O; no lock, single flusher

  // The file handle: exclusively the flush leader's while flusher_active_,
  // otherwise any caller holding mu_. Not annotatable as either alone.
  std::unique_ptr<File> file_;
  const std::string path_;

  mutable Mutex mu_ XST_LOCK_RANK(30);
  CondVar cv_;

  uint64_t epoch_ XST_GUARDED_BY(mu_) = 0;
  uint64_t base_lsn_ XST_GUARDED_BY(mu_) = 0;
  uint64_t appended_lsn_ XST_GUARDED_BY(mu_) = 0;
  // Written only under mu_; atomic so that WaitDurable's fast path can read
  // it without the lock.
  std::atomic<uint64_t> durable_lsn_{0};
  uint64_t last_checkpoint_lsn_ XST_GUARDED_BY(mu_) = 0;
  uint64_t file_bytes_ XST_GUARDED_BY(mu_) = 0;  // reserved file end offset

  std::string buffer_ XST_GUARDED_BY(mu_);       // appended, not yet handed to a flush
  uint64_t buffered_commits_ XST_GUARDED_BY(mu_) = 0;
  bool flusher_active_ XST_GUARDED_BY(mu_) = false;
  bool device_failed_ XST_GUARDED_BY(mu_) = false;
  Status flush_error_ XST_GUARDED_BY(mu_);
  // The durable LSN each rollback kept, indexed by rollback number; a
  // ticket's wait is decided by the first rollback after it. `rollbacks_`
  // mirrors its size (written under mu_) for WaitDurable's fast path.
  std::vector<uint64_t> rollback_durable_ XST_GUARDED_BY(mu_);
  std::atomic<uint64_t> rollbacks_{0};

  bool txn_open_ XST_GUARDED_BY(mu_) = false;
  uint64_t txn_id_ XST_GUARDED_BY(mu_) = 0;
  // Staged by the open txn / committed in this segment ("resident").
  Changes staged_ XST_GUARDED_BY(mu_);
  Changes resident_ XST_GUARDED_BY(mu_);
};

}  // namespace xst
