// Wal: a physical redo log with group commit.
//
// The store's durability story (DESIGN.md §14): every page mutated by an
// operation is captured as a full checksummed page image in a sidecar log
// file (`<store>.wal`), a commit record seals the transaction, and only
// then is the caller acknowledged — after the log has been fsynced. The
// main page file is written exclusively at checkpoint (and by recovery),
// so an in-place B+tree node rewrite or superblock swap can never reach
// disk ahead of its commit record: write-ahead ordering by construction,
// not by careful sequencing (a no-steal, redo-only protocol).
//
// Log layout:
//   header (40 bytes)  magic, version, epoch, base LSN, seeded checksum
//   record frame       [u32 body_len][u64 lsn][u64 crc][body]
//   body               [u8 type][varint txn_id][payload]
//     kPageImage       payload = varint page_id + kPageSize image bytes
//     kCommit          payload empty — seals every prior image of txn_id
//
// LSNs increase by one per record and are monotone across segment resets
// (the header's base LSN carries the numbering forward), so "durable up to
// LSN x" is meaningful for the whole life of the store. The crc seeds with
// (epoch, lsn): a record from a recycled segment generation can never
// validate at the same offset of the next one.
//
// Group commit: committers call AppendCommit() under the store's lock
// (buffer append only — no I/O), then WaitDurable(lsn) after releasing it.
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
// Recovery: Open() scans the committed prefix — frames are valid while the
// length fits, the crc matches, and LSNs run contiguously; the scan stops
// at the first violation (a torn tail) and truncates it, along with any
// trailing committed-but-unsealed records. The surviving image set (last
// image per page, in commit order) is exactly the committed prefix of the
// mutation history; SetStore replays it into the main file and resets the
// log. An unreadable or half-written header is treated as an empty log —
// the header is only ever (re)written when the main file is self-contained
// (segment creation and post-checkpoint reset), so nothing is lost.
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

/// \brief Snapshot of a Wal's segment and durability state (xstctl stats).
struct WalStats {
  uint64_t segment = 0;             ///< segment generation (header epoch)
  uint64_t segment_bytes = 0;       ///< bytes appended to the current segment
  uint64_t durable_lsn = 0;         ///< highest fsynced LSN
  uint64_t appended_lsn = 0;        ///< highest buffered LSN
  uint64_t last_checkpoint_lsn = 0; ///< LSN the current segment was based on
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
  /// committed prefix: after Open, TakeRecoveredImages() holds the page
  /// images a crash left unapplied, and appends continue after the last
  /// committed record (any torn or unsealed tail has been truncated away).
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           WalOptions options = {});

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// \brief The committed-but-unapplied page images found by Open(), in
  /// page order (last image per page — redo is idempotent, order across
  /// pages is immaterial). Non-empty exactly when the previous process
  /// crashed after a commit fsync but before the next checkpoint. The
  /// caller replays them into the main file, fsyncs it, then Reset()s the
  /// log; calling this moves the map out (second call returns empty).
  std::map<uint32_t, std::string> TakeRecoveredImages() XST_EXCLUDES(mu_);

  /// \brief Opens a transaction: subsequent LogPageImage calls are staged
  /// under one txn id until AppendCommit or AbortTxn. One transaction at a
  /// time (the store's lock already serializes mutations).
  void BeginTxn() XST_EXCLUDES(mu_);

  /// \brief Appends a page-image record for the open transaction. `image`
  /// must be the page's full kPageSize serialization (Page::ToBytes seeded
  /// by the page id). Buffer-only: durability comes from WaitDurable.
  Status LogPageImage(uint32_t page_id, std::string image) XST_EXCLUDES(mu_);

  /// \brief Seals the open transaction with a commit record and publishes
  /// its images to the resident (appended-committed) table. Returns the
  /// commit LSN to pass to WaitDurable.
  Result<uint64_t> AppendCommit() XST_EXCLUDES(mu_);

  /// \brief Drops the open transaction's staged images. The appended
  /// records stay in the buffer/file but carry no commit record, so replay
  /// ignores them.
  void AbortTxn() XST_EXCLUDES(mu_);

  /// \brief Blocks until `lsn` is fsynced (group commit; see file comment).
  /// Returns at once, without the lock, if it already is. Returns the flush
  /// error if the device died before reaching `lsn`.
  Status WaitDurable(uint64_t lsn) XST_EXCLUDES(mu_);

  /// \brief WaitDurable for everything appended so far.
  Status FlushAll() XST_EXCLUDES(mu_);

  /// \brief Latest appended image of `page_id` (open txn first, then
  /// committed), if the log holds one. The pager's read-through.
  bool LookupPage(uint32_t page_id, std::string* image) const XST_EXCLUDES(mu_);

  /// \brief Copy of the committed-resident image table (checkpoint source).
  /// Must not be called with a transaction open.
  std::map<uint32_t, std::string> SnapshotResident() const XST_EXCLUDES(mu_);

  /// \brief One past the highest page id the log holds an image for
  /// (0 when empty) — the pager's lower bound on logical page count when
  /// the main file lags the log.
  uint32_t PageCountLowerBound() const XST_EXCLUDES(mu_);

  /// \brief Recycles the segment after a checkpoint: truncates the file,
  /// writes a fresh header (epoch + 1, LSN numbering continued), fsyncs,
  /// and clears the resident table. Caller guarantees the buffer is
  /// durable (FlushAll) and the main file is fsynced first. In-memory
  /// epoch/LSN state advances only once the fresh header is durable; on
  /// failure the on-disk segment is in an unknown state, so the device is
  /// poisoned stickily (appends and commits fail until reopen — continuing
  /// would acknowledge commits a crash-recovery scan must CRC-reject) while
  /// the resident table is kept, so reads of the checkpointed state keep
  /// working.
  Status Reset(uint64_t checkpoint_lsn) XST_EXCLUDES(mu_);

  /// \brief After a failed commit fsync: rebuilds the resident table from
  /// the on-disk committed prefix, discarding buffered/staged state that
  /// never reached the device, and un-poisons the device (a still-dead
  /// device will re-poison on the next append). Un-poisoning first checks
  /// that the on-disk segment header still matches the in-memory
  /// generation — after an interrupted Reset it does not, and the log
  /// stays poisoned. The store pairs this with a fresh pager so resident
  /// state equals the durable prefix exactly.
  Status RecoverResidentFromDisk() XST_EXCLUDES(mu_);

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
  // Scans committed records with LSN ≤ limit_lsn into *resident and trims
  // the rest. Open passes no limit (everything on disk survived a restart);
  // RecoverResidentFromDisk passes the durable LSN, so bytes a failed fsync
  // left behind are discarded rather than resurrected. If the trim itself
  // fails, the log stays poisoned: appending over an untrimmed same-epoch
  // tail could let a crash stitch old and new records into one chain.
  Status ScanCommittedPrefix(std::map<uint32_t, std::string>* resident,
                             uint64_t limit_lsn) XST_REQUIRES(mu_);
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

  bool txn_open_ XST_GUARDED_BY(mu_) = false;
  uint64_t txn_id_ XST_GUARDED_BY(mu_) = 0;
  // Latest image per page: staged by the open txn / committed ("resident").
  std::map<uint32_t, std::string> staged_ XST_GUARDED_BY(mu_);
  std::map<uint32_t, std::string> resident_ XST_GUARDED_BY(mu_);

  std::map<uint32_t, std::string> recovered_ XST_GUARDED_BY(mu_);
};

}  // namespace xst
