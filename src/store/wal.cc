#include "src/store/wal.h"

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/macros.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/codec.h"

namespace xst {

namespace {

// "xstwal09", little-endian. Also the header checksum seed, and (combined
// with epoch and LSN) the record checksum seed — a record can only validate
// in the segment generation and log position it was written for.
constexpr uint64_t kWalMagic = 0x39306c6177747378ULL;
constexpr uint32_t kWalVersion = 1;

// Header: magic u64 | version u32 | pad u32 | epoch u64 | base LSN u64 |
// crc u64 (over the first 32 bytes, seeded with the magic).
constexpr size_t kWalHeaderSize = 40;

// Frame: body length u32 | lsn u64 | crc u64 | body.
constexpr size_t kFrameHeaderSize = 20;

// Body: type u8 | txn id varint | payload.
constexpr uint8_t kPageImage = 1;  // payload: page id varint + full image
constexpr uint8_t kCommit = 2;     // payload: empty

// A body is one page image plus small framing; anything larger is torn.
constexpr uint64_t kMaxRecordBody = kPageSize + 32;

uint64_t RecordSeed(uint64_t epoch, uint64_t lsn) {
  return HashCombine(HashCombine(kWalMagic, epoch), lsn);
}

// Process-wide WAL metrics (see wal.h internal for the names).
obs::Counter& AppendsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kWalAppendsCounter);
  return c;
}
obs::Counter& CommitsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kWalCommitsCounter);
  return c;
}
obs::Histogram& BatchSizeHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      internal::kWalBatchSizeHistogram);
  return h;
}

}  // namespace

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path, WalOptions options) {
  Result<std::unique_ptr<File>> file =
      options.file_factory ? options.file_factory(path) : StdioFile::Open(path);
  if (!file.ok()) return file.status().WithContext("wal " + path);
  std::unique_ptr<Wal> wal(new Wal(std::move(*file), path));
  MutexLock lock(&wal->mu_);
  XST_ASSIGN_OR_RAISE(uint64_t size, wal->file_->Size());
  bool valid_header = false;
  if (size >= kWalHeaderSize) {
    char hdr[kWalHeaderSize];
    Status st = wal->file_->ReadAt(0, hdr, kWalHeaderSize);
    if (!st.ok()) return st.WithContext("wal header " + path);
    if (DecodeFixed64(hdr) == kWalMagic && DecodeFixed32(hdr + 8) == kWalVersion &&
        DecodeFixed64(hdr + 32) == HashBytes(hdr, 32, kWalMagic)) {
      valid_header = true;
      wal->epoch_ = DecodeFixed64(hdr + 16);
      wal->base_lsn_ = DecodeFixed64(hdr + 24);
      wal->last_checkpoint_lsn_ = wal->base_lsn_;
    }
  }
  if (!valid_header) {
    // Fresh log, or a crash mid-creation / mid-reset. A header is only ever
    // written at moments when the main file needs nothing from the log
    // (segment creation and the post-checkpoint reset, both after the main
    // file is self-contained), so starting over empty loses nothing.
    wal->epoch_ = 1;
    wal->base_lsn_ = 0;
    XST_RETURN_NOT_OK(wal->InitSegment());
    return wal;
  }
  XST_RETURN_NOT_OK(
      wal->ScanCommittedPrefix(&wal->recovered_, UINT64_MAX));
  return wal;
}

// The segment-lifecycle helpers below (fresh-segment init, header check,
// recovery scan, tail truncation) perform file I/O while Wal::mu_ is held.
// That is the group-commit design, not an oversight: the WAL file is
// exclusively owned by this Wal, and these are cold paths — open (before
// any reader), the post-checkpoint reset, and recovery after a failed
// fsync. Readers do take Wal::mu_: a pool miss probes the image table
// (LookupPage, under a shard latch), and a read whose commit is still in
// flight waits in WaitDurable. Such a reader can stall for one cold-path
// I/O but never deadlock, because the holder takes no latch or store lock
// while it holds Wal::mu_ (the top of the storage ranks) — hence the
// per-line blocking-under-latch allowances.
Status Wal::WriteFreshSegment(uint64_t epoch, uint64_t base_lsn) {
  Status st = file_->Truncate(0);  // xst-lint: allow(blocking-under-latch)
  if (!st.ok()) return st.WithContext("wal " + path_);
  std::string hdr;
  PutFixed64(kWalMagic, &hdr);
  PutFixed32(kWalVersion, &hdr);
  PutFixed32(0, &hdr);  // pad
  PutFixed64(epoch, &hdr);
  PutFixed64(base_lsn, &hdr);
  PutFixed64(HashBytes(hdr.data(), 32, kWalMagic), &hdr);
  st = file_->WriteAt(0, hdr.data(), hdr.size());  // xst-lint: allow(blocking-under-latch)
  if (!st.ok()) return st.WithContext("wal " + path_);
  st = file_->Flush();  // xst-lint: allow(blocking-under-latch)
  if (!st.ok()) return st.WithContext("wal " + path_);
  return Status::OK();
}

Status Wal::InitSegment() {
  XST_RETURN_NOT_OK(WriteFreshSegment(epoch_, base_lsn_));
  file_bytes_ = kWalHeaderSize;
  appended_lsn_ = base_lsn_;
  durable_lsn_ = base_lsn_;
  resident_.clear();
  return Status::OK();
}

Status Wal::CheckSegmentHeader() {
  XST_ASSIGN_OR_RAISE(uint64_t size, file_->Size());  // xst-lint: allow(blocking-under-latch)
  char hdr[kWalHeaderSize];
  if (size >= kWalHeaderSize) {
    XST_RETURN_NOT_OK(file_->ReadAt(0, hdr, kWalHeaderSize).WithContext("wal " + path_));  // xst-lint: allow(blocking-under-latch)
  }
  if (size < kWalHeaderSize || DecodeFixed64(hdr) != kWalMagic ||
      DecodeFixed32(hdr + 8) != kWalVersion ||
      DecodeFixed64(hdr + 32) != HashBytes(hdr, 32, kWalMagic) ||
      DecodeFixed64(hdr + 16) != epoch_ || DecodeFixed64(hdr + 24) != base_lsn_) {
    return Status::Corruption("wal " + path_ +
                              ": on-disk segment header does not match the "
                              "in-memory generation (interrupted reset?)");
  }
  return Status::OK();
}

Status Wal::ScanCommittedPrefix(std::map<uint32_t, std::string>* out,
                                uint64_t limit_lsn) {
  XST_ASSIGN_OR_RAISE(uint64_t size, file_->Size());  // xst-lint: allow(blocking-under-latch)
  // Per-txn staging: images count only once their commit record is seen.
  std::map<uint64_t, std::map<uint32_t, std::string>> staged;
  uint64_t off = kWalHeaderSize;
  uint64_t lsn = base_lsn_;
  uint64_t last_commit = base_lsn_;
  uint64_t committed_end = kWalHeaderSize;
  uint64_t next_txn = txn_id_;
  std::string body;
  while (off + kFrameHeaderSize <= size) {
    char fh[kFrameHeaderSize];
    Status st = file_->ReadAt(off, fh, kFrameHeaderSize);  // xst-lint: allow(blocking-under-latch)
    if (!st.ok()) return st.WithContext("wal " + path_);
    const uint32_t len = DecodeFixed32(fh);
    const uint64_t rlsn = DecodeFixed64(fh + 4);
    const uint64_t crc = DecodeFixed64(fh + 12);
    // The committed prefix ends at the first frame that fails any check:
    // implausible length, truncated body, a break in the LSN chain, or a
    // checksum mismatch — all the shapes a torn tail can take.
    if (len > kMaxRecordBody) break;
    if (off + kFrameHeaderSize + len > size) break;
    if (rlsn != lsn + 1) break;
    if (rlsn > limit_lsn) break;  // beyond the durable horizon: never acked
    body.resize(len);
    st = file_->ReadAt(off + kFrameHeaderSize, body.data(), len);  // xst-lint: allow(blocking-under-latch)
    if (!st.ok()) return st.WithContext("wal " + path_);
    if (HashBytes(body.data(), len, RecordSeed(epoch_, rlsn)) != crc) break;
    if (body.empty()) break;
    size_t p = 0;
    const uint8_t type = static_cast<uint8_t>(body[p++]);
    uint64_t txn = 0;
    if (!GetVarint(body, &p, &txn)) break;
    if (type == kPageImage) {
      uint64_t page = 0;
      if (!GetVarint(body, &p, &page)) break;
      if (body.size() - p != kPageSize || page > UINT32_MAX) break;
      staged[txn][static_cast<uint32_t>(page)] = body.substr(p);
    } else if (type == kCommit) {
      auto it = staged.find(txn);
      if (it != staged.end()) {
        for (auto& [pg, img] : it->second) (*out)[pg] = std::move(img);
        staged.erase(it);
      }
      last_commit = rlsn;
      committed_end = off + kFrameHeaderSize + len;
    } else {
      break;
    }
    if (txn + 1 > next_txn) next_txn = txn + 1;
    lsn = rlsn;
    off += kFrameHeaderSize + len;
  }
  // Appends resume right after the last commit record; valid-but-unsealed
  // (or never-fsynced) records past it belong to transactions that were
  // never acknowledged. The tail MUST go before appends continue: a new
  // record chain written over a same-epoch tail could, byte sizes aligning,
  // splice into the old records at a crash-recovery scan. An untrimmable
  // tail therefore poisons the log — reads keep working, appends report the
  // truncation failure until a reopen gets a working device.
  if (size > committed_end) {
    Status trunc = file_->Truncate(committed_end);  // xst-lint: allow(blocking-under-latch)
    if (!trunc.ok()) {
      device_failed_ = true;
      flush_error_ = trunc.WithContext("wal tail truncation " + path_);
    }
  }
  appended_lsn_ = last_commit;
  durable_lsn_ = last_commit;
  file_bytes_ = committed_end;
  txn_id_ = next_txn;
  return Status::OK();
}

std::map<uint32_t, std::string> Wal::TakeRecoveredImages() {
  MutexLock lock(&mu_);
  return std::move(recovered_);
}

void Wal::BeginTxn() {
  MutexLock lock(&mu_);
  XST_DCHECK(!txn_open_);
  XST_DCHECK(staged_.empty());
  txn_open_ = true;
}

void Wal::AppendRecord(uint8_t type, uint64_t txn_id, std::string_view payload) {
  std::string body;
  body.reserve(1 + 10 + payload.size());
  body.push_back(static_cast<char>(type));
  PutVarint(txn_id, &body);
  body.append(payload);
  const uint64_t lsn = ++appended_lsn_;
  const uint64_t crc = HashBytes(body.data(), body.size(), RecordSeed(epoch_, lsn));
  PutFixed32(static_cast<uint32_t>(body.size()), &buffer_);
  PutFixed64(lsn, &buffer_);
  PutFixed64(crc, &buffer_);
  buffer_.append(body);
  AppendsCounter().Increment();
}

Status Wal::LogPageImage(uint32_t page_id, std::string image) {
  XST_DCHECK(image.size() == kPageSize);
  MutexLock lock(&mu_);
  XST_DCHECK(txn_open_);
  if (device_failed_) return flush_error_.WithContext("wal append");
  std::string payload;
  payload.reserve(5 + image.size());
  PutVarint(page_id, &payload);
  payload.append(image);
  AppendRecord(kPageImage, txn_id_, payload);
  staged_[page_id] = std::move(image);
  return Status::OK();
}

Result<uint64_t> Wal::AppendCommit() {
  MutexLock lock(&mu_);
  XST_DCHECK(txn_open_);
  if (device_failed_) {
    staged_.clear();
    txn_open_ = false;
    ++txn_id_;
    return flush_error_.WithContext("wal commit");
  }
  AppendRecord(kCommit, txn_id_, std::string_view());
  for (auto& [pg, img] : staged_) resident_[pg] = std::move(img);
  staged_.clear();
  txn_open_ = false;
  ++txn_id_;
  ++buffered_commits_;
  CommitsCounter().Increment();
  return appended_lsn_;
}

void Wal::AbortTxn() {
  MutexLock lock(&mu_);
  // The aborted txn's records may already sit in the buffer (or even on
  // disk, spilled under pool pressure); without a commit record they are
  // inert — replay never applies them.
  staged_.clear();
  txn_open_ = false;
  ++txn_id_;
}

Status Wal::WriteBatch(const FlushJob& job) {
  XST_TRACE_SPAN("wal.flush");
  if (!job.batch.empty()) {
    Status st = file_->WriteAt(job.offset, job.batch.data(), job.batch.size());
    if (!st.ok()) return st.WithContext("wal " + path_);
  }
  Status st = file_->Flush();
  if (!st.ok()) return st.WithContext("wal " + path_);
  if (job.commits > 0) BatchSizeHistogram().Record(job.commits);
  return Status::OK();
}

Status Wal::WaitDurable(uint64_t lsn) {
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return Status::OK();
  for (;;) {
    FlushJob job;
    {
      MutexLock lock(&mu_);
      // Park while a leader's flush is in flight; it may cover our LSN.
      while (flusher_active_ && durable_lsn_ < lsn && !device_failed_) {
        cv_.Wait(lock);
      }
      if (durable_lsn_ >= lsn) return Status::OK();
      if (device_failed_) {
        return flush_error_.WithContext("wal commit lsn " + std::to_string(lsn));
      }
      if (appended_lsn_ < lsn) {
        // A failed flush + RecoverResidentFromDisk rolled the log back past
        // our commit while we were parked; leading a flush now would never
        // reach `lsn` (the append cursor is behind it forever).
        return Status::IOError("wal commit lsn " + std::to_string(lsn) +
                               " was rolled back by recovery");
      }
      // Become the leader: claim everything buffered so far (our commit and
      // any that batched behind it) plus a reserved file range, so the
      // write itself runs without the lock.
      flusher_active_ = true;
      job.batch = std::move(buffer_);
      buffer_.clear();
      job.upto = appended_lsn_;
      job.commits = buffered_commits_;
      buffered_commits_ = 0;
      job.offset = file_bytes_;
      file_bytes_ += job.batch.size();
    }
    Status st = WriteBatch(job);
    {
      MutexLock lock(&mu_);
      flusher_active_ = false;
      if (st.ok()) {
        durable_lsn_ = job.upto;
      } else {
        // Sticky: anything not yet durable never will be on this handle;
        // every parked committer gets the error, and the store falls back
        // to RecoverResidentFromDisk().
        device_failed_ = true;
        flush_error_ = st;
      }
      cv_.NotifyAll();
      if (!st.ok()) return st;
      if (durable_lsn_ >= lsn) return Status::OK();
    }
  }
}

Status Wal::FlushAll() {
  uint64_t target = 0;
  {
    MutexLock lock(&mu_);
    target = appended_lsn_;
  }
  return WaitDurable(target);
}

bool Wal::LookupPage(uint32_t page_id, std::string* image) const {
  MutexLock lock(&mu_);
  auto it = staged_.find(page_id);
  if (it == staged_.end()) {
    it = resident_.find(page_id);
    if (it == resident_.end()) return false;
  }
  *image = it->second;
  return true;
}

std::map<uint32_t, std::string> Wal::SnapshotResident() const {
  MutexLock lock(&mu_);
  XST_DCHECK(!txn_open_);
  return resident_;
}

uint32_t Wal::PageCountLowerBound() const {
  MutexLock lock(&mu_);
  uint32_t bound = 0;
  if (!resident_.empty()) bound = resident_.rbegin()->first + 1;
  if (!staged_.empty()) bound = std::max(bound, staged_.rbegin()->first + 1);
  return bound;
}

Status Wal::Reset(uint64_t checkpoint_lsn) {
  MutexLock lock(&mu_);
  while (flusher_active_) cv_.Wait(lock);
  XST_DCHECK(!txn_open_);
  XST_DCHECK(buffer_.empty());  // caller runs FlushAll first
  if (device_failed_) return flush_error_.WithContext("wal reset");
  // Disk first, memory second: epoch/LSN state only advances once the fresh
  // header is durably on the device. A failure partway through (truncate,
  // header write, or fsync) leaves the on-disk segment in an unknown state
  // — possibly truncated, possibly intact under the OLD header — so the
  // device is poisoned stickily, exactly like a failed flush: were appends
  // allowed to continue, their records would be fsynced and acknowledged
  // against in-memory state the on-disk header no longer describes, and
  // crash recovery would CRC-reject them as a torn tail (silent loss of
  // acknowledged commits). Poisoned, every later append/commit fails until
  // a reopen rebuilds the segment. Nothing durable is forfeited: the caller
  // checkpointed before resetting, so the fsynced main file is
  // self-contained, and resident_ is kept so reads keep working.
  Status st = WriteFreshSegment(epoch_ + 1, appended_lsn_);
  if (!st.ok()) {
    device_failed_ = true;
    flush_error_ = st.WithContext("wal reset");
    return flush_error_;
  }
  ++epoch_;
  base_lsn_ = appended_lsn_;
  last_checkpoint_lsn_ = checkpoint_lsn;
  file_bytes_ = kWalHeaderSize;
  durable_lsn_ = appended_lsn_;
  resident_.clear();
  return Status::OK();
}

Status Wal::RecoverResidentFromDisk() {
  MutexLock lock(&mu_);
  while (flusher_active_) cv_.Wait(lock);
  buffer_.clear();
  buffered_commits_ = 0;
  staged_.clear();
  txn_open_ = false;
  resident_.clear();
  // Only records up to the durable LSN count: bytes a failed fsync left on
  // the device were never acknowledged, so resurrecting them would turn an
  // error the caller saw into a commit the caller never got.
  const uint64_t durable = durable_lsn_;
  // The on-disk header must still match the in-memory generation before the
  // scan below can mean anything: after an interrupted Reset the segment may
  // be truncated or carry a stale epoch, and un-poisoning over it would
  // resume appends the next recovery scan CRC-rejects. Stay poisoned.
  XST_RETURN_NOT_OK(CheckSegmentHeader());
  // Un-poison: the durable prefix is consistent again, and a genuinely
  // dead device re-poisons on the next flush attempt (or right below, if
  // the un-acked tail cannot be trimmed off).
  device_failed_ = false;
  flush_error_ = Status::OK();
  std::map<uint32_t, std::string> resident;
  XST_RETURN_NOT_OK(ScanCommittedPrefix(&resident, durable));
  resident_ = std::move(resident);
  return Status::OK();
}

WalStats Wal::stats() const {
  MutexLock lock(&mu_);
  WalStats s;
  s.segment = epoch_;
  s.segment_bytes = file_bytes_ + buffer_.size();
  s.durable_lsn = durable_lsn_;
  s.appended_lsn = appended_lsn_;
  s.last_checkpoint_lsn = last_checkpoint_lsn_;
  return s;
}

}  // namespace xst
