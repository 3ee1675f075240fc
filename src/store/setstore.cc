#include "src/store/setstore.h"

#include <cstdio>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/common/check.h"
#include "src/common/macros.h"
#include "src/core/order.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ops/tuple.h"
#include "src/store/codec.h"
#include "src/store/cursor.h"

namespace xst {

namespace {

internal::PageSpan BlobSpanOf(const CatalogEntry& entry) {
  return internal::PageSpan{entry.first_page, entry.page_span, entry.byte_length};
}

CatalogEntry BlobEntryOf(const internal::PageSpan& span) {
  CatalogEntry entry;
  entry.first_page = span.first_page;
  entry.page_span = span.pages;
  entry.byte_length = span.byte_length;
  return entry;
}

BTreeInfo IndexInfoOf(const CatalogEntry& entry) {
  return BTreeInfo{entry.first_page, entry.page_span, entry.byte_length};
}

CatalogEntry IndexEntryOf(const BTreeInfo& info) {
  CatalogEntry entry;
  entry.first_page = info.root;
  entry.page_span = info.height;
  entry.byte_length = info.member_count;
  entry.kind = CatalogEntry::kKindIndex;
  return entry;
}

// Process-wide WAL lifecycle metrics (the per-record ones live in wal.cc).
obs::Counter& CheckpointsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kWalCheckpointsCounter);
  return c;
}
obs::Counter& CheckpointFailuresCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kWalCheckpointFailuresCounter);
  return c;
}
obs::Counter& RecoveryReplayedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kWalRecoveryReplayedCounter);
  return c;
}
obs::Counter& ReadRetriesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kStoreReadRetriesCounter);
  return c;
}
obs::Counter& ReadFallbacksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      internal::kStoreReadFallbacksCounter);
  return c;
}

// Every mutation logs the names it changes as delta records, which the
// name bound keeps inside the log's record bound.
Status CheckSetName(const std::string& name) {
  if (name.empty()) return Status::Invalid("set names must be non-empty");
  if (name.size() > kMaxSetNameBytes) {
    return Status::Invalid("set name of " + std::to_string(name.size()) +
                           " bytes exceeds the " + std::to_string(kMaxSetNameBytes) +
                           "-byte limit");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Pager>> SetStore::OpenPager(const std::string& path) const {
  Result<std::unique_ptr<File>> file =
      options_.file_factory ? options_.file_factory(path) : StdioFile::Open(path);
  if (!file.ok()) return file.status();
  XST_ASSIGN_OR_RAISE(uint64_t size, (*file)->Size());
  // A checkpoint that died mid-write can tear the main file's last page;
  // when the log holds that page's image the torn bytes are about to be
  // overwritten, so trim to a whole-page size first (Pager::Open insists on
  // one).
  std::string image;
  if (size % kPageSize != 0 &&
      wal_->LookupPage(static_cast<uint32_t>(size / kPageSize), &image)) {
    Status st = (*file)->Truncate(size - size % kPageSize);
    if (!st.ok()) return st.WithContext("trim torn page of " + path);
  }
  return Pager::Open(std::move(*file), *wal_, options_.buffer_pool_pages, path);
}

Result<SetStore::ReadView> SetStore::CaptureView(const std::string& name) const {
  MutexLock lock(&mu_);
  XST_RETURN_NOT_OK(CheckOpen());
  ReadView view;
  view.pager = pager_;
  view.entry = catalog_.Get(name);
  view.epoch = mutation_epoch_;
  view.last_commit = last_commit_;
  return view;
}

bool SetStore::ValidateView(const ReadView& view) const {
  MutexLock lock(&mu_);
  return pager_ != nullptr && pager_.get() == view.pager.get() &&
         mutation_epoch_ == view.epoch;
}

template <typename ReadFn>
std::invoke_result_t<const ReadFn&, Pager&, const CatalogEntry&>
SetStore::ReadConsistent(const std::string& name, const ReadFn& read) {
  using ReadResult = std::invoke_result_t<const ReadFn&, Pager&, const CatalogEntry&>;
  // Optimistic attempts: stream pages with no store lock held, and return a
  // result (or error, NotFound included) only if nothing invalidated the
  // view meanwhile — an error under an invalidated view may be an artifact
  // of racing a writer — and only once the view's last commit is durable.
  // That wait runs after validation and outside mu_; it is free when the
  // commit already is durable. A failed wait — the flush failed, or a
  // rollback discarded the commit — counts as an invalidated view.
  for (int attempt = 0; attempt < 3; ++attempt) {
    XST_ASSIGN_OR_RAISE(ReadView view, CaptureView(name));
    ReadResult result =
        view.entry.ok() ? read(*view.pager, *view.entry) : ReadResult(view.entry.status());
    if (ValidateView(view) && wal_->WaitDurable(view.last_commit).ok()) {
      return result;
    }
    ReadRetriesCounter().Increment();
  }
  // Writers (or a failing log) kept winning: the same read under mu_, after
  // the locked durability step, guarantees progress.
  ReadFallbacksCounter().Increment();
  MutexLock lock(&mu_);
  XST_RETURN_NOT_OK(ReadDurableLocked());
  XST_ASSIGN_OR_RAISE(CatalogEntry entry, catalog_.Get(name));
  return read(*pager_, entry);
}

Status SetStore::CheckOpen() const {
  if (pager_ == nullptr) {
    return Status::IOError("store '" + path_ +
                           "' is closed (a failure-recovery reopen failed); "
                           "reopen it from the path");
  }
  return Status::OK();
}

Result<std::unique_ptr<SetStore>> SetStore::Open(const std::string& path,
                                                 const SetStoreOptions& options) {
  std::unique_ptr<SetStore> store(new SetStore(path, options));
  WalOptions wal_options;
  wal_options.file_factory = options.file_factory;
  XST_ASSIGN_OR_RAISE(store->wal_,
                      Wal::Open(path + ".wal", std::move(wal_options)));
  {
    // Nobody else can reach the fresh store yet, but its guarded fields
    // still demand the capability — and a one-time uncontended lock is free.
    MutexLock lock(&store->mu_);
    Status opened = store->OpenLocked();
    if (!opened.ok()) {
      // Closed, so that the destructor does not checkpoint a catalog that
      // was never loaded over the log's deltas.
      store->pager_.reset();
      return opened;
    }
  }
  return store;
}

Status SetStore::OpenLocked() {
  XST_ASSIGN_OR_RAISE(pager_, OpenPager(path_));
  // Fresh store: the superblock + empty catalog are its first commit.
  if (pager_->page_count() == 0) return CommitCatalogLocked();
  XST_RETURN_NOT_OK(LoadCatalog());
  // A crash after a commit fsync but before a checkpoint left committed
  // records only in the log, which the pager and LoadCatalog read through;
  // fold them into the main file before the segment can be recycled.
  const WalStats log = wal_->stats();
  if (log.resident_pages + log.resident_deltas == 0) return Status::OK();
  XST_TRACE_SPAN("wal.recovery");
  XST_RETURN_NOT_OK(CheckpointLocked().WithContext("wal recovery " + path_));
  RecoveryReplayedCounter().Add(log.resident_pages);
  return Status::OK();
}

SetStore::~SetStore() {
  MutexLock lock(&mu_);
  if (pager_ == nullptr || wal_ == nullptr) return;
  // Deliberate drops: a destructor has no error channel, and every
  // acknowledged commit is already durable in the log — at worst the next
  // Open replays instead of starting clean.
  if (options_.checkpoint_on_close) {
    (void)CheckpointLocked();
  } else {
    (void)wal_->FlushAll();
  }
}

Result<XSet> SetStore::DecodeBlobSet(Pager& pager, const std::string& name,
                                     const CatalogEntry& entry) {
  std::string encoded;
  XST_RETURN_NOT_OK(internal::ReadPageSpan(pager, BlobSpanOf(entry), &encoded));
  Result<XSet> decoded = DecodeXSetWhole(encoded);
  if (!decoded.ok()) return decoded.status().WithContext("set '" + name + "'");
  return decoded;
}

Status SetStore::StageCatalog() {
  if (pager_->page_count() == 0) {
    // A fresh store: page 0 is its superblock.
    XST_ASSIGN_OR_RAISE(uint32_t superblock, pager_->AllocatePage());
    // The sizeof-based XST_DCHECK counts as a use even under NDEBUG, so no
    // (void) cast is needed to silence -Wunused-variable.
    XST_DCHECK(superblock == 0);
  }
  // Write the catalog blob first, then swap the superblock pointer — the
  // order that keeps a half-applied transaction from referencing anything
  // but garbage pages. Pool-only: the WAL commit that follows makes it
  // durable; the main file is untouched until the checkpoint applies it.
  XST_ASSIGN_OR_RAISE(internal::PageSpan blob,
                      internal::WritePageSpan(*pager_, EncodeXSetToString(catalog_.ToXSet())));
  XSet pointer = XSet::Pair(XSet::Int(blob.first_page),
                            XSet::Int(static_cast<int64_t>(blob.byte_length)));
  XSet with_span = XSet::Pair(pointer, XSet::Int(blob.pages));
  std::string superblock_record = EncodeXSetToString(with_span);

  Page superblock;  // the superblock holds exactly one record
  XST_RETURN_NOT_OK(superblock.AddRecord(superblock_record).status());
  return pager_->WritePage(0, std::move(superblock));
}

Status SetStore::LoadCatalog() {
  Page superblock;
  XST_RETURN_NOT_OK(pager_->ReadPageSnapshot(0, &superblock));
  XST_ASSIGN_OR_RAISE(std::string_view record, superblock.GetRecord(0));
  XST_ASSIGN_OR_RAISE(XSet with_span, DecodeXSetWhole(record));
  XST_ASSIGN_OR_RAISE(XSet pointer, TupleGet(with_span, 1));
  XST_ASSIGN_OR_RAISE(XSet span_val, TupleGet(with_span, 2));
  XST_ASSIGN_OR_RAISE(XSet first_val, TupleGet(pointer, 1));
  XST_ASSIGN_OR_RAISE(XSet len_val, TupleGet(pointer, 2));
  if (!first_val.is_int() || !len_val.is_int() || !span_val.is_int()) {
    return Status::Corruption("superblock pointer is not numeric");
  }
  // Validate before any narrowing cast: a negative or oversized value must
  // surface here as Corruption, not wrap into a bogus page fetch or a
  // confusing blob-length mismatch downstream.
  XST_RETURN_NOT_OK(internal::ValidatePageSpan("superblock catalog pointer",
                                               first_val.int_value(), span_val.int_value(),
                                               len_val.int_value(), pager_->page_count()));
  const internal::PageSpan blob{static_cast<uint32_t>(first_val.int_value()),
                                static_cast<uint32_t>(span_val.int_value()),
                                static_cast<uint64_t>(len_val.int_value())};
  std::string encoded;
  XST_RETURN_NOT_OK(internal::ReadPageSpan(*pager_, blob, &encoded));
  XST_ASSIGN_OR_RAISE(XSet repr, DecodeXSetWhole(encoded));
  XST_ASSIGN_OR_RAISE(Catalog loaded, Catalog::FromXSet(repr));
  // The segment's committed deltas on top: the catalog as of the last
  // commit. Deltas a checkpoint already folded in apply again unchanged.
  for (auto& [name, value] : wal_->SnapshotDeltas()) {
    CatalogChange change{name, std::nullopt};
    if (value) {
      Result<CatalogEntry> entry = DecodeCatalogEntry(*value);
      if (!entry.ok()) return entry.status().WithContext("catalog delta '" + name + "'");
      change.entry = *entry;
    }
    loaded.Apply(change);
  }
  for (const std::string& name : loaded.Names()) {
    CatalogEntry e = *loaded.Get(name);
    if (e.kind == CatalogEntry::kKindIndex) {
      XST_RETURN_NOT_OK(ValidateIndexRange("catalog entry '" + name + "'", e));
    } else {
      XST_RETURN_NOT_OK(internal::ValidatePageSpan(
          "catalog entry '" + name + "'", e.first_page, e.page_span,
          static_cast<int64_t>(e.byte_length), pager_->page_count()));
    }
  }
  catalog_ = std::move(loaded);
  return Status::OK();
}

Status SetStore::ReopenPagerLocked() {
  // The identity swap alone invalidates views, but bump the epoch too so
  // every invalidation path looks the same to a validator.
  ++mutation_epoch_;
  pager_.reset();
  Result<std::unique_ptr<Pager>> pager = OpenPager(path_);
  if (!pager.ok()) return pager.status();  // pager_ stays null: store closed
  pager_ = std::move(*pager);
  Status st = LoadCatalog();
  if (!st.ok()) {
    // Never serve the old catalog against state we could not load from —
    // its page references may decode to the wrong data. Close instead.
    pager_.reset();
    return st;
  }
  return Status::OK();
}

Status SetStore::AbortResidentLocked() {
  wal_->AbortTxn();
  // Pool frames may still hold the aborted transaction's content; a fresh
  // pager rereads everything through the log's committed table + main file.
  return ReopenPagerLocked();
}

Status SetStore::FailTxnLocked(Status cause) {
  Status aborted = AbortResidentLocked();
  if (!aborted.ok()) return aborted.WithContext("abort after failed mutation");
  return cause;
}

Status SetStore::RecoverDurableLocked(const CommitTicket& failed) {
  Result<bool> rolled_back = wal_->RecoverResidentFromDisk(failed);
  if (!rolled_back.ok()) {
    pager_.reset();  // resident state is unknowable; close the store
    return rolled_back.status();
  }
  if (!*rolled_back) return Status::OK();  // an earlier rollback discarded it
  last_commit_ = CommitTicket{};  // only durable commits remain resident
  return ReopenPagerLocked();
}

Status SetStore::ReadDurableLocked() {
  XST_RETURN_NOT_OK(CheckOpen());
  // No transaction is open under mu_, so this flushes what is appended up
  // to the last commit record — never an aborted transaction's spilled
  // images past it.
  if (wal_->WaitDurable(last_commit_).ok()) return Status::OK();
  return RecoverDurableLocked(last_commit_);
}

Result<CommitTicket> SetStore::CommitLocked(const std::vector<CatalogChange>& changes) {
  for (const CatalogChange& change : changes) {
    DeltaValue value;
    if (change.entry) value = EncodeCatalogEntry(*change.entry);
    Status st = wal_->LogDelta(change.name, std::move(value));
    if (!st.ok()) return FailTxnLocked(std::move(st));
  }
  Status st = pager_->DrainUnloggedToWal();
  if (!st.ok()) return FailTxnLocked(std::move(st));
  Result<CommitTicket> ticket = wal_->AppendCommit();
  if (!ticket.ok()) return FailTxnLocked(ticket.status());
  for (const CatalogChange& change : changes) catalog_.Apply(change);
  last_commit_ = *ticket;
  return ticket;
}

Status SetStore::CommitCatalogLocked() {
  wal_->BeginTxn();
  Status st = StageCatalog();
  if (!st.ok()) return FailTxnLocked(std::move(st));
  XST_ASSIGN_OR_RAISE(CommitTicket ticket, CommitLocked({}));
  st = wal_->WaitDurable(ticket);
  if (st.ok()) return Status::OK();
  Status recovered = RecoverDurableLocked(ticket);
  return recovered.ok() ? st : recovered.WithContext("recover after failed catalog commit");
}

Status SetStore::FinishCommit(const Result<CommitTicket>& ticket) {
  if (!ticket.ok()) return ticket.status();
  if (ticket->lsn == 0) return Status::OK();  // logical no-op: nothing was appended
  Status durable = wal_->WaitDurable(*ticket);
  if (!durable.ok()) {
    // The commit record never became durable, so the caller must NOT see
    // its effects: fall back to the on-disk durable prefix, unless a
    // rollback since the ticket (another failed committer's or a reader's)
    // already did. No reader returned the commit: reads wait for their
    // view's last commit to be durable.
    MutexLock lock(&mu_);
    if (pager_ != nullptr) {
      Status recovered = RecoverDurableLocked(*ticket);
      if (!recovered.ok()) {
        return recovered.WithContext("recover after failed commit");
      }
    }
    return durable;
  }
  MaybeCheckpoint();
  return Status::OK();
}

Status SetStore::CheckpointLocked() {
  XST_RETURN_NOT_OK(CheckOpen());
  XST_TRACE_SPAN("store.checkpoint");
  // Conservative: checkpointing never changes logical content, but it moves
  // page images between the log and the main file; invalidating in-flight
  // optimistic reads sidesteps every cache-coherence corner of that window.
  ++mutation_epoch_;
  // Order is everything: log durable → the catalog transaction durable →
  // images into the main file → main file fsync → only then recycle the
  // segment. A crash between any two steps leaves the log authoritative and
  // replay idempotent. The catalog is logged before any image write
  // because commits log no superblock image: without one, a torn superblock
  // write would have nothing to repair it. A segment without deltas has
  // nothing to fold, so a store that did not change does not grow.
  XST_RETURN_NOT_OK(wal_->FlushAll());
  if (wal_->stats().resident_deltas > 0) XST_RETURN_NOT_OK(CommitCatalogLocked());
  const uint64_t durable = wal_->stats().durable_lsn;
  for (const auto& [page_id, image] : wal_->SnapshotResident()) {
    XST_RETURN_NOT_OK(pager_->ApplyCheckpointImage(page_id, image));
  }
  XST_RETURN_NOT_OK(pager_->SyncFile());
  XST_RETURN_NOT_OK(wal_->Reset(durable));
  CheckpointsCounter().Increment();
  checkpoint_failure_streak_ = 0;
  return Status::OK();
}

void SetStore::MaybeCheckpoint() {
  if (wal_->stats().segment_bytes < options_.wal_checkpoint_bytes) return;
  MutexLock lock(&mu_);
  if (pager_ == nullptr) return;
  if (wal_->stats().segment_bytes < options_.wal_checkpoint_bytes) return;
  // The commit being acknowledged is already durable, so its Status must
  // stay OK — but a checkpoint failure must not vanish either: it means the
  // log cannot be recycled and grows past its bound until the device
  // recovers (a failure at the segment-reset step additionally poisons the
  // log, failing later commits). Count every failure and log with
  // power-of-two backoff, since a persistently failing device (say
  // main-file ENOSPC) would otherwise retry — and spam — once per commit.
  Status st = CheckpointLocked();
  if (st.ok()) return;
  CheckpointFailuresCounter().Increment();
  const uint64_t streak = ++checkpoint_failure_streak_;
  if ((streak & (streak - 1)) == 0) {
    std::fprintf(stderr,
                 "xst: wal checkpoint of '%s' failed (%llu consecutive, log "
                 "at %llu bytes): %s\n",
                 path_.c_str(), static_cast<unsigned long long>(streak),
                 static_cast<unsigned long long>(wal_->stats().segment_bytes),
                 st.ToString().c_str());
  }
}

Status SetStore::Checkpoint() {
  MutexLock lock(&mu_);
  return CheckpointLocked();
}

Status SetStore::Put(const std::string& name, const XSet& value) {
  XST_TRACE_SPAN("store.put");
  Result<CommitTicket> ticket = Status::Invalid("unset");
  {
    MutexLock lock(&mu_);
    ticket = PutBatchLocked({{name, value}});
  }
  return FinishCommit(ticket);
}

Status SetStore::PutBatch(const std::vector<std::pair<std::string, XSet>>& entries) {
  XST_TRACE_SPAN("store.put_batch");
  Result<CommitTicket> ticket = Status::Invalid("unset");
  {
    MutexLock lock(&mu_);
    ticket = PutBatchLocked(entries);
  }
  return FinishCommit(ticket);
}

Result<CommitTicket> SetStore::PutBatchLocked(
    const std::vector<std::pair<std::string, XSet>>& entries) {
  XST_RETURN_NOT_OK(CheckOpen());
  ++mutation_epoch_;  // invalidate in-flight optimistic reads
  // Validate up front: the batch must be all-or-nothing, so no partial
  // catalog mutation may happen after the first write.
  std::unordered_set<std::string_view> seen;
  for (const auto& [name, value] : entries) {
    (void)value;
    XST_RETURN_NOT_OK(CheckSetName(name));
    if (!seen.insert(name).second) {
      return Status::Invalid("PutBatch: duplicate name '" + name + "' in batch");
    }
  }
  wal_->BeginTxn();
  // Stage-then-commit: the in-memory catalog only advances once the commit
  // record is appended, so a failed batch leaves resident state untouched.
  std::vector<CatalogChange> changes;
  changes.reserve(entries.size());
  for (const auto& [name, value] : entries) {
    Result<internal::PageSpan> blob =
        internal::WritePageSpan(*pager_, EncodeXSetToString(value));
    if (!blob.ok()) return FailTxnLocked(blob.status());
    changes.push_back({name, BlobEntryOf(*blob)});
  }
  return CommitLocked(changes);  // the single commit point
}

Result<size_t> SetStore::Scrub() {
  XST_TRACE_SPAN("store.scrub");
  MutexLock lock(&mu_);
  XST_RETURN_NOT_OK(CheckOpen());
  size_t verified = 0;
  for (const std::string& name : catalog_.Names()) {
    XST_ASSIGN_OR_RAISE(CatalogEntry entry, catalog_.Get(name));
    if (entry.kind == CatalogEntry::kKindIndex) {
      Status valid = ValidateBTree(*pager_, IndexInfoOf(entry));
      if (!valid.ok()) return valid.WithContext("scrub: set '" + name + "'");
    }
    Result<XSet> value = GetLocked(name);
    if (!value.ok()) {
      return value.status().WithContext("scrub: set '" + name + "'");
    }
    ++verified;
  }
  return verified;
}

Result<XSet> SetStore::Get(const std::string& name) {
  XST_TRACE_SPAN("store.get");
  return ReadConsistent(name, [&](Pager& pager, const CatalogEntry& entry) {
    return ReadSet(pager, name, entry);
  });
}

Result<XSet> SetStore::GetLocked(const std::string& name) {
  XST_RETURN_NOT_OK(CheckOpen());
  XST_ASSIGN_OR_RAISE(CatalogEntry entry, catalog_.Get(name));
  return ReadSet(*pager_, name, entry);
}

Result<XSet> SetStore::ReadSet(Pager& pager, const std::string& name,
                               const CatalogEntry& entry) {
  return entry.kind == CatalogEntry::kKindIndex ? MaterializeIndex(pager, name, entry)
                                                : DecodeBlobSet(pager, name, entry);
}

Status SetStore::ReadIndexMembers(Pager& pager, const std::string& name,
                                  const CatalogEntry& entry, const XSet* lo,
                                  const XSet* hi, std::vector<Membership>* out) {
  const auto fail = [&](const Status& st) { return st.WithContext("set '" + name + "'"); };
  const BTree tree(&pager, IndexInfoOf(entry));
#if XST_VALIDATE_LEVEL >= 2
  if (Status valid = tree.Validate(); !valid.ok()) return fail(valid);
#endif
  if (Status read = tree.ReadRange(lo, hi, out); !read.ok()) return fail(read);
  return Status::OK();
}

Result<XSet> SetStore::MaterializeIndex(Pager& pager, const std::string& name,
                                        const CatalogEntry& entry) {
  const uint64_t member_count = IndexInfoOf(entry).member_count;
  std::vector<Membership> members;
  members.reserve(member_count);
  XST_RETURN_NOT_OK(ReadIndexMembers(pager, name, entry, nullptr, nullptr, &members));
  // The leaf walk must agree with the catalog's cardinality and be strictly
  // ascending — a half-applied mutation that reached disk surfaces here as
  // Corruption rather than as a silently wrong set.
  if (members.size() != member_count) {
    return Status::Corruption("set '" + name + "': index holds " +
                              std::to_string(members.size()) +
                              " members but the catalog says " +
                              std::to_string(member_count));
  }
  if (!IsCanonicalMemberList(members)) {
    return Status::Corruption("set '" + name + "': index leaves out of order");
  }
  XST_DCHECK(IsCanonicalMemberList(members));
  return XSet::FromSortedMembers(std::move(members));
}

Status SetStore::ValidateIndexRange(const std::string& what,
                                    const CatalogEntry& entry) const {
  const auto fail = [&](const std::string& detail) {
    return Status::Corruption(what + ": " + detail +
                              " (root=" + std::to_string(entry.first_page) +
                              ", height=" + std::to_string(entry.page_span) +
                              ", members=" + std::to_string(entry.byte_length) +
                              ", file has " + std::to_string(pager_->page_count()) +
                              " pages)");
  };
  if (entry.first_page < 1 || entry.first_page >= pager_->page_count()) {
    return fail("root page out of range");
  }
  if (entry.page_span < 1 || entry.page_span > kMaxBTreeHeight) {
    return fail("height out of range");
  }
  return Status::OK();
}

Result<CommitTicket> SetStore::CommitTreeMutation(const std::string& name,
                                                  const BTreeInfo& info) {
#if XST_VALIDATE_LEVEL >= 1
  Status valid = ValidateBTree(*pager_, info);
  if (!valid.ok()) {
    // The mutated tree is structurally wrong in the pool; discard it before
    // a commit could make it real.
    Status aborted = AbortResidentLocked();
    if (!aborted.ok()) {
      return aborted.WithContext("abort after invalid tree '" + name + "'");
    }
    return valid.WithContext("mutated tree '" + name + "'");
  }
#endif
  Result<CommitTicket> ticket = CommitLocked({{name, IndexEntryOf(info)}});
  if (!ticket.ok()) return ticket.status().WithContext("commit of '" + name + "'");
  return ticket;
}

Status SetStore::PutIndexed(const std::string& name, const XSet& value) {
  XST_TRACE_SPAN("store.put_indexed");
  Result<CommitTicket> ticket = Status::Invalid("unset");
  {
    MutexLock lock(&mu_);
    ticket = PutIndexedLocked(name, value);
  }
  return FinishCommit(ticket);
}

Result<CommitTicket> SetStore::PutIndexedLocked(const std::string& name,
                                                const XSet& value) {
  XST_RETURN_NOT_OK(CheckOpen());
  ++mutation_epoch_;  // invalidate in-flight optimistic reads
  XST_RETURN_NOT_OK(CheckSetName(name));
  if (value.is_atom()) {
    return Status::Invalid("ordered-index storage holds member lists; atom '" +
                           value.ToString() + "' has none (use Put)");
  }
  wal_->BeginTxn();
  Result<BTreeInfo> info = BTree::Build(*pager_, value.members());
  if (!info.ok()) {
    return FailTxnLocked(info.status().WithContext("index build for '" + name + "'"));
  }
  return CommitTreeMutation(name, *info);
}

Status SetStore::InsertMember(const std::string& name, const Membership& m) {
  XST_TRACE_SPAN("store.insert_member");
  Result<CommitTicket> ticket = Status::Invalid("unset");
  {
    MutexLock lock(&mu_);
    ticket = MutateMemberLocked(name, m, /*insert=*/true);
  }
  return FinishCommit(ticket);
}

Status SetStore::EraseMember(const std::string& name, const Membership& m) {
  XST_TRACE_SPAN("store.erase_member");
  Result<CommitTicket> ticket = Status::Invalid("unset");
  {
    MutexLock lock(&mu_);
    ticket = MutateMemberLocked(name, m, /*insert=*/false);
  }
  return FinishCommit(ticket);
}

Result<CommitTicket> SetStore::MutateMemberLocked(const std::string& name,
                                                  const Membership& m, bool insert) {
  XST_RETURN_NOT_OK(CheckOpen());
  ++mutation_epoch_;  // invalidate in-flight optimistic reads
  XST_RETURN_NOT_OK(CheckSetName(name));
  XST_ASSIGN_OR_RAISE(CatalogEntry entry, catalog_.Get(name));
  if (entry.kind != CatalogEntry::kKindIndex) {
    return Status::Invalid("'" + name +
                           "' is blob-stored; member mutation needs PutIndexed");
  }
  wal_->BeginTxn();
  BTree tree(pager_.get(), IndexInfoOf(entry));
  Result<bool> changed = insert ? tree.Insert(m) : tree.Erase(m);
  if (!changed.ok()) {
    return FailTxnLocked(changed.status().WithContext(
        (insert ? "insert into '" : "erase from '") + name + "'"));
  }
  if (!*changed) {
    // A duplicate insert or an absent erase touched no page (an entry is
    // encoded only once the leaf search proves it new), so nothing commits.
    wal_->AbortTxn();
    return CommitTicket{};
  }
  return CommitTreeMutation(name, tree.info());
}

Result<bool> SetStore::ContainsMember(const std::string& name, const Membership& m) {
  XST_TRACE_SPAN("store.contains_member");
  return ReadConsistent(name, [&](Pager& pager,
                                  const CatalogEntry& entry) -> Result<bool> {
    if (entry.kind == CatalogEntry::kKindIndex) {
      return BTree(&pager, IndexInfoOf(entry)).Contains(m);
    }
    XST_ASSIGN_OR_RAISE(XSet value, DecodeBlobSet(pager, name, entry));
    return value.Contains(m.element, m.scope);
  });
}

Result<StorageMode> SetStore::ModeOf(const std::string& name) {
  MutexLock lock(&mu_);
  XST_RETURN_NOT_OK(ReadDurableLocked());
  XST_ASSIGN_OR_RAISE(CatalogEntry entry, catalog_.Get(name));
  return entry.kind == CatalogEntry::kKindIndex ? StorageMode::kOrderedIndex
                                                : StorageMode::kBlob;
}

bool SetStore::Contains(const std::string& name) {
  MutexLock lock(&mu_);
  return ReadDurableLocked().ok() && catalog_.Contains(name);
}

std::vector<std::string> SetStore::List() {
  MutexLock lock(&mu_);
  if (!ReadDurableLocked().ok()) return {};
  return catalog_.Names();
}

XSet SetStore::CatalogAsXSet() {
  MutexLock lock(&mu_);
  if (!ReadDurableLocked().ok()) return XSet::Empty();
  return catalog_.ToXSet();
}

Result<std::unique_ptr<MemberCursor>> SetStore::OpenCursor(const std::string& name) {
  return OpenMemberCursor(name, nullptr, nullptr);
}

Result<std::unique_ptr<MemberCursor>> SetStore::OpenElementRange(
    const std::string& name, const XSet& lo, const XSet& hi) {
  return OpenMemberCursor(name, &lo, &hi);
}

Result<std::unique_ptr<MemberCursor>> SetStore::OpenMemberCursor(const std::string& name,
                                                                 const XSet* lo,
                                                                 const XSet* hi) {
  return ReadConsistent(name, [&](Pager& pager, const CatalogEntry& entry)
                                  -> Result<std::unique_ptr<MemberCursor>> {
    if (entry.kind == CatalogEntry::kKindIndex) {
      // The whole answer is read under this one view; a range seeks its
      // lower edge and walks only the in-range leaves.
      std::vector<Membership> members;
      XST_RETURN_NOT_OK(ReadIndexMembers(pager, name, entry, lo, hi, &members));
      return std::unique_ptr<MemberCursor>(new MemberListCursor(std::move(members)));
    }
    XST_ASSIGN_OR_RAISE(XSet value, DecodeBlobSet(pager, name, entry));
    std::unique_ptr<MemberCursor> cursor(new XSetCursor(std::move(value)));
    if (lo == nullptr) return cursor;
    return std::unique_ptr<MemberCursor>(new ElementRangeCursor(std::move(cursor), *lo, *hi));
  });
}

Status SetStore::Delete(const std::string& name) {
  XST_TRACE_SPAN("store.delete");
  Result<CommitTicket> ticket = Status::Invalid("unset");
  {
    MutexLock lock(&mu_);
    ticket = DeleteLocked(name);
  }
  return FinishCommit(ticket);
}

Result<CommitTicket> SetStore::DeleteLocked(const std::string& name) {
  XST_RETURN_NOT_OK(CheckOpen());
  ++mutation_epoch_;  // invalidate in-flight optimistic reads
  XST_RETURN_NOT_OK(CheckSetName(name));
  XST_RETURN_NOT_OK(catalog_.Get(name).status());  // NotFound before any txn opens
  wal_->BeginTxn();
  return CommitLocked({{name, std::nullopt}});
}

Status SetStore::Flush() {
  MutexLock lock(&mu_);
  return FlushLocked();
}

Status SetStore::FlushLocked() {
  XST_RETURN_NOT_OK(CheckOpen());
  return wal_->FlushAll();
}

Status SetStore::CopyLiveTo(const std::string& tmp_path) {
  XST_ASSIGN_OR_RAISE(std::unique_ptr<SetStore> fresh,
                      SetStore::Open(tmp_path, options_));
  for (const std::string& name : catalog_.Names()) {
    XST_ASSIGN_OR_RAISE(CatalogEntry entry, catalog_.Get(name));
    XST_ASSIGN_OR_RAISE(XSet value, GetLocked(name));
    // Preserve the storage mode: an indexed set stays indexed (rebuilt
    // compact, dropping stale nodes and dead overflow chains).
    if (entry.kind == CatalogEntry::kKindIndex) {
      XST_RETURN_NOT_OK(fresh->PutIndexed(name, value));
    } else {
      XST_RETURN_NOT_OK(fresh->Put(name, value));
    }
  }
  // Checkpoint, not flush: the sibling's main file must be self-contained
  // before the rename steals it away from its own log.
  return fresh->Checkpoint();
}

Status SetStore::Compact() {
  XST_TRACE_SPAN("store.compact");
  MutexLock lock(&mu_);
  XST_RETURN_NOT_OK(CheckOpen());
  // Checkpoint FIRST, atomically with the swap (same critical section): the
  // rename must not race committed-but-unapplied log images, or a crash
  // after the swap would replay pre-compaction pages into the compacted
  // file. After this the log segment is empty and stays empty until the
  // reopen below (mu_ blocks every committer).
  XST_RETURN_NOT_OK(CheckpointLocked().WithContext("compact " + path_));
  // Rewrite live blobs into a sibling file, then swap it in.
  const std::string tmp_path = path_ + ".compact";
  std::remove(tmp_path.c_str());
  std::remove((tmp_path + ".wal").c_str());
  Status st = CopyLiveTo(tmp_path);
  if (!st.ok()) {
    // The original file and the resident catalog are untouched; drop the
    // half-written sibling (and its log) and report.
    std::remove(tmp_path.c_str());
    std::remove((tmp_path + ".wal").c_str());
    return st.WithContext("compact " + path_);
  }
  pager_.reset();  // close our file before replacing it
  int rc = options_.rename_fn ? options_.rename_fn(tmp_path.c_str(), path_.c_str())
                              : std::rename(tmp_path.c_str(), path_.c_str());
  if (rc != 0) {
    std::remove(tmp_path.c_str());
    std::remove((tmp_path + ".wal").c_str());
    Status reopened = ReopenPagerLocked();  // the original file is intact
    Status failed = Status::IOError("compact " + path_ + ": rename failed");
    return reopened.ok() ? failed
                         : reopened.WithContext("compact: reopen after failed rename");
  }
  // The sibling's log is empty (CopyLiveTo checkpoints) — drop it rather
  // than leave an orphan next to a renamed-away path.
  std::remove((tmp_path + ".wal").c_str());
  return ReopenPagerLocked().WithContext("compact " + path_ + ": reopen after swap");
}

}  // namespace xst
