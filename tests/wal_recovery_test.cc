// Crash-point recovery matrix for the write-ahead log (DESIGN.md §14).
//
// The central contract under test: a store that crashes at ANY byte of its
// log's append stream and reopens equals an exact prefix of the acknowledged
// mutation history —
//
//   1. every acknowledged commit is present (acked durability),
//   2. no mutation is half-applied (commit atomicity),
//   3. the recovered store scrubs clean (structural integrity).
//
// The matrix drives a fixed multi-op workload (blob puts, overwrites, an
// ordered-index build, member insert/erase, a batch, a delete) against an
// in-memory model, killing the device at a sweep of crash points:
//
//   * every byte offset of the log's write stream around record frame
//     boundaries, plus an exhaustive low region and a coarse interior
//     (FaultState::fail_write_at_byte; XST_CRASH_SWEEP=full sweeps every
//     byte, =fast trims to boundaries for sanitizer CI),
//   * every k-th write, in clean and torn shapes,
//   * every k-th flush (the fsync-failed path: bytes on the device that
//     were never acknowledged must not be resurrected by recovery),
//   * every log I/O of a checkpoint, as a TRANSIENT fault
//     (FaultState::transient): a failed catalog transaction must roll back
//     to the durable prefix, and a failed segment reset must poison the log
//     rather than desync in-memory state from the on-disk header — the
//     healed device would otherwise acknowledge commits recovery
//     CRC-rejects.
//
// On top of the matrix: a seed-replayable randomized sweep (XST_FUZZ_SEED),
// a concurrent-writers crash fuzz (recovered version per thread must be in
// [acked, attempted]), deterministic replay-on-open checks (catalog deltas
// included), recovery idempotence under a crashing recovery, and the
// group-commit concurrency tests (batched fsyncs observable in the
// wal.group_commit.batch_size histogram; Compact racing committers stays
// serializable).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/validate.h"
#include "src/obs/metrics.h"
#include "src/store/fault_file.h"
#include "src/store/setstore.h"
#include "src/store/wal.h"
#include "tests/testing.h"

namespace xst {
namespace {

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("XST_FUZZ_SEED")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) return static_cast<uint64_t>(v);
  }
  return 1977;  // the year of the paper
}

std::string TestPath(const std::string& tag) {
  std::string path = ::testing::TempDir();
  if (path.empty()) path = "/tmp/";
  if (path.back() != '/') path += '/';
  return path + "xst_wal_test_" + tag + "_" + std::to_string(::getpid());
}

// The ".wal" sidecar belongs to the main file; remove them together.
void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".compact").c_str());
  std::remove((path + ".compact.wal").c_str());
}

obs::Counter& RecoveryReplayedCounter() {
  return obs::MetricsRegistry::Global().GetCounter(
      internal::kWalRecoveryReplayedCounter);
}

// Samples in the batch-size histogram recording >= 2 commits per fsync —
// the observable signature of group commit actually batching.
uint64_t MultiCommitBatchSamples() {
  obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      internal::kWalBatchSizeHistogram);
  uint64_t n = 0;
  for (int k = 2; k < obs::Histogram::kBuckets; ++k) n += h.bucket(k);
  return n;
}

// --- The scripted workload and its in-memory oracle ---

using Model = std::map<std::string, XSet>;

Membership TreeMember(int i) {
  return Membership{XSet::Pair(XSet::Int(i), XSet::Int(i * 3)), XSet::Empty()};
}

XSet TreeValue(const std::vector<int>& keys) {
  std::vector<Membership> members;
  members.reserve(keys.size());
  for (int k : keys) members.push_back(TreeMember(k));
  return XSet::FromMembers(std::move(members));
}

std::vector<int> SeedTreeKeys() {
  std::vector<int> keys;
  for (int i = 0; i < 48; i += 2) keys.push_back(i);  // 24 members
  return keys;
}

XSet BlobValue(int tag, int tuples) {
  std::vector<XSet> elems;
  elems.reserve(tuples);
  for (int i = 0; i < tuples; ++i) {
    elems.push_back(XSet::Pair(XSet::Int(tag * 10000 + i), XSet::Int(i * 7)));
  }
  return XSet::Classical(elems);
}

struct WorkloadOp {
  const char* label;
  std::function<Status(SetStore&)> apply;
  std::function<void(Model&)> model;
};

// Fixed script: each op is one WAL transaction, so the valid post-crash
// states are exactly the prefixes states[0..ops.size()].
std::vector<WorkloadOp> Workload() {
  const XSet alpha1 = BlobValue(1, 8);
  const XSet alpha2 = BlobValue(2, 12);
  const XSet b1 = BlobValue(3, 5);
  const XSet b2 = BlobValue(4, 6);
  const XSet big = BlobValue(5, 600);  // spans multiple pages
  const XSet tree0 = TreeValue(SeedTreeKeys());

  std::vector<int> after_insert = SeedTreeKeys();
  after_insert.push_back(101);
  const XSet tree1 = TreeValue(after_insert);
  std::vector<int> after_erase;
  for (int k : after_insert) {
    if (k != 4) after_erase.push_back(k);
  }
  const XSet tree2 = TreeValue(after_erase);

  return {
      {"put alpha", [=](SetStore& s) { return s.Put("alpha", alpha1); },
       [=](Model& m) { m["alpha"] = alpha1; }},
      {"build tree", [=](SetStore& s) { return s.PutIndexed("tree", tree0); },
       [=](Model& m) { m["tree"] = tree0; }},
      {"insert member",
       [](SetStore& s) { return s.InsertMember("tree", TreeMember(101)); },
       [=](Model& m) { m["tree"] = tree1; }},
      {"overwrite alpha", [=](SetStore& s) { return s.Put("alpha", alpha2); },
       [=](Model& m) { m["alpha"] = alpha2; }},
      {"put batch",
       [=](SetStore& s) { return s.PutBatch({{"b1", b1}, {"b2", b2}}); },
       [=](Model& m) {
         m["b1"] = b1;
         m["b2"] = b2;
       }},
      {"erase member",
       [](SetStore& s) { return s.EraseMember("tree", TreeMember(4)); },
       [=](Model& m) { m["tree"] = tree2; }},
      {"delete b1", [](SetStore& s) { return s.Delete("b1"); },
       [](Model& m) { m.erase("b1"); }},
      {"put big", [=](SetStore& s) { return s.Put("big", big); },
       [=](Model& m) { m["big"] = big; }},
  };
}

// states[j] = the model after the first j ops; states[0] = empty store.
std::vector<Model> WorkloadStates(const std::vector<WorkloadOp>& ops) {
  std::vector<Model> states;
  Model m;
  states.push_back(m);
  for (const WorkloadOp& op : ops) {
    op.model(m);
    states.push_back(m);
  }
  return states;
}

::testing::AssertionResult MatchesModel(SetStore& s, const Model& model) {
  std::vector<std::string> names;
  names.reserve(model.size());
  for (const auto& [name, value] : model) names.push_back(name);
  std::vector<std::string> listed = s.List();
  if (listed != names) {
    std::string got;
    for (const std::string& n : listed) got += n + " ";
    std::string want;
    for (const std::string& n : names) want += n + " ";
    return ::testing::AssertionFailure()
           << "catalog mismatch: got [" << got << "] want [" << want << "]";
  }
  for (const auto& [name, value] : model) {
    Result<XSet> got = s.Get(name);
    if (!got.ok()) {
      return ::testing::AssertionFailure()
             << "Get(" << name << "): " << got.status().ToString();
    }
    if (!(*got == value)) {
      return ::testing::AssertionFailure() << "value mismatch for " << name;
    }
    Status valid = ValidateXSet(*got);
    if (!valid.ok()) {
      return ::testing::AssertionFailure()
             << "ValidateXSet(" << name << "): " << valid.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

SetStoreOptions CleanReopenOptions() {
  SetStoreOptions options;
  options.buffer_pool_pages = 8;
  return options;
}

SetStoreOptions CrashRunOptions(std::shared_ptr<FaultState> state) {
  SetStoreOptions options;
  options.buffer_pool_pages = 4;  // small pool: evictions spill into the log
  options.file_factory = FaultFileFactory(std::move(state));
  options.checkpoint_on_close = false;  // a crashed process never checkpoints
  return options;
}

struct CrashRun {
  size_t acked = 0;   // ops that returned OK before the device died
  bool fired = false; // did the scheduled fault trigger at all?
};

// One matrix cell: run the workload on a fresh store under `state`'s fault
// schedule, checking the resident-rollback contract at the failure point.
CrashRun RunCrashWorkload(const std::string& path,
                          const std::vector<WorkloadOp>& ops,
                          const std::vector<Model>& states,
                          std::shared_ptr<FaultState> state) {
  RemoveStoreFiles(path);
  CrashRun run;
  {
    auto store = SetStore::Open(path, CrashRunOptions(state));
    if (store.ok()) {
      for (const WorkloadOp& op : ops) {
        Status st = op.apply(**store);
        if (!st.ok()) {
          // Resident rollback: a failed (un-acked) op must leave the store
          // serving exactly the acked prefix — reads work because only the
          // log's device died, and they must not show the failed commit.
          EXPECT_TRUE(MatchesModel(**store, states[run.acked]))
              << "resident state after failed '" << op.label << "'";
          break;
        }
        ++run.acked;
      }
    }
  }  // crash: the store object dies with the device
  run.fired = state->triggered;
  return run;
}

// Reopens fault-free and asserts the recovered store is states[j] for
// exactly one j >= acked, and that it scrubs clean.
void VerifyRecovered(const std::string& path, const std::vector<Model>& states,
                     size_t acked) {
  auto clean = SetStore::Open(path, CleanReopenOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  int matched = -1;
  for (size_t j = 0; j < states.size(); ++j) {
    if (MatchesModel(**clean, states[j])) {
      matched = static_cast<int>(j);
      break;
    }
  }
  ASSERT_GE(matched, 0) << "recovered store matches no prefix state";
  EXPECT_GE(static_cast<size_t>(matched), acked)
      << "an acknowledged commit was lost";
  Result<size_t> scrubbed = (*clean)->Scrub();
  EXPECT_TRUE(scrubbed.ok()) << scrubbed.status().ToString();
}

// Profiles a fault-free run: total log bytes and record frame boundaries
// (offset of each frame start), for boundary-focused crash sweeps.
void ProfileCleanRun(const std::string& path, const std::vector<WorkloadOp>& ops,
                     uint64_t* log_bytes, std::vector<uint64_t>* boundaries) {
  RemoveStoreFiles(path);
  {
    SetStoreOptions options;
    options.buffer_pool_pages = 4;
    options.checkpoint_on_close = false;
    auto store = SetStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const WorkloadOp& op : ops) {
      ASSERT_TRUE(op.apply(**store).ok()) << op.label;
    }
  }
  std::ifstream f(path + ".wal", std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  *log_bytes = static_cast<uint64_t>(f.tellg());
  // Header is 40 bytes; each frame is a u32 body length + 16 bytes of
  // lsn/crc + the body (wal.cc's layout, asserted here so a format change
  // breaks this parse loudly instead of silently skewing the sweep).
  uint64_t off = 40;
  while (off + 20 <= *log_bytes) {
    boundaries->push_back(off);
    f.seekg(static_cast<std::streamoff>(off));
    uint32_t len = 0;
    f.read(reinterpret_cast<char*>(&len), sizeof len);
    ASSERT_TRUE(f.good());
    ASSERT_LE(len, kPageSize + 32u) << "implausible frame at " << off;
    off += 20 + len;
  }
  ASSERT_EQ(off, *log_bytes) << "frame chain does not tile the log";
  ASSERT_GT(boundaries->size(), ops.size()) << "fewer frames than ops";
}

// The crash-offset sweep set, shaped by XST_CRASH_SWEEP:
//   fast    frame boundaries +/-1 and a coarse interior (sanitizer CI)
//   full    every byte of the append stream (manual deep runs)
//   (unset) exhaustive low region + boundaries +/-4 + strided interior
std::vector<uint64_t> CrashOffsets(uint64_t log_bytes,
                                   const std::vector<uint64_t>& boundaries) {
  const char* env = std::getenv("XST_CRASH_SWEEP");
  const std::string mode = env == nullptr ? "" : env;
  std::vector<bool> pick(log_bytes, false);
  if (mode == "full") {
    return [&] {
      std::vector<uint64_t> all(log_bytes);
      for (uint64_t i = 0; i < log_bytes; ++i) all[i] = i;
      return all;
    }();
  }
  const uint64_t radius = mode == "fast" ? 1 : 4;
  const uint64_t stride = mode == "fast" ? 8192 : 509;
  const uint64_t low = mode == "fast" ? 64 : 256;
  for (uint64_t b = 0; b < std::min(low, log_bytes); ++b) pick[b] = true;
  for (uint64_t boundary : boundaries) {
    const uint64_t from = boundary >= radius ? boundary - radius : 0;
    for (uint64_t b = from; b <= boundary + radius && b < log_bytes; ++b) {
      pick[b] = true;
    }
  }
  for (uint64_t b = 0; b < log_bytes; b += stride) pick[b] = true;
  pick[log_bytes - 1] = true;
  std::vector<uint64_t> offsets;
  for (uint64_t b = 0; b < log_bytes; ++b) {
    if (pick[b]) offsets.push_back(b);
  }
  return offsets;
}

// --- The matrix ---

TEST(WalCrashMatrix, CrashAtByteOffsets) {
  const std::string path = TestPath("byte_sweep");
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);

  uint64_t log_bytes = 0;
  std::vector<uint64_t> boundaries;
  ASSERT_NO_FATAL_FAILURE(ProfileCleanRun(path, ops, &log_bytes, &boundaries));

  const std::vector<uint64_t> offsets = CrashOffsets(log_bytes, boundaries);
  ASSERT_FALSE(offsets.empty());
  for (uint64_t offset : offsets) {
    SCOPED_TRACE("crash at wal byte " + std::to_string(offset));
    auto state = std::make_shared<FaultState>();
    state->path_filter = ".wal";
    state->fail_write_at_byte = static_cast<int64_t>(offset);
    CrashRun run = RunCrashWorkload(path, ops, states, state);
    ASSERT_TRUE(run.fired) << "offset inside the stream must kill the device";
    ASSERT_NO_FATAL_FAILURE(VerifyRecovered(path, states, run.acked));
    if (::testing::Test::HasFailure()) break;  // one offset's dump is enough
  }
  RemoveStoreFiles(path);
}

TEST(WalCrashMatrix, CrashAtEveryWrite) {
  const std::string path = TestPath("write_sweep");
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);
  for (FaultState::WriteFault shape :
       {FaultState::WriteFault::kFailCleanly, FaultState::WriteFault::kTornWrite}) {
    for (int64_t k = 0;; ++k) {
      ASSERT_LT(k, 500) << "write schedule did not converge";
      SCOPED_TRACE("wal write #" + std::to_string(k) +
                   (shape == FaultState::WriteFault::kTornWrite ? " torn" : " clean"));
      auto state = std::make_shared<FaultState>();
      state->path_filter = ".wal";
      state->fail_write = k;
      state->write_fault = shape;
      CrashRun run = RunCrashWorkload(path, ops, states, state);
      ASSERT_NO_FATAL_FAILURE(VerifyRecovered(path, states, run.acked));
      if (!run.fired) break;  // k is past every write the workload performs
      if (::testing::Test::HasFailure()) break;
    }
  }
  RemoveStoreFiles(path);
}

TEST(WalCrashMatrix, CrashAtEveryFlush) {
  const std::string path = TestPath("flush_sweep");
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);
  for (int64_t k = 0;; ++k) {
    ASSERT_LT(k, 200) << "flush schedule did not converge";
    SCOPED_TRACE("wal flush #" + std::to_string(k));
    auto state = std::make_shared<FaultState>();
    state->path_filter = ".wal";
    state->fail_flush = k;
    CrashRun run = RunCrashWorkload(path, ops, states, state);
    ASSERT_NO_FATAL_FAILURE(VerifyRecovered(path, states, run.acked));
    if (!run.fired) break;
    if (::testing::Test::HasFailure()) break;
  }
  RemoveStoreFiles(path);
}

// --- Deterministic replay-on-open ---

TEST(WalRecovery, ReplayOnOpenAfterCrashClose) {
  const std::string path = TestPath("replay");
  RemoveStoreFiles(path);
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);
  {
    SetStoreOptions options;
    options.buffer_pool_pages = 4;
    options.checkpoint_on_close = false;  // simulate a crash: log-only state
    auto store = SetStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const WorkloadOp& op : ops) {
      ASSERT_TRUE(op.apply(**store).ok()) << op.label;
    }
  }
  // Everything lives in the log; the main file was never checkpointed.
  const uint64_t replayed_before = RecoveryReplayedCounter().value();
  {
    auto clean = SetStore::Open(path);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_GT(RecoveryReplayedCounter().value(), replayed_before)
        << "reopen did not replay any page image";
    EXPECT_TRUE(MatchesModel(**clean, states.back()));
    // Replay recycles the segment: the log is back to a bare header and
    // remembers the checkpoint LSN it was based on.
    WalStats stats = (*clean)->wal_stats();
    EXPECT_LT(stats.segment_bytes, 64u);
    EXPECT_GT(stats.last_checkpoint_lsn, 0u);
    EXPECT_GT(stats.segment, 1u);
  }
  // A second reopen replays nothing (the first one checkpointed on close).
  const uint64_t replayed_mid = RecoveryReplayedCounter().value();
  {
    auto again = SetStore::Open(path);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(RecoveryReplayedCounter().value(), replayed_mid);
    EXPECT_TRUE(MatchesModel(**again, states.back()));
  }
  RemoveStoreFiles(path);
}

TEST(WalRecovery, RecoveryIsIdempotentUnderCrashingRecovery) {
  const std::string path = TestPath("recover_twice");
  RemoveStoreFiles(path);
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);
  {
    SetStoreOptions options;
    options.buffer_pool_pages = 4;
    options.checkpoint_on_close = false;
    auto store = SetStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const WorkloadOp& op : ops) {
      ASSERT_TRUE(op.apply(**store).ok()) << op.label;
    }
  }
  // Recovery itself crashes: the first main-file write of the replay dies.
  // The log must stay authoritative for the next attempt.
  {
    auto state = std::make_shared<FaultState>();
    state->fail_write = 0;
    SetStoreOptions options;
    options.file_factory = FaultFileFactory(state);
    auto crashed = SetStore::Open(path, options);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(state->triggered);
  }
  auto clean = SetStore::Open(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(MatchesModel(**clean, states.back()));
  EXPECT_TRUE((*clean)->Scrub().ok());
  RemoveStoreFiles(path);
}

// --- Catalog deltas ---
//
// A commit logs the catalog entries it changed as delta records; only a
// checkpoint writes the catalog. Reopen and rollback both rebuild the
// catalog as the superblock's catalog plus the log's committed deltas.

SetStoreOptions CrashCloseOptions() {
  SetStoreOptions options;
  options.buffer_pool_pages = 4;
  options.checkpoint_on_close = false;  // simulate a crash: log-only state
  return options;
}

TEST(WalRecovery, CatalogDeltasAfterACheckpointReplayOnOpen) {
  const std::string path = TestPath("delta_replay");
  RemoveStoreFiles(path);
  Model model;
  {
    auto store = SetStore::Open(path, CrashCloseOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("alpha", BlobValue(1, 8)).ok());
    ASSERT_TRUE((*store)->Put("doomed", BlobValue(2, 3)).ok());
    ASSERT_TRUE((*store)->PutIndexed("tree", TreeValue(SeedTreeKeys())).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    // From here on, every catalog change lives only in the log's deltas.
    ASSERT_TRUE((*store)->Put("gamma", BlobValue(3, 5)).ok());
    ASSERT_TRUE((*store)->Delete("doomed").ok());
    ASSERT_TRUE((*store)->PutIndexed("tree2", TreeValue({1, 3, 5})).ok());
    ASSERT_TRUE((*store)->InsertMember("tree", TreeMember(101)).ok());
    std::vector<int> keys = SeedTreeKeys();
    keys.push_back(101);
    model = {{"alpha", BlobValue(1, 8)},
             {"gamma", BlobValue(3, 5)},
             {"tree", TreeValue(keys)},
             {"tree2", TreeValue({1, 3, 5})}};
    EXPECT_TRUE(MatchesModel(**store, model));
  }
  {
    auto reopened = SetStore::Open(path, CrashCloseOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(MatchesModel(**reopened, model));
    ASSERT_TRUE((*reopened)->Checkpoint().ok());
    EXPECT_EQ((*reopened)->wal_stats().segment_bytes, 40u) << "log not back to its header";
  }
  // The main file alone, without its log, holds every change.
  std::remove((path + ".wal").c_str());
  auto main_only = SetStore::Open(path, CleanReopenOptions());
  ASSERT_TRUE(main_only.ok()) << main_only.status().ToString();
  EXPECT_TRUE(MatchesModel(**main_only, model));
  EXPECT_TRUE((*main_only)->Scrub().ok());
  RemoveStoreFiles(path);
}

TEST(WalRecovery, RollbackDropsOnlyTheFailedCommitsDeltas) {
  const std::string path = TestPath("delta_rollback");
  RemoveStoreFiles(path);
  auto state = std::make_shared<FaultState>();
  state->path_filter = ".wal";
  state->transient = true;
  Model model;
  {
    auto store = SetStore::Open(path, CrashRunOptions(state));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put("checkpointed", BlobValue(1, 4)).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    // Durable, after the last checkpoint: its catalog entry is a delta.
    ASSERT_TRUE((*store)->Put("durable", BlobValue(2, 4)).ok());
    model = {{"checkpointed", BlobValue(1, 4)}, {"durable", BlobValue(2, 4)}};
    state->fail_flush = state->flushes;  // the flush of the next commit
    EXPECT_FALSE((*store)->Put("lost", BlobValue(3, 4)).ok());
    ASSERT_TRUE(state->triggered);
    EXPECT_TRUE(MatchesModel(**store, model));
    // The rolled-back log commits again.
    ASSERT_TRUE((*store)->Put("after", BlobValue(4, 4)).ok());
    model["after"] = BlobValue(4, 4);
    EXPECT_TRUE(MatchesModel(**store, model));
  }
  auto clean = SetStore::Open(path, CleanReopenOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(MatchesModel(**clean, model));
  RemoveStoreFiles(path);
}

TEST(WalRecovery, LargePutBatchIsOneCommitAcrossACrashClose) {
  const std::string path = TestPath("delta_batch");
  RemoveStoreFiles(path);
  Model model;
  std::vector<std::pair<std::string, XSet>> batch;
  for (int i = 0; i < 2000; ++i) {
    batch.emplace_back("n" + std::to_string(i), BlobValue(i, 1));
    model[batch.back().first] = batch.back().second;
  }
  {
    auto store = SetStore::Open(path, CrashCloseOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->PutBatch(batch).ok());
  }
  auto clean = SetStore::Open(path, CleanReopenOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(MatchesModel(**clean, model));
  RemoveStoreFiles(path);
}

TEST(WalRecovery, NameAtTheBoundSurvivesACrashClose) {
  const std::string path = TestPath("delta_long_name");
  RemoveStoreFiles(path);
  const std::string at_bound(kMaxSetNameBytes, 'n');
  const std::string over_bound = at_bound + "n";
  {
    auto store = SetStore::Open(path, CrashCloseOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->Put(over_bound, BlobValue(1, 2)).IsInvalid());
    EXPECT_TRUE((*store)->PutBatch({{over_bound, BlobValue(1, 2)}}).IsInvalid());
    EXPECT_TRUE((*store)->PutIndexed(over_bound, TreeValue({1})).IsInvalid());
    ASSERT_TRUE((*store)->Put(at_bound, BlobValue(1, 2)).ok());
    EXPECT_TRUE((*store)->Delete(over_bound).IsInvalid());
  }
  auto clean = SetStore::Open(path, CleanReopenOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(MatchesModel(**clean, {{at_bound, BlobValue(1, 2)}}));
  RemoveStoreFiles(path);
}

// --- Randomized, seed-replayable sweeps ---

TEST(WalRecoveryFuzz, RandomCrashOffsets) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("XST_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  const std::string path = TestPath("fuzz_offsets");
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);
  uint64_t log_bytes = 0;
  std::vector<uint64_t> boundaries;
  ASSERT_NO_FATAL_FAILURE(ProfileCleanRun(path, ops, &log_bytes, &boundaries));
  const int trials = std::getenv("XST_CRASH_SWEEP") != nullptr &&
                             std::string(std::getenv("XST_CRASH_SWEEP")) == "fast"
                         ? 8
                         : 32;
  std::uniform_int_distribution<uint64_t> dist(0, log_bytes - 1);
  for (int t = 0; t < trials; ++t) {
    const uint64_t offset = dist(rng);
    SCOPED_TRACE("trial " + std::to_string(t) + " crash at wal byte " +
                 std::to_string(offset));
    auto state = std::make_shared<FaultState>();
    state->path_filter = ".wal";
    state->fail_write_at_byte = static_cast<int64_t>(offset);
    CrashRun run = RunCrashWorkload(path, ops, states, state);
    ASSERT_TRUE(run.fired);
    ASSERT_NO_FATAL_FAILURE(VerifyRecovered(path, states, run.acked));
    if (::testing::Test::HasFailure()) break;
  }
  RemoveStoreFiles(path);
}

XSet VersionValue(int thread, int version) {
  return XSet::Classical(
      {XSet::Pair(XSet::Int(thread), XSet::Int(version))});
}

TEST(WalRecoveryFuzz, ConcurrentCommitsCrash) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("XST_FUZZ_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::string path = TestPath("fuzz_concurrent");
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 24;
  const int trials = std::getenv("XST_CRASH_SWEEP") != nullptr &&
                             std::string(std::getenv("XST_CRASH_SWEEP")) == "fast"
                         ? 4
                         : 10;
  for (int t = 0; t < trials; ++t) {
    // Rough append-stream budget: each commit logs a handful of page images.
    std::uniform_int_distribution<int64_t> dist(64, 400 * 1024);
    const int64_t crash_at = dist(rng);
    SCOPED_TRACE("trial " + std::to_string(t) + " crash at wal byte " +
                 std::to_string(crash_at));
    RemoveStoreFiles(path);
    auto state = std::make_shared<FaultState>();
    state->path_filter = ".wal";
    state->fail_write_at_byte = crash_at;
    int acked[kThreads] = {};
    int attempted[kThreads] = {};
    {
      SetStoreOptions options;
      options.buffer_pool_pages = 32;
      options.file_factory = FaultFileFactory(state);
      options.checkpoint_on_close = false;
      auto store = SetStore::Open(path, options);
      if (store.ok()) {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
          threads.emplace_back([&, i] {
            for (int v = 1; v <= kCommitsPerThread; ++v) {
              attempted[i] = v;
              if (!(*store)->Put("t" + std::to_string(i), VersionValue(i, v)).ok()) {
                attempted[i] = v;
                return;
              }
              acked[i] = v;
            }
          });
        }
        for (std::thread& th : threads) th.join();
      }
    }
    // Reopen fault-free: each thread's recovered version must be a version
    // it actually attempted, at least its last acked one — acked commits
    // survive, and nothing the process never wrote can appear.
    auto clean = SetStore::Open(path, CleanReopenOptions());
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE((*clean)->Scrub().ok());
    for (int i = 0; i < kThreads; ++i) {
      const std::string name = "t" + std::to_string(i);
      Result<XSet> got = (*clean)->Get(name);
      if (!got.ok()) {
        ASSERT_TRUE(got.status().IsNotFound()) << got.status().ToString();
        EXPECT_EQ(acked[i], 0) << name << ": acked commit lost entirely";
        continue;
      }
      int recovered = -1;
      for (int v = 1; v <= attempted[i]; ++v) {
        if (*got == VersionValue(i, v)) {
          recovered = v;
          break;
        }
      }
      ASSERT_GE(recovered, 1) << name << ": recovered value was never written";
      EXPECT_GE(recovered, acked[i]) << name << ": acked commit lost";
      EXPECT_LE(recovered, attempted[i]);
    }
    if (::testing::Test::HasFailure()) break;
  }
  RemoveStoreFiles(path);
}

// --- Group commit ---

// A File that runs `before_flush` ahead of every fsync: the group-commit
// tests hold the flush there so that commits pile up behind it and the next
// leader batches them — without this, fast local fsyncs can make batching
// timing-dependent.
class HookedFlushFile : public File {
 public:
  HookedFlushFile(std::unique_ptr<File> base, std::function<void()> before_flush)
      : base_(std::move(base)), before_flush_(std::move(before_flush)) {}
  Result<uint64_t> Size() override { return base_->Size(); }
  Status ReadAt(uint64_t offset, char* dst, size_t n) override {
    return base_->ReadAt(offset, dst, n);
  }
  Status WriteAt(uint64_t offset, const char* src, size_t n) override {
    return base_->WriteAt(offset, src, n);
  }
  Status Flush() override {
    before_flush_();
    return base_->Flush();
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }

 private:
  std::unique_ptr<File> base_;
  std::function<void()> before_flush_;
};

// Hooks the store's log (not its main file).
FileFactory WalFlushHookFactory(std::function<void()> before_flush) {
  return [before_flush](const std::string& path) -> Result<std::unique_ptr<File>> {
    Result<std::unique_ptr<File>> base = StdioFile::Open(path);
    if (!base.ok()) return base.status();
    if (path.find(".wal") != std::string::npos) {
      return std::unique_ptr<File>(new HookedFlushFile(std::move(*base), before_flush));
    }
    return base;
  };
}

// A log whose fsync takes 2 ms.
FileFactory SlowWalFactory() {
  return WalFlushHookFactory(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
}

TEST(WalGroupCommit, ConcurrentCommittersShareFsyncs) {
  const std::string path = TestPath("group_commit");
  RemoveStoreFiles(path);
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 16;
  const uint64_t batched_before = MultiCommitBatchSamples();
  std::vector<std::string> names;
  {
    // Setting `gated` arms the gate: the next log flush parks until the log
    // has appended `gate_records` more records, then goes ahead. The leader
    // flushes with no lock held, so committers keep appending meanwhile,
    // and all of them wait for the next leader's fsync. The deadline only
    // turns a broken store into a failure instead of a hang.
    std::atomic<SetStore*> gated{nullptr};
    uint64_t gate_records = 0;
    SetStoreOptions options;
    options.buffer_pool_pages = 64;
    options.file_factory = WalFlushHookFactory([&gated, &gate_records] {
      SetStore* store = gated.exchange(nullptr);
      if (store == nullptr) return;
      const uint64_t target = store->wal_stats().appended_lsn + gate_records;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (store->wal_stats().appended_lsn < target &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    auto store = SetStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Size the gate from one Put of the same shape (its page images plus
    // its commit record), then park the committers' first flush until two
    // more such commits have been appended behind it.
    const uint64_t before = (*store)->wal_stats().appended_lsn;
    ASSERT_TRUE((*store)->Put("warmup", VersionValue(0, 0)).ok());
    gate_records = 2 * ((*store)->wal_stats().appended_lsn - before);
    ASSERT_TRUE((*store)->Delete("warmup").ok());
    gated.store(store->get());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int v = 0; v < kCommitsPerThread; ++v) {
          const std::string name =
              "g" + std::to_string(i) + "_" + std::to_string(v);
          if (!(*store)->Put(name, VersionValue(i, v)).ok()) {
            ++failures;
            return;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
    for (int i = 0; i < kThreads; ++i) {
      for (int v = 0; v < kCommitsPerThread; ++v) {
        names.push_back("g" + std::to_string(i) + "_" + std::to_string(v));
      }
    }
  }
  // With the first flush parked behind two more commits, at least one flush
  // must have covered several commits — the histogram is the proof
  // batching happened.
  EXPECT_GT(MultiCommitBatchSamples(), batched_before)
      << "no fsync ever batched >= 2 commits";
  // Every acknowledged commit survives the reopen.
  auto clean = SetStore::Open(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  std::sort(names.begin(), names.end());
  EXPECT_EQ((*clean)->List(), names);
  EXPECT_TRUE((*clean)->Scrub().ok());
  RemoveStoreFiles(path);
}

TEST(WalGroupCommit, CompactDuringConcurrentCommits) {
  // Compact checkpoints and swaps files while committers run; the store
  // lock serializes them, and nothing acknowledged may be lost across the
  // segment switch (the historical Compact-vs-log ordering hazard).
  const std::string path = TestPath("compact_race");
  RemoveStoreFiles(path);
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 30;
  int final_version[kThreads] = {};
  {
    SetStoreOptions options;
    options.buffer_pool_pages = 64;
    options.file_factory = SlowWalFactory();
    auto store = SetStore::Open(path, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int v = 1; v <= kCommitsPerThread; ++v) {
          ASSERT_TRUE(
              (*store)->Put("t" + std::to_string(i), VersionValue(i, v)).ok());
          final_version[i] = v;
        }
      });
    }
    for (int c = 0; c < 3; ++c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Status st = (*store)->Compact();
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    for (std::thread& th : threads) th.join();
    ASSERT_TRUE((*store)->Scrub().ok());
  }
  auto clean = SetStore::Open(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE((*clean)->Scrub().ok());
  for (int i = 0; i < kThreads; ++i) {
    Result<XSet> got = (*clean)->Get("t" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(*got == VersionValue(i, final_version[i]))
        << "t" << i << " lost its last acked version";
  }
  RemoveStoreFiles(path);
}

// --- Checkpoint faults ---

obs::Counter& CheckpointFailures() {
  return obs::MetricsRegistry::Global().GetCounter(
      internal::kWalCheckpointFailuresCounter);
}

TEST(WalCheckpoint, TransientFaultDuringCheckpointPoisonsTheLog) {
  // A checkpoint's segment reset (truncate + fresh header + fsync) is the
  // one moment the log's on-disk generation changes. A transient fault
  // there — the device heals immediately, no crash — must not let the
  // store keep committing: with in-memory epoch/offset state desynced from
  // the on-disk header, later commits would be fsynced and acknowledged,
  // then CRC-rejected by recovery as a torn tail (acked-commit loss from a
  // single momentary ftruncate/write error). Contract: the failed
  // checkpoint poisons the log, reads keep serving the acked state, and a
  // reopen recovers every acknowledged commit.
  const std::string path = TestPath("ckpt_transient");
  const std::vector<WorkloadOp> ops = Workload();
  const std::vector<Model> states = WorkloadStates(ops);
  for (bool flush_fault : {false, true}) {
    bool done = false;
    for (int64_t k = 0; !done; ++k) {
      ASSERT_LT(k, 50) << "checkpoint I/O sweep did not converge";
      SCOPED_TRACE(std::string("checkpoint ") +
                   (flush_fault ? "flush" : "write") + " #" + std::to_string(k));
      RemoveStoreFiles(path);
      auto state = std::make_shared<FaultState>();
      state->path_filter = ".wal";
      state->transient = true;
      Model expected = states.back();
      {
        auto store = SetStore::Open(path, CrashRunOptions(state));
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        for (const WorkloadOp& op : ops) {
          ASSERT_TRUE(op.apply(**store).ok()) << op.label;
        }
        // Every op is acked and durable, so the remaining log I/O of a
        // checkpoint is its catalog transaction (one write and one flush,
        // which fold the workload's catalog deltas into a new catalog)
        // followed by the segment reset; arm the k-th operation from here.
        const bool catalog_fault = k == 0;
        if (flush_fault) {
          state->fail_flush = state->flushes + k;
        } else {
          state->fail_write = state->writes + k;
        }
        Status ckpt = (*store)->Checkpoint();
        if (!state->triggered) {
          EXPECT_TRUE(ckpt.ok()) << ckpt.ToString();
          done = true;  // k is past every I/O the checkpoint performs
        } else {
          EXPECT_FALSE(ckpt.ok()) << "triggered fault must surface";
          // Reads still serve everything acknowledged (resident table and
          // the already-checkpointed main file are both intact).
          EXPECT_TRUE(MatchesModel(**store, states.back()));
          Status put = (*store)->Put("after", BlobValue(9, 4));
          if (!catalog_fault) {
            // Poisoned until reopen: a commit into a segment whose on-disk
            // header may no longer match would be acknowledged and then
            // lost.
            EXPECT_FALSE(put.ok())
                << "commit acknowledged into a desynced segment";
          }
          // A failed catalog transaction rolls the log back to its durable
          // prefix, after which a commit may succeed.
          if (put.ok()) expected["after"] = BlobValue(9, 4);  // acked => durable
        }
      }
      auto clean = SetStore::Open(path, CleanReopenOptions());
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      EXPECT_TRUE(MatchesModel(**clean, expected));
      EXPECT_TRUE((*clean)->Scrub().ok());
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  RemoveStoreFiles(path);
}

TEST(WalCheckpoint, MaybeCheckpointFailureIsCountedNotSwallowed) {
  // Automatic checkpoints run on the commit path and deliberately keep the
  // commit's Status OK (the commit is already durable) — but their
  // failures must be observable: wal.checkpoint.failures counts each one,
  // and a reset-step failure poisons the log so the next commit fails
  // loudly instead of being silently lost.
  const std::string path = TestPath("ckpt_counted");
  for (bool reset_fault : {true, false}) {
    SCOPED_TRACE(reset_fault ? "segment-reset truncate" : "catalog transaction write");
    RemoveStoreFiles(path);
    auto state = std::make_shared<FaultState>();
    state->path_filter = ".wal";
    state->transient = true;
    const uint64_t failures_before = CheckpointFailures().value();
    Model expected;
    expected["a"] = BlobValue(1, 6);
    {
      SetStoreOptions options;
      options.buffer_pool_pages = 8;
      options.file_factory = FaultFileFactory(state);
      options.checkpoint_on_close = false;
      options.wal_checkpoint_bytes = 1;  // checkpoint after every commit
      auto store = SetStore::Open(path, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      // The put's own commit is one batched log write. The automatic
      // checkpoint then writes its catalog transaction, one batched write
      // that folds the put's delta into a new catalog, and truncates the
      // segment first thing in its reset. Fail one of those, once.
      state->fail_write = state->writes + (reset_fault ? 2 : 1);
      Status put = (*store)->Put("a", BlobValue(1, 6));
      EXPECT_TRUE(put.ok()) << put.ToString();  // the commit itself is durable
      ASSERT_TRUE(state->triggered) << "fault did not land on the checkpoint";
      EXPECT_EQ(CheckpointFailures().value(), failures_before + 1);
      EXPECT_TRUE(MatchesModel(**store, expected));
      Status put_b = (*store)->Put("b", BlobValue(2, 6));
      if (reset_fault) {
        // Poisoned until reopen: the on-disk segment is in an unknown state.
        EXPECT_FALSE(put_b.ok());
      } else if (put_b.ok()) {
        // The failed catalog transaction rolled the log back to its durable
        // prefix, so later commits may succeed; an acked one is durable.
        expected["b"] = BlobValue(2, 6);
      }
    }
    auto clean = SetStore::Open(path, CleanReopenOptions());
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(MatchesModel(**clean, expected));
    EXPECT_TRUE((*clean)->Scrub().ok());
  }
  RemoveStoreFiles(path);
}

TEST(WalGroupCommit, CheckpointBoundsTheLog) {
  // A tiny checkpoint threshold forces segment recycling mid-workload; the
  // log never grows unboundedly and the store stays exact throughout.
  const std::string path = TestPath("checkpoint_bound");
  RemoveStoreFiles(path);
  SetStoreOptions options;
  options.buffer_pool_pages = 8;
  options.wal_checkpoint_bytes = 64 * 1024;
  auto store = SetStore::Open(path, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int v = 0; v < 40; ++v) {
    ASSERT_TRUE((*store)->Put("s" + std::to_string(v % 5), BlobValue(v, 40)).ok());
  }
  WalStats stats = (*store)->wal_stats();
  EXPECT_GT(stats.segment, 1u) << "no checkpoint ever recycled the segment";
  // Post-checkpoint segments carry only what follows the last checkpoint.
  EXPECT_LT(stats.segment_bytes, 2 * options.wal_checkpoint_bytes);
  EXPECT_TRUE((*store)->Scrub().ok());
  for (int v = 35; v < 40; ++v) {
    EXPECT_TRUE(*(*store)->Get("s" + std::to_string(v % 5)) == BlobValue(v, 40));
  }
  RemoveStoreFiles(path);
}

// --- Commit tickets across a rollback ---
//
// A rollback to the durable prefix hands the LSNs of the records it
// discards to later records, so a commit's wait must be decided by its
// ticket, not its LSN alone. These drive the Wal directly and
// deterministically: a transient flush fault fails exactly the flush that
// would cover the commit under test.

struct TicketLog {
  std::string path;
  std::shared_ptr<FaultState> fault = std::make_shared<FaultState>();
  std::unique_ptr<Wal> wal;

  explicit TicketLog(const std::string& tag) : path(TestPath(tag) + ".wal") {
    std::remove(path.c_str());
    fault->transient = true;
    WalOptions options;
    options.file_factory = FaultFileFactory(fault);
    Result<std::unique_ptr<Wal>> opened = Wal::Open(path, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (opened.ok()) wal = std::move(*opened);
  }
  ~TicketLog() {
    wal.reset();
    std::remove(path.c_str());
  }

  // One transaction: a page-1 image filled with `fill`, then its commit.
  CommitTicket Commit(char fill) {
    wal->BeginTxn();
    EXPECT_TRUE(wal->LogPageImage(1, std::string(kPageSize, fill)).ok());
    Result<CommitTicket> ticket = wal->AppendCommit();
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    return ticket.ok() ? *ticket : CommitTicket{};
  }

  // Fails the next flush, which covers everything appended so far, then
  // rolls the log back to its durable prefix, as a failed waiter on
  // `last`, the last commit appended, would.
  void FailFlushAndRollBack(const CommitTicket& last) {
    fault->fail_flush = fault->flushes;
    EXPECT_FALSE(wal->FlushAll().ok());
    Result<bool> rolled_back = wal->RecoverResidentFromDisk(last);
    ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().ToString();
    EXPECT_TRUE(*rolled_back);
  }

  char ResidentFill() {
    std::string image;
    return wal->LookupPage(1, &image) ? image[0] : '\0';
  }
};

TEST(WalTicket, DiscardedCommitFailsItsWaitAfterItsLsnIsReused) {
  TicketLog log("ticket_discarded");
  ASSERT_NE(log.wal, nullptr);
  const CommitTicket a = log.Commit('a');  // appended, never waited on
  log.FailFlushAndRollBack(a);
  const CommitTicket c = log.Commit('c');
  ASSERT_EQ(c.lsn, a.lsn) << "the rollback must hand a's LSN to c";
  ASSERT_TRUE(log.wal->WaitDurable(c).ok());
  ASSERT_GE(log.wal->stats().durable_lsn, a.lsn);
  Status waited = log.wal->WaitDurable(a);
  EXPECT_TRUE(waited.IsIOError()) << waited.ToString();
  EXPECT_EQ(log.ResidentFill(), 'c');
}

TEST(WalTicket, CommitDurableBeforeARollbackStillSucceeds) {
  TicketLog log("ticket_kept");
  ASSERT_NE(log.wal, nullptr);
  const CommitTicket a = log.Commit('a');
  ASSERT_TRUE(log.wal->WaitDurable(a).ok());
  const CommitTicket b = log.Commit('b');
  log.FailFlushAndRollBack(b);
  const CommitTicket c = log.Commit('c');
  ASSERT_EQ(c.lsn, b.lsn) << "the rollback must hand b's LSN to c";
  ASSERT_TRUE(log.wal->WaitDurable(c).ok());
  // a was durable before the rollback, so its wait still succeeds after
  // it; b was discarded, so its wait fails although its LSN is durable.
  EXPECT_TRUE(log.wal->WaitDurable(a).ok());
  EXPECT_TRUE(log.wal->WaitDurable(b).IsIOError());
  EXPECT_EQ(log.ResidentFill(), 'c');
}

// A waiter on a discarded commit that fails only after the rollback, with
// another commit appended meanwhile, must not roll the log back again: a
// second rollback would discard that commit too.
TEST(WalTicket, LateWaiterOnADiscardedCommitKeepsLaterCommits) {
  TicketLog log("ticket_late_waiter");
  ASSERT_NE(log.wal, nullptr);
  const CommitTicket a = log.Commit('a');
  log.FailFlushAndRollBack(a);  // another waiter's failure discards a
  const CommitTicket c = log.Commit('c');  // appended, not yet durable
  ASSERT_GT(c.lsn, log.wal->stats().durable_lsn);
  EXPECT_TRUE(log.wal->WaitDurable(a).IsIOError());
  Result<bool> rolled_back = log.wal->RecoverResidentFromDisk(a);
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().ToString();
  EXPECT_FALSE(*rolled_back);
  EXPECT_TRUE(log.wal->WaitDurable(c).ok());
  EXPECT_EQ(log.ResidentFill(), 'c');
}

}  // namespace
}  // namespace xst
