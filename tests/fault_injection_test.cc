// Systematic fault injection for the storage stack.
//
// Every store operation (Put, PutBatch, Delete, Compact, and Open itself)
// runs under a sweep of fault schedules: for each I/O channel (read,
// write×{clean, short, torn}, flush) the k-th operation fails, for k = 0, 1,
// 2, ... until the schedule no longer fires. For every faulted run the suite
// asserts the storage failure contract:
//
//   1. The operation surfaces a non-OK Status — no silent failure.
//   2. Resident state is never corrupted: the in-memory catalog rolls back
//      to the pre-op state, and any read that succeeds returns exactly the
//      stored value (reads may fail with a Status under a dead device, but
//      never lie).
//   3. The file on disk, reopened fault-free, is either openable with the
//      exact pre-op or post-op contents (each Get exact or Corruption), or
//      fails to open as Corruption. Never a third thing.
//
// Write and flush faults are sticky (the device stays dead), so the pager's
// best-effort teardown flush cannot quietly heal a file the test expects to
// find torn.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/store/fault_file.h"
#include "src/store/setstore.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string TestPath(const std::string& tag) {
  std::string path = ::testing::TempDir();
  if (path.empty()) path = "/tmp/";
  if (path.back() != '/') path += '/';
  return path + "xst_fault_test_" + tag + "_" + std::to_string(::getpid());
}

XSet AlphaValue() { return X("{<alpha, 1>, <alpha, 2>}"); }

// Large enough to span several pages, so blob I/O is multi-page and the
// sweep exercises mid-blob faults.
const XSet& BetaValue() {
  static const XSet* value = [] {
    std::vector<XSet> tuples;
    for (int i = 0; i < 2000; ++i) {
      tuples.push_back(XSet::Pair(XSet::Int(i), XSet::Int(i * 3)));
    }
    return new XSet(XSet::Classical(tuples));
  }();
  return *value;
}

XSet GammaValue() { return X("{<gamma, 3>}"); }
XSet DeltaValue() { return X("{<delta, 4>}"); }

const XSet& ExpectedValue(const std::string& name) {
  static const XSet alpha = AlphaValue();
  static const XSet gamma = GammaValue();
  static const XSet delta = DeltaValue();
  if (name == "alpha") return alpha;
  if (name == "beta") return BetaValue();
  if (name == "gamma") return gamma;
  if (name == "delta") return delta;
  ADD_FAILURE() << "unexpected name " << name;
  return alpha;
}

// Fault-free seed: alpha (small), beta (multi-page), plus deleted churn so
// Compact has real work to do.
void SeedStore(const std::string& path) {
  // The ".wal" sidecar belongs to the main file; stale ones would replay
  // the previous iteration's state into the fresh seed.
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".compact").c_str());
  std::remove((path + ".compact.wal").c_str());
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 4});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Put("alpha", AlphaValue()).ok());
  ASSERT_TRUE((*store)->Put("beta", BetaValue()).ok());
  ASSERT_TRUE((*store)->Put("churn", X("{c}")).ok());
  ASSERT_TRUE((*store)->Delete("churn").ok());
}

enum class OpKind { kPut, kPutBatch, kDelete, kCompact, kOpen };

struct Channel {
  const char* name;
  void (*arm)(FaultState&, int64_t k);
};

constexpr Channel kChannels[] = {
    {"read", [](FaultState& s, int64_t k) { s.fail_read = k; }},
    {"write-clean",
     [](FaultState& s, int64_t k) {
       s.fail_write = k;
       s.write_fault = FaultState::WriteFault::kFailCleanly;
     }},
    {"write-short",
     [](FaultState& s, int64_t k) {
       s.fail_write = k;
       s.write_fault = FaultState::WriteFault::kShortWrite;
     }},
    {"write-torn",
     [](FaultState& s, int64_t k) {
       s.fail_write = k;
       s.write_fault = FaultState::WriteFault::kTornWrite;
     }},
    {"flush", [](FaultState& s, int64_t k) { s.fail_flush = k; }},
};

Status RunOp(OpKind op, SetStore& store) {
  switch (op) {
    case OpKind::kPut:
      return store.Put("gamma", GammaValue());
    case OpKind::kPutBatch:
      return store.PutBatch({{"gamma", GammaValue()}, {"delta", DeltaValue()}});
    case OpKind::kDelete:
      return store.Delete("alpha");
    case OpKind::kCompact:
      return store.Compact();
    case OpKind::kOpen:
      return Status::OK();  // the open under fault *is* the operation
  }
  return Status::OK();
}

std::vector<std::string> PostNames(OpKind op) {
  switch (op) {
    case OpKind::kPut:
      return {"alpha", "beta", "gamma"};
    case OpKind::kPutBatch:
      return {"alpha", "beta", "delta", "gamma"};
    case OpKind::kDelete:
      return {"beta"};
    case OpKind::kCompact:
    case OpKind::kOpen:
      return {"alpha", "beta"};
  }
  return {};
}

// Sweeps one (operation, channel) pair through k = 0, 1, 2, ... until the
// schedule stops firing, checking the failure contract at every step.
void SweepOpChannel(OpKind op, const Channel& channel, const std::string& path) {
  const std::vector<std::string> pre = {"alpha", "beta"};
  const std::vector<std::string> post = PostNames(op);

  for (int64_t k = 0;; ++k) {
    ASSERT_LT(k, 500) << "fault schedule did not converge";
    SCOPED_TRACE(std::string("channel=") + channel.name + " k=" + std::to_string(k));
    ASSERT_NO_FATAL_FAILURE(SeedStore(path));

    auto state = std::make_shared<FaultState>();
    channel.arm(*state, k);
    SetStoreOptions options;
    options.buffer_pool_pages = 4;
    options.file_factory = FaultFileFactory(state);

    // OK after the fault fired is legitimate in exactly one shape: the fault
    // landed after the commit point (e.g. the best-effort teardown flush of
    // an already-flushed file inside Compact). Then the op's report binds it
    // to full post-state durability, checked below.
    Status op_status = Status::OK();
    {
      auto store = SetStore::Open(path, options);
      if (store.ok()) {
        SetStore& s = **store;
        op_status = RunOp(op, s);
        if (!op_status.ok()) {
          // Contract 2: resident rollback — the catalog still describes the
          // pre-op state (Compact preserves names, so pre == post there).
          EXPECT_EQ(s.List(), pre);
          for (const std::string& name : s.List()) {
            Result<XSet> got = s.Get(name);
            // Reads may fail under a dead device, but an OK read is exact.
            if (got.ok()) {
              EXPECT_EQ(*got, ExpectedValue(name)) << name;
            }
          }
        } else {
          EXPECT_EQ(s.List(), post);
        }
      } else {
        // Open itself failed under the fault: acceptable for every op, and
        // the whole point for kOpen.
        op_status = store.status();
      }
    }  // store destroyed: best-effort teardown flush may fire the fault too

    if (op == OpKind::kCompact) {
      // Contract (satellite): no error path leaks the compaction temp file.
      EXPECT_FALSE(FileExists(path + ".compact"));
    }

    const bool fired = state->triggered;
    // Contract 1: a fault before the commit point surfaces as a Status (the
    // sticky device makes a pre-commit fault impossible to ride over), and
    // a reported success is durable.
    auto clean = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 4});
    if (op_status.ok()) {
      // Reported success: the post-state must be fully there, exactly.
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      EXPECT_EQ((*clean)->List(), post);
      for (const std::string& name : (*clean)->List()) {
        Result<XSet> got = (*clean)->Get(name);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, ExpectedValue(name)) << name;
      }
    } else if (!clean.ok()) {
      // Contract 3: a failed op may leave the file unopenable, but only
      // detectably so.
      EXPECT_TRUE(clean.status().IsCorruption()) << clean.status().ToString();
    } else {
      // Contract 3: otherwise the surviving file is pre-state or post-state;
      // each read is exact or Corruption, never silently wrong.
      std::vector<std::string> names = (*clean)->List();
      EXPECT_TRUE(names == pre || names == post)
          << "reopened catalog is neither pre- nor post-state";
      for (const std::string& name : names) {
        Result<XSet> got = (*clean)->Get(name);
        if (got.ok()) {
          EXPECT_EQ(*got, ExpectedValue(name)) << name;
        } else {
          EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
        }
      }
    }

    if (!fired) break;  // k is past every I/O this scenario performs
  }
}

void SweepOp(OpKind op, const std::string& tag) {
  const std::string path = TestPath(tag);
  for (const Channel& channel : kChannels) {
    SweepOpChannel(op, channel, path);
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".compact").c_str());
  std::remove((path + ".compact.wal").c_str());
}

TEST(FaultInjection, Put) { SweepOp(OpKind::kPut, "put"); }

// --- Ordered-index (B+tree) mutations under the same fault matrix ---
//
// Tree ops are sequences of page mutations (insert/erase driving splits and
// merges), so a mid-sequence fault legitimately leaves a *prefix* of the
// mutation list applied — each individual mutation is atomic, the sequence
// is not. The contract adapts: every surviving state must be the seed plus
// an exact prefix of the mutations, every read exact or Corruption, and a
// fault-free reopen must either Scrub clean or report Corruption — never a
// structurally broken tree served as if healthy.

// ~600-byte entries: a handful per leaf, so a few dozen members span
// multiple leaves and the mutation lists below force real splits/merges.
Membership TreeMember(int i) {
  return Membership{XSet::Pair(XSet::Int(i), XSet::String(std::string(500, 'x'))),
                    XSet::Empty()};
}

XSet TreeSeedValue() {
  std::vector<Membership> members;
  for (int i = 0; i < 120; i += 2) members.push_back(TreeMember(i));  // 60 members
  return XSet::FromMembers(std::move(members));
}

enum class TreeOpKind { kBuild, kInsertSplit, kEraseMerge };

// The mutation list for each op; empty for kBuild (one-shot PutIndexed).
std::vector<Membership> TreeMutations(TreeOpKind op) {
  std::vector<Membership> ms;
  if (op == TreeOpKind::kInsertSplit) {
    for (int i = 1; i < 33; i += 2) ms.push_back(TreeMember(i));  // 16 inserts
  } else if (op == TreeOpKind::kEraseMerge) {
    for (int i = 0; i < 60; i += 2) ms.push_back(TreeMember(i));  // 30 erases
  }
  return ms;
}

// Every legitimate surviving value: the seed with mutations[0..j) applied.
std::vector<XSet> TreeValidStates(TreeOpKind op) {
  XSet seed = TreeSeedValue();
  std::vector<Membership> mutations = TreeMutations(op);
  std::vector<XSet> states;
  std::vector<Membership> members(seed.members().begin(), seed.members().end());
  states.push_back(seed);
  for (const Membership& m : mutations) {
    if (op == TreeOpKind::kInsertSplit) {
      members.push_back(m);
    } else {
      members.erase(std::remove_if(members.begin(), members.end(),
                                   [&](const Membership& x) {
                                     return CompareMembership(x, m) == 0;
                                   }),
                    members.end());
    }
    states.push_back(XSet::FromMembers(members));
  }
  return states;
}

void SeedTreeStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  auto store = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 4});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->PutIndexed("tree", TreeSeedValue()).ok());
}

bool IsOneOf(const XSet& value, const std::vector<XSet>& states) {
  for (const XSet& s : states) {
    if (value == s) return true;
  }
  return false;
}

void SweepTreeOpChannel(TreeOpKind op, const Channel& channel,
                        const std::string& path) {
  const std::vector<Membership> mutations = TreeMutations(op);
  const std::vector<XSet> valid = TreeValidStates(op);

  for (int64_t k = 0;; ++k) {
    ASSERT_LT(k, 900) << "fault schedule did not converge";
    SCOPED_TRACE(std::string("channel=") + channel.name + " k=" + std::to_string(k));
    ASSERT_NO_FATAL_FAILURE(SeedTreeStore(path));

    auto state = std::make_shared<FaultState>();
    channel.arm(*state, k);
    SetStoreOptions options;
    options.buffer_pool_pages = 4;
    options.file_factory = FaultFileFactory(state);

    Status op_status = Status::OK();
    {
      auto store = SetStore::Open(path, options);
      if (store.ok()) {
        SetStore& s = **store;
        if (op == TreeOpKind::kBuild) {
          op_status = s.PutIndexed("tree2", TreeSeedValue());
        } else {
          for (const Membership& m : mutations) {
            op_status = op == TreeOpKind::kInsertSplit ? s.InsertMember("tree", m)
                                                       : s.EraseMember("tree", m);
            if (!op_status.ok()) break;
          }
        }
        // Resident contract: whatever the store still serves is a valid
        // prefix state (reads may fail under the dead device, never lie).
        Result<XSet> got = s.Get("tree");
        if (got.ok()) {
          EXPECT_TRUE(IsOneOf(*got, valid)) << "resident tree is no prefix state";
        }
      } else {
        op_status = store.status();
      }
    }

    const bool fired = state->triggered;
    auto clean = SetStore::Open(path, SetStoreOptions{.buffer_pool_pages = 4});
    if (!clean.ok()) {
      // Unopenable is fine, but only detectably.
      EXPECT_TRUE(clean.status().IsCorruption()) << clean.status().ToString();
    } else {
      // Reopened fault-free: the tree must validate or fail detectably.
      Status scrub = (*clean)->Scrub().status();
      EXPECT_TRUE(scrub.ok() || scrub.IsCorruption()) << scrub.ToString();
      Result<XSet> got = (*clean)->Get("tree");
      if (got.ok()) {
        EXPECT_TRUE(IsOneOf(*got, valid)) << "reopened tree is no prefix state";
        if (op_status.ok() && op != TreeOpKind::kBuild) {
          // Reported success is durable: the full mutation list applied.
          EXPECT_EQ(*got, valid.back());
        }
      } else {
        EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
      }
      if (op == TreeOpKind::kBuild && op_status.ok()) {
        Result<XSet> built = (*clean)->Get("tree2");
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        EXPECT_EQ(*built, TreeSeedValue());
      }
    }

    if (!fired) break;
  }
}

void SweepTreeOp(TreeOpKind op, const std::string& tag) {
  const std::string path = TestPath(tag);
  for (const Channel& channel : kChannels) {
    SweepTreeOpChannel(op, channel, path);
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(FaultInjection, TreeBuild) { SweepTreeOp(TreeOpKind::kBuild, "tree_build"); }

TEST(FaultInjection, TreeInsertSplit) {
  SweepTreeOp(TreeOpKind::kInsertSplit, "tree_insert");
}

TEST(FaultInjection, TreeEraseMerge) {
  SweepTreeOp(TreeOpKind::kEraseMerge, "tree_erase");
}

TEST(FaultInjection, PutBatch) { SweepOp(OpKind::kPutBatch, "putbatch"); }

TEST(FaultInjection, Delete) { SweepOp(OpKind::kDelete, "delete"); }

TEST(FaultInjection, Compact) { SweepOp(OpKind::kCompact, "compact"); }

TEST(FaultInjection, Open) { SweepOp(OpKind::kOpen, "open"); }

}  // namespace
}  // namespace xst
