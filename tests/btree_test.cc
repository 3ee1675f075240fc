// B+tree structural invariants: bulk load, split/merge/underflow under
// random mutation, element-range reads (decoded across the thread pool when
// large), overflow entries, and corruption detection by ValidateBTree and
// by reads.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/order.h"
#include "src/obs/metrics.h"
#include "src/ops/span_kernels.h"
#include "src/store/btree.h"
#include "src/store/codec.h"
#include "src/store/pager.h"
#include "tests/testing.h"

namespace xst {
namespace {

using testing::X;

// A unique temp store path per test, its files removed on destruction.
class TempFile : public testing::ScopedStorePath {
 public:
  explicit TempFile(const std::string& tag)
      : ScopedStorePath(::testing::TempDir() + "xst_btree_test_" + tag + "_" +
                        std::to_string(::getpid())) {}
};

// Opens a pager over its log, with a log transaction open, and burns page
// 0, mirroring the SetStore layout the tree lives under (overflow
// references treat page 0 as invalid).
testing::LoggedPager OpenPager(const std::string& path, size_t capacity = 64) {
  Result<testing::LoggedPager> logged = testing::OpenLoggedPager(path, capacity);
  EXPECT_TRUE(logged.ok()) << logged.status().ToString();
  Result<uint32_t> page0 = logged->pager->AllocatePage();
  EXPECT_TRUE(page0.ok());
  return std::move(*logged);
}

// n members ⟨Int(i), Int(i mod 7)⟩ — small entries, ascending, canonical.
std::vector<Membership> SmallMembers(int n) {
  std::vector<Membership> members;
  members.reserve(n);
  for (int i = 0; i < n; ++i) {
    members.push_back(Membership{XSet::Int(i), XSet::Int(i % 7)});
  }
  return members;
}

// n members with ~`pad`-byte string elements so a leaf holds only a handful
// of entries — deep trees without huge cardinalities. Zero-padded numeric
// suffixes keep lexicographic order equal to numeric order.
std::vector<Membership> FatMembers(int n, size_t pad = 700) {
  std::vector<Membership> members;
  members.reserve(n);
  for (int i = 0; i < n; ++i) {
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, "%06d", i);
    members.push_back(
        Membership{XSet::String(std::string(pad, 'x') + suffix), XSet::Int(0)});
  }
  return members;
}

// ReadRange over [*lo, *hi] (null bounds are open), expected to succeed.
std::vector<Membership> Read(const BTree& tree, const XSet* lo = nullptr,
                             const XSet* hi = nullptr) {
  std::vector<Membership> out;
  Status read = tree.ReadRange(lo, hi, &out);
  EXPECT_TRUE(read.ok()) << read.ToString();
  return out;
}

// One leaf of a tree, as its page says: the page id and its entry count.
struct LeafPage {
  uint32_t page = kInvalidPageId;
  size_t entries = 0;
};

// The tree's leaves in chain order, read off the pages in the node format
// of store/btree.h: down the leftmost spine (an internal node's entry
// record 1 starts with varint(child)), then along each leaf header's
// varint(next + 1).
std::vector<LeafPage> LeafChain(Pager& pager, const BTreeInfo& info) {
  std::vector<LeafPage> leaves;
  Page page;
  uint32_t id = info.root;
  for (uint32_t level = 1; level < info.height; ++level) {
    EXPECT_TRUE(pager.ReadPageSnapshot(id, &page).ok());
    Result<std::string_view> first = page.GetRecord(1);
    size_t offset = 0;
    uint64_t child = 0;
    EXPECT_TRUE(first.ok() && GetVarint(*first, &offset, &child));
    id = static_cast<uint32_t>(child);
  }
  while (id != kInvalidPageId && leaves.size() <= pager.page_count()) {
    EXPECT_TRUE(pager.ReadPageSnapshot(id, &page).ok());
    Result<std::string_view> header = page.GetRecord(0);
    size_t offset = 1;
    uint64_t next_plus_1 = 0;
    EXPECT_TRUE(header.ok() && (*header)[0] == '\0' &&
                GetVarint(*header, &offset, &next_plus_1));
    leaves.push_back(LeafPage{id, page.slot_count() - size_t{1}});
    id = next_plus_1 == 0 ? kInvalidPageId : static_cast<uint32_t>(next_plus_1 - 1);
  }
  return leaves;
}

void ExpectSameMembers(const std::vector<Membership>& got,
                       const std::vector<Membership>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(CompareMembership(got[i], want[i]), 0) << "at index " << i;
  }
}

TEST(BTreeBuild, EmptyTreeIsASingleLeaf) {
  TempFile file("empty");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  Result<BTreeInfo> info = BTree::Build(*pager, {});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->height, 1u);
  EXPECT_EQ(info->member_count, 0u);
  BTree tree(pager.get(), *info);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_TRUE(Read(tree).empty());
}

TEST(BTreeBuild, BulkLoadRoundTripsAndValidates) {
  TempFile file("bulk");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members = SmallMembers(3000);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->member_count, members.size());
  EXPECT_GE(info->height, 2u);  // 3000 small entries overflow one leaf
  BTree tree(pager.get(), *info);
  Status valid = tree.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectSameMembers(Read(tree), members);
}

TEST(BTreeBuild, DeepTreeWithFatEntries) {
  TempFile file("deep");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members = FatMembers(400);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GE(info->height, 3u);  // ~11 fat entries per node forces depth
  BTree tree(pager.get(), *info);
  Status valid = tree.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectSameMembers(Read(tree), members);
}

TEST(BTreeInsert, SplitsPreserveInvariantsAndOrder) {
  TempFile file("insert");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  Result<BTreeInfo> empty = BTree::Build(*pager, {});
  ASSERT_TRUE(empty.ok());
  BTree tree(pager.get(), *empty);

  std::vector<Membership> members = FatMembers(300);
  std::vector<size_t> order(members.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t step = 0; step < order.size(); ++step) {
    Result<bool> inserted = tree.Insert(members[order[step]]);
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    EXPECT_TRUE(*inserted);
    if (step % 37 == 0) {
      Status valid = tree.Validate();
      ASSERT_TRUE(valid.ok()) << "after " << step << ": " << valid.ToString();
    }
  }
  EXPECT_EQ(tree.info().member_count, members.size());
  EXPECT_GE(tree.info().height, 3u);
  Status valid = tree.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectSameMembers(Read(tree), members);

  // Re-inserting is a no-op that reports false.
  Result<bool> dup = tree.Insert(members[42]);
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(*dup);
  EXPECT_EQ(tree.info().member_count, members.size());
  EXPECT_TRUE(tree.Validate().ok());

  // Point lookups.
  for (size_t i = 0; i < members.size(); i += 29) {
    Result<bool> has = tree.Contains(members[i]);
    ASSERT_TRUE(has.ok());
    EXPECT_TRUE(*has);
  }
  Result<bool> absent = tree.Contains(Membership{X("absent"), X("0")});
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
}

TEST(BTreeErase, MergeAndUnderflowRepairDownToEmpty) {
  TempFile file("erase");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members = FatMembers(300);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok());
  BTree tree(pager.get(), *info);
  ASSERT_GE(tree.info().height, 3u);

  std::vector<size_t> order(members.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(11);
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t step = 0; step < order.size(); ++step) {
    Result<bool> erased = tree.Erase(members[order[step]]);
    ASSERT_TRUE(erased.ok()) << erased.status().ToString();
    EXPECT_TRUE(*erased);
    if (step % 23 == 0) {
      Status valid = tree.Validate();
      ASSERT_TRUE(valid.ok()) << "after " << step << ": " << valid.ToString();
    }
  }
  EXPECT_EQ(tree.info().member_count, 0u);
  EXPECT_EQ(tree.info().height, 1u);  // the root collapsed back to a leaf
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_TRUE(Read(tree).empty());

  // Erasing from the empty tree reports false.
  Result<bool> gone = tree.Erase(members[0]);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(*gone);
}

TEST(BTreeFuzz, RandomMutationsAgainstReferenceSet) {
  TempFile file("fuzz");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  Result<BTreeInfo> empty = BTree::Build(*pager, {});
  ASSERT_TRUE(empty.ok());
  BTree tree(pager.get(), *empty);

  auto less = [](const Membership& a, const Membership& b) {
    return CompareMembership(a, b) < 0;
  };
  std::set<Membership, decltype(less)> reference(less);
  std::vector<Membership> universe = FatMembers(120, 400);
  std::mt19937_64 rng(1977);
  for (int step = 0; step < 1200; ++step) {
    const Membership& m = universe[rng() % universe.size()];
    if (rng() % 2 == 0) {
      Result<bool> inserted = tree.Insert(m);
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
      EXPECT_EQ(*inserted, reference.insert(m).second);
    } else {
      Result<bool> erased = tree.Erase(m);
      ASSERT_TRUE(erased.ok()) << erased.status().ToString();
      EXPECT_EQ(*erased, reference.erase(m) > 0);
    }
    if (step % 97 == 0) {
      Status valid = tree.Validate();
      ASSERT_TRUE(valid.ok()) << "after " << step << ": " << valid.ToString();
    }
  }
  EXPECT_EQ(tree.info().member_count, reference.size());
  ASSERT_TRUE(tree.Validate().ok());
  std::vector<Membership> want(reference.begin(), reference.end());
  ExpectSameMembers(Read(tree), want);
}

TEST(BTreeRange, ReadRangeReadsExactlyTheInterval) {
  TempFile file("range");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members = SmallMembers(20000);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok());
  BTree tree(pager.get(), *info);
  ASSERT_GE(tree.info().height, 2u);
  ASSERT_GT(pager->page_count(), 20u);

  const XSet lo = XSet::Int(700), hi = XSet::Int(731);
  std::vector<Membership> got = Read(tree, &lo, &hi);
  ASSERT_EQ(got.size(), 32u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].element.int_value(), 700 + static_cast<int64_t>(i));
  }

  // Range scans touch the descent path plus the in-range leaves only.
  testing::PagerCounters counters;
  got = Read(tree, &lo, &hi);
  EXPECT_EQ(got.size(), 32u);
  EXPECT_LE(counters.hits() + counters.misses(),
            static_cast<uint64_t>(tree.info().height) + 3)
      << "a narrow range scan touches the descent path plus in-range leaves, "
         "not the whole tree (" << pager->page_count() << " pages)";

  // An empty interval (lo > hi) reads nothing.
  const XSet above = XSet::Int(100), below = XSet::Int(99);
  EXPECT_TRUE(Read(tree, &above, &below).empty());
}

// A read of more than one grain decodes across the pool: the whole tree,
// and intervals that start and end mid-leaf, each equal to the canonical
// list a serial walk gives. A short range decodes inline on the caller.
TEST(BTreeRange, LargeReadsDecodeAcrossThePoolInMemberOrder) {
  TempFile file("parallel");
  testing::LoggedPager logged = OpenPager(file.path(), 256);
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members;
  for (int i = 0; i < 24000; ++i) {
    members.push_back(
        Membership{XSet::Pair(XSet::Int(i / 3), XSet::Int(i)), XSet::Int(i % 5)});
  }
  std::sort(members.begin(), members.end(), [](const Membership& a, const Membership& b) {
    return CompareMembership(a, b) < 0;
  });
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  BTree tree(pager.get(), *info);
  const std::vector<LeafPage> leaves = LeafChain(*pager, *info);
  ASSERT_GE(leaves.size(), 8u);

  // The member index at the middle of leaf k.
  auto mid_leaf = [&](size_t k) {
    size_t index = leaves[k].entries / 2;
    for (size_t j = 0; j < k; ++j) index += leaves[j].entries;
    return index;
  };
  // The expected read: every member whose element lies in [lo, hi].
  auto want = [&](const XSet* lo, const XSet* hi) {
    std::vector<Membership> expect;
    for (const Membership& m : members) {
      if ((lo == nullptr || Compare(m.element, *lo) >= 0) &&
          (hi == nullptr || Compare(m.element, *hi) <= 0)) {
        expect.push_back(m);
      }
    }
    return expect;
  };
  const XSet lo = members[mid_leaf(1)].element;
  const XSet hi = members[mid_leaf(leaves.size() - 2)].element;
  ASSERT_GE(want(&lo, &hi).size(), 3 * kSpanGrain);

  obs::Counter& worker_chunks = obs::MetricsRegistry::Global().GetCounter("pool.chunks.worker");
  const uint64_t before = worker_chunks.value();
  {
    SCOPED_TRACE("whole tree");
    ExpectSameMembers(Read(tree), members);
    if (ThreadPool::Global().size() > 0) {
      // Workers pick up chunks as soon as they wake; a loaded host may let
      // the caller finish a read alone, so give them a few more reads.
      for (int retry = 0; retry < 20 && worker_chunks.value() == before; ++retry) {
        ExpectSameMembers(Read(tree), members);
      }
      EXPECT_GT(worker_chunks.value(), before) << "a whole read never reached a worker";
    }
  }
  {
    SCOPED_TRACE("from mid-leaf");
    ExpectSameMembers(Read(tree, &lo, nullptr), want(&lo, nullptr));
  }
  {
    SCOPED_TRACE("to mid-leaf");
    ExpectSameMembers(Read(tree, nullptr, &hi), want(nullptr, &hi));
  }
  {
    SCOPED_TRACE("both bounds");
    ExpectSameMembers(Read(tree, &lo, &hi), want(&lo, &hi));
  }

  // A 64-member range stays on the caller.
  const XSet short_lo = members[mid_leaf(3)].element;
  const XSet short_hi = members[mid_leaf(3) + 63].element;
  ASSERT_EQ(want(&short_lo, &short_hi).size(), 64u);
  const uint64_t short_before = worker_chunks.value();
  ExpectSameMembers(Read(tree, &short_lo, &short_hi), want(&short_lo, &short_hi));
  EXPECT_EQ(worker_chunks.value(), short_before);
}

// An undecodable entry in a late leaf, past every chunk the caller decodes
// first, fails the read: Corruption, never OK with fewer members. A range
// that stops before it is unaffected.
TEST(BTreeRange, AnUndecodableLateEntryFailsTheRead) {
  TempFile file("late_corrupt");
  testing::LoggedPager logged = OpenPager(file.path(), 256);
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members = SmallMembers(20000);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok());
  BTree tree(pager.get(), *info);
  const std::vector<LeafPage> leaves = LeafChain(*pager, *info);
  ASSERT_GE(leaves.size(), 8u);

  // Rewrite the leaf three from the end with its middle entry replaced by
  // a tag the codec does not know.
  const LeafPage& victim = leaves[leaves.size() - 3];
  size_t first_member = 0;
  for (const LeafPage& leaf : leaves) {
    if (leaf.page == victim.page) break;
    first_member += leaf.entries;
  }
  const size_t bad_slot = victim.entries / 2 + 1;  // record 0 is the header
  {
    Page original;
    ASSERT_TRUE(pager->ReadPageSnapshot(victim.page, &original).ok());
    Page tampered;
    for (uint32_t slot = 0; slot < original.slot_count(); ++slot) {
      Result<std::string_view> record = original.GetRecord(slot);
      ASSERT_TRUE(record.ok());
      ASSERT_TRUE(tampered.AddRecord(slot == bad_slot ? std::string_view("\x7f\x7f")
                                                      : *record)
                      .ok());
    }
    ASSERT_TRUE(pager->WritePage(victim.page, std::move(tampered)).ok());
  }

  std::vector<Membership> out;
  Status whole = tree.ReadRange(nullptr, nullptr, &out);
  EXPECT_TRUE(whole.IsCorruption()) << whole.ToString();
  const XSet lo = XSet::Int(5);
  out.clear();
  Status from = tree.ReadRange(&lo, nullptr, &out);
  EXPECT_TRUE(from.IsCorruption()) << from.ToString();

  // A bound that an intact entry before the bad one passes stops the read
  // there, so the bad entry is never compared or decoded.
  const size_t bad_member = first_member + bad_slot - 1;
  const XSet hi = members[bad_member - 2].element;
  out.clear();
  Status before_bad = tree.ReadRange(nullptr, &hi, &out);
  ASSERT_TRUE(before_bad.ok()) << before_bad.ToString();
  EXPECT_EQ(out.size(), bad_member - 1);
}

TEST(BTreeOverflow, EntriesBeyondInlineLimitSpillAndRoundTrip) {
  TempFile file("overflow");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  // Elements well past kMaxInlineEntry (and past one page for the largest).
  std::vector<Membership> members;
  for (int i = 0; i < 6; ++i) {
    char tag = static_cast<char>('a' + i);
    members.push_back(Membership{
        XSet::String(std::string(2000 + 3000 * i, tag)), XSet::Int(i)});
  }
  std::sort(members.begin(), members.end(), [](const Membership& a, const Membership& b) {
    return CompareMembership(a, b) < 0;
  });
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  BTree tree(pager.get(), *info);
  Status valid = tree.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectSameMembers(Read(tree), members);

  // Mutations on overflow entries keep the tree valid.
  Membership extra{XSet::String(std::string(5000, 'z')), XSet::Int(9)};
  Result<bool> inserted = tree.Insert(extra);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_TRUE(*inserted);
  ASSERT_TRUE(tree.Validate().ok());
  Result<bool> has = tree.Contains(extra);
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  Result<bool> erased = tree.Erase(members[2]);
  ASSERT_TRUE(erased.ok()) << erased.status().ToString();
  EXPECT_TRUE(*erased);
  Status valid2 = tree.Validate();
  ASSERT_TRUE(valid2.ok()) << valid2.ToString();
  EXPECT_EQ(tree.info().member_count, members.size());
}

TEST(BTreeOverflow, SearchesThroughOverflowKeysMatchAModel) {
  // Every membership encodes past kMaxInlineEntry, so every leaf entry and
  // every internal key is an overflow reference: each search step resolves
  // a chain before it compares. Elements are the even-numbered strings of
  // a 1,100-byte common prefix with scopes 0..6 each, so odd numbers and
  // scopes -1 and 7 are absent neighbours, and an element's run of seven
  // memberships can straddle a leaf boundary.
  TempFile file("overflow_search");
  testing::LoggedPager logged = OpenPager(file.path(), 256);
  const std::unique_ptr<Pager>& pager = logged.pager;
  auto element = [](int k) {
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, "%06d", k);
    return XSet::String(std::string(1100, 'p') + suffix);
  };
  auto less = [](const Membership& a, const Membership& b) {
    return CompareMembership(a, b) < 0;
  };
  std::set<Membership, decltype(less)> model(less);
  for (int k = 0; k < 200; k += 2) {
    for (int64_t scope = 0; scope < 7; ++scope) {
      model.insert(Membership{element(k), XSet::Int(scope)});
    }
  }
  std::vector<Membership> members(model.begin(), model.end());
  ASSERT_EQ(members.size(), 700u);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  BTree tree(pager.get(), *info);
  ASSERT_GE(tree.info().height, 2u);
  ASSERT_TRUE(tree.Validate().ok());

  auto contains = [&](const Membership& m) {
    Result<bool> has = tree.Contains(m);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    return has.ok() && *has;
  };
  for (int k = -1; k <= 200; ++k) {
    for (int64_t scope = -1; scope <= 7; ++scope) {
      Membership probe{element(k), XSet::Int(scope)};
      ASSERT_EQ(contains(probe), model.count(probe) > 0)
          << "k=" << k << " scope=" << scope;
    }
  }

  // Streams the element interval [element(lo), element(hi)] and checks it
  // against the model.
  auto range = [&](int lo, int hi) {
    const XSet lo_element = element(lo);
    const XSet hi_element = element(hi);
    std::vector<Membership> got = Read(tree, &lo_element, &hi_element);
    std::vector<Membership> want;
    for (const Membership& m : model) {
      if (Compare(m.element, element(lo)) >= 0 && Compare(m.element, hi_element) <= 0) {
        want.push_back(m);
      }
    }
    SCOPED_TRACE("range [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    ExpectSameMembers(got, want);
  };
  // A seek whose element's run begins in the previous leaf must descend
  // left of the internal key that carries that element.
  const std::vector<Membership> all = Read(tree);
  int split_runs = 0;
  size_t boundary = 0;
  for (const LeafPage& leaf : LeafChain(*pager, tree.info())) {
    if (boundary > 0 && boundary < all.size() &&
        Compare(all[boundary - 1].element, all[boundary].element) == 0) {
      ++split_runs;
      const std::string& text = all[boundary].element.str_value();
      const int k = std::stoi(text.substr(text.size() - 6));
      range(k, k);
      range(k - 1, k + 1);
    }
    boundary += leaf.entries;
  }
  ASSERT_GT(split_runs, 0) << "no element run straddles a leaf boundary";

  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const int lo = static_cast<int>(rng() % 203) - 1;
    range(lo, lo + static_cast<int>(rng() % 40) - 4);
  }

  for (int step = 0; step < 40; ++step) {
    Membership m{element(static_cast<int>(rng() % 202)),
                 XSet::Int(static_cast<int64_t>(rng() % 9) - 1)};
    if (step % 2 == 0) {
      Result<bool> inserted = tree.Insert(m);
      ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
      EXPECT_EQ(*inserted, model.insert(m).second);
    } else {
      Result<bool> erased = tree.Erase(m);
      ASSERT_TRUE(erased.ok()) << erased.status().ToString();
      EXPECT_EQ(*erased, model.erase(m) > 0);
    }
    Status valid = tree.Validate();
    ASSERT_TRUE(valid.ok()) << "after step " << step << ": " << valid.ToString();
    EXPECT_EQ(contains(m), model.count(m) > 0);
  }
  for (int trial = 0; trial < 20; ++trial) {
    const int lo = static_cast<int>(rng() % 203) - 1;
    range(lo, lo + static_cast<int>(rng() % 20));
  }
  ExpectSameMembers(Read(tree), std::vector<Membership>(model.begin(), model.end()));
}

TEST(BTreeValidate, DetectsTamperedNodesAndWrongCounts) {
  TempFile file("detect");
  testing::LoggedPager logged = OpenPager(file.path());
  const std::unique_ptr<Pager>& pager = logged.pager;
  std::vector<Membership> members = SmallMembers(2000);
  Result<BTreeInfo> info = BTree::Build(*pager, members);
  ASSERT_TRUE(info.ok());
  BTree tree(pager.get(), *info);
  ASSERT_TRUE(tree.Validate().ok());

  // A wrong catalog cardinality is Corruption.
  BTreeInfo wrong_count = *info;
  wrong_count.member_count += 1;
  EXPECT_TRUE(ValidateBTree(*pager, wrong_count).IsCorruption());

  // A wrong height breaks the uniform-depth check.
  BTreeInfo wrong_height = *info;
  wrong_height.height += 1;
  EXPECT_TRUE(ValidateBTree(*pager, wrong_height).IsCorruption());

  // Rewriting a leaf as an internal node is caught structurally.
  const std::vector<LeafPage> leaves = LeafChain(*pager, *info);
  ASSERT_FALSE(leaves.empty());
  {
    Page internal_node;
    ASSERT_TRUE(internal_node.AddRecord(std::string(1, '\x01')).ok());
    ASSERT_TRUE(pager->WritePage(leaves.front().page, std::move(internal_node)).ok());
  }
  EXPECT_TRUE(ValidateBTree(*pager, *info).IsCorruption());
}

}  // namespace
}  // namespace xst
