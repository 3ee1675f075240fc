// B+tree structural invariants: bulk load, split/merge/underflow under
// random mutation, element-range seeks, overflow entries, and corruption
// detection by ValidateBTree.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/core/order.h"
#include "src/store/btree.h"
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

std::vector<Membership> Drain(const BTree& tree) {
  Result<BTreeCursorPos> pos = tree.SeekFirst();
  EXPECT_TRUE(pos.ok()) << pos.status().ToString();
  std::vector<Membership> out;
  for (;;) {
    Result<bool> more = tree.ReadLeafBatch(&*pos, nullptr, &out);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
  }
  return out;
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
  EXPECT_TRUE(Drain(tree).empty());
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
  ExpectSameMembers(Drain(tree), members);
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
  ExpectSameMembers(Drain(tree), members);
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
  ExpectSameMembers(Drain(tree), members);

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
  EXPECT_TRUE(Drain(tree).empty());

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
  ExpectSameMembers(Drain(tree), want);
}

TEST(BTreeRange, SeekElementStreamsExactlyTheInterval) {
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
  Result<BTreeCursorPos> pos = tree.SeekElement(lo);
  ASSERT_TRUE(pos.ok()) << pos.status().ToString();
  std::vector<Membership> got;
  for (;;) {
    Result<bool> more = tree.ReadLeafBatch(&*pos, &hi, &got);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
  }
  ASSERT_EQ(got.size(), 32u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].element.int_value(), 700 + static_cast<int64_t>(i));
  }

  // Range scans touch the descent path plus the in-range leaves only.
  testing::PagerCounters counters;
  pos = tree.SeekElement(lo);
  ASSERT_TRUE(pos.ok());
  got.clear();
  for (;;) {
    Result<bool> more = tree.ReadLeafBatch(&*pos, &hi, &got);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  EXPECT_LE(counters.hits() + counters.misses(),
            static_cast<uint64_t>(tree.info().height) + 3)
      << "a narrow range scan touches the descent path plus in-range leaves, "
         "not the whole tree (" << pager->page_count() << " pages)";

  // An empty interval (lo > hi) streams nothing.
  pos = tree.SeekElement(XSet::Int(100));
  ASSERT_TRUE(pos.ok());
  got.clear();
  const XSet below = XSet::Int(99);
  for (;;) {
    Result<bool> more = tree.ReadLeafBatch(&*pos, &below, &got);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  EXPECT_TRUE(got.empty());
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
  ExpectSameMembers(Drain(tree), members);

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
    Result<BTreeCursorPos> pos = tree.SeekElement(element(lo));
    ASSERT_TRUE(pos.ok()) << pos.status().ToString();
    const XSet hi_element = element(hi);
    std::vector<Membership> got;
    for (;;) {
      Result<bool> more = tree.ReadLeafBatch(&*pos, &hi_element, &got);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
    }
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
  Result<BTreeCursorPos> leaf = tree.SeekFirst();
  ASSERT_TRUE(leaf.ok());
  int split_runs = 0;
  std::vector<Membership> prev;
  for (;;) {
    std::vector<Membership> batch;
    Result<bool> more = tree.ReadLeafBatch(&*leaf, nullptr, &batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    if (!prev.empty() && !batch.empty() &&
        Compare(prev.back().element, batch.front().element) == 0) {
      ++split_runs;
      const std::string& text = batch.front().element.str_value();
      const int k = std::stoi(text.substr(text.size() - 6));
      range(k, k);
      range(k - 1, k + 1);
    }
    prev = std::move(batch);
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
  ExpectSameMembers(Drain(tree), std::vector<Membership>(model.begin(), model.end()));
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
  Result<BTreeCursorPos> pos = tree.SeekFirst();
  ASSERT_TRUE(pos.ok());
  {
    Page internal_node;
    ASSERT_TRUE(internal_node.AddRecord(std::string(1, '\x01')).ok());
    ASSERT_TRUE(pager->WritePage(pos->leaf, std::move(internal_node)).ok());
  }
  EXPECT_TRUE(ValidateBTree(*pager, *info).IsCorruption());
}

}  // namespace
}  // namespace xst
