// The hash-consing arena: its size gauges move only when a value is
// interned for the first time, concurrent interning through repeated table
// growth keeps exactly one node per value, statistics that agree with the
// node snapshot, and a coherent arena, and lock-free hits racing that
// growth return the node each value already had. CI also runs this under
// TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/interner.h"
#include "src/core/validate.h"
#include "src/obs/metrics.h"

namespace xst {
namespace {

int64_t Gauge(const char* name) { return obs::MetricsRegistry::Global().GetGauge(name).value(); }

uint64_t NodeCount(const InternerStats& stats) { return stats.atom_count + stats.set_count; }

TEST(InternerGauges, FreshValueMovesBothAndSeenValueNeither) {
  const Interner& arena = Interner::Global();  // gauges its startup atoms once built
  const int64_t nodes0 = Gauge(internal::kInternerNodesGauge);
  const int64_t bytes0 = Gauge(internal::kInternerBytesGauge);
  // Three fresh nodes: the int, the symbol and the pair over them.
  XSet fresh = XSet::Pair(XSet::Int(7000000001), XSet::Symbol("interner_gauge_probe"));
  EXPECT_EQ(Gauge(internal::kInternerNodesGauge), nodes0 + 3);
  const int64_t bytes1 = Gauge(internal::kInternerBytesGauge);
  EXPECT_GE(bytes1, bytes0 + 3 * static_cast<int64_t>(sizeof(internal::Node)));

  XSet seen = XSet::Pair(XSet::Int(7000000001), XSet::Symbol("interner_gauge_probe"));
  EXPECT_EQ(seen, fresh);
  EXPECT_EQ(Gauge(internal::kInternerNodesGauge), nodes0 + 3);
  EXPECT_EQ(Gauge(internal::kInternerBytesGauge), bytes1);
  // The gauge is a level of the whole arena, startup atoms included.
  EXPECT_EQ(static_cast<uint64_t>(Gauge(internal::kInternerNodesGauge)),
            NodeCount(arena.GetStats()));
}

// Eight threads intern overlapping ranges of large ints and of pairs over
// them: 2 * 54,000 distinct nodes, enough to double every shard's table
// several times. Meanwhile two more threads look up values interned before
// the race, which must stay findable while the tables under them grow.
TEST(InternerStress, ConcurrentGrowthKeepsOneNodePerValue) {
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 12000;  // each range overlaps the next by half
  constexpr int64_t kBase = 3000000000;
  const Interner& arena = Interner::Global();
  std::vector<XSet> anchors;  // below every racing range
  for (int64_t i = 1; i <= 256; ++i) {
    anchors.push_back(XSet::Pair(XSet::Int(kBase - i), XSet::Int(-kBase - i)));
  }
  const InternerStats before = arena.GetStats();
  std::atomic<bool> done{false};
  std::atomic<int> lost_anchors{0};
  std::vector<std::thread> probers;
  for (int p = 0; p < 2; ++p) {
    probers.emplace_back([&] {
      while (!done.load()) {
        for (const XSet& pair : anchors) {
          const internal::Node* first = pair.members()[0].element.node();
          if (arena.Find(*first) != first || arena.Find(*pair.node()) != pair.node()) {
            lost_anchors.fetch_add(1);
          }
        }
      }
    });
  }

  std::vector<std::vector<const internal::Node*>> ints(kThreads);
  std::vector<std::vector<const internal::Node*>> pairs(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const int64_t lo = kBase + t * kPerThread / 2;
      for (int64_t v = lo; v < lo + kPerThread; ++v) {
        XSet atom = XSet::Int(v);
        ints[t].push_back(atom.node());
        pairs[t].push_back(XSet::Pair(atom, XSet::Int(v + 1)).node());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true);
  for (std::thread& p : probers) p.join();
  EXPECT_EQ(lost_anchors.load(), 0);

  // Every thread that interned a value holds the one node the arena has for
  // it now.
  for (int t = 0; t < kThreads; ++t) {
    const int64_t lo = kBase + t * kPerThread / 2;
    for (int64_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(ints[t][i], XSet::Int(lo + i).node()) << "thread " << t << " value " << lo + i;
      ASSERT_EQ(pairs[t][i], XSet::Pair(XSet::Int(lo + i), XSet::Int(lo + i + 1)).node())
          << "thread " << t << " pair " << lo + i;
    }
  }

  const InternerStats stats = arena.GetStats();
  InternerStats snapshot;
  for (const internal::Node* n : arena.SnapshotNodes()) {
    if (n->kind == NodeKind::kSet) {
      ++snapshot.set_count;
      snapshot.membership_count += n->members.size();
    } else {
      ++snapshot.atom_count;
    }
  }
  EXPECT_EQ(stats.atom_count, snapshot.atom_count);
  EXPECT_EQ(stats.set_count, snapshot.set_count);
  EXPECT_EQ(stats.membership_count, snapshot.membership_count);
  const uint64_t distinct = (kThreads + 1) * kPerThread / 2;
  EXPECT_EQ(stats.atom_count - before.atom_count, distinct + 1);  // + the last pair's v + 1
  EXPECT_EQ(stats.set_count - before.set_count, distinct);
  EXPECT_EQ(static_cast<uint64_t>(Gauge(internal::kInternerNodesGauge)), NodeCount(stats));
  EXPECT_TRUE(ValidateInterner().ok());
}

// Hits take no lock. Four threads re-intern values interned before the race
// (large ints and pairs over them, as a stored read's decode does) while
// four more intern fresh values, enough to double every shard's table
// several times under the hits. Every hit must return the node the value
// had before the race.
TEST(InternerStress, LockFreeHitsReturnThePreRaceNodeWhileTablesGrow) {
  constexpr int64_t kSeen = 4096;
  constexpr int64_t kSeenBase = 5000000000;
  constexpr int kHitters = 4;
  constexpr int kGrowers = 4;
  constexpr int64_t kFreshPerGrower = 20000;
  constexpr int64_t kFreshBase = 6000000000;
  std::vector<const internal::Node*> seen_ints;
  std::vector<const internal::Node*> seen_pairs;
  for (int64_t i = 0; i < kSeen; ++i) {
    seen_ints.push_back(XSet::Int(kSeenBase + i).node());
    seen_pairs.push_back(XSet::Pair(XSet::Int(kSeenBase + i), XSet::Int(-kSeenBase - i)).node());
  }

  std::atomic<int> growers_left{kGrowers};
  std::atomic<int64_t> wrong{0};
  std::atomic<int64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kHitters; ++t) {
    threads.emplace_back([&, t] {
      // At least one pass, and keep going until every grower is done.
      do {
        for (int64_t j = 0; j < kSeen; ++j) {
          const int64_t i = (j * 7 + t * 1024) % kSeen;  // threads start apart
          if (XSet::Int(kSeenBase + i).node() != seen_ints[i] ||
              XSet::Pair(XSet::Int(kSeenBase + i), XSet::Int(-kSeenBase - i)).node() !=
                  seen_pairs[i]) {
            wrong.fetch_add(1);
          }
        }
        hits.fetch_add(kSeen);
      } while (growers_left.load() > 0);
    });
  }
  for (int g = 0; g < kGrowers; ++g) {
    threads.emplace_back([&, g] {
      const int64_t lo = kFreshBase + g * kFreshPerGrower;
      for (int64_t v = lo; v < lo + kFreshPerGrower; ++v) {
        XSet::Pair(XSet::Int(v), XSet::Int(v + 1));
      }
      growers_left.fetch_sub(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(hits.load(), kHitters * kSeen);
  EXPECT_TRUE(ValidateInterner().ok());
}

}  // namespace
}  // namespace xst
