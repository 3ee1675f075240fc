#include "src/ops/rescope.h"

#include <algorithm>
#include <cstdlib>
#include <span>

#include "src/common/check.h"
#include "src/common/sync.h"
#include "src/common/hash.h"
#include "src/core/order.h"
#include "src/obs/metrics.h"

namespace xst {

namespace {

// Memo cache for RescopeByScope. Interned nodes are immutable and immortal,
// so a ⟨A, σ⟩ → result entry can never go stale; pointer identity of the key
// pair is structural identity of the operands.
//
// The cache is deliberately LOSSY: a fixed-size, 2-way set-associative array
// (like a hardware cache), not a growing hash map. Bulk operators stream
// millions of distinct one-shot keys through rescoping; a map would pay an
// allocation plus rehashing per miss and grow without bound, which measured
// ~2× slower than no cache at all on unique-key joins. A fixed array caps
// the miss cost at one indexed probe and one overwrite, keeps memory at a
// few MB forever, and still captures the hot recurring operands (spec
// tuples, shared key values) that dominate real workloads. Sharded like the
// interner so parallel kernels don't serialize on one mutex.
struct MemoSlot {
  const internal::Node* a = nullptr;
  const internal::Node* sigma = nullptr;
  const internal::Node* result = nullptr;
};

constexpr size_t kMemoWays = 2;
constexpr size_t kMemoSetsPerShard = size_t{1} << 12;
constexpr size_t kMemoShards = 16;  // total: 16 × 4096 × 2 slots ≈ 3 MB
constexpr size_t kMemoSlotsPerShard = kMemoSetsPerShard * kMemoWays;

// The slot array comes from calloc: zero-filled pages the OS maps on first
// touch, so the first rescope in a process does not clear all 3 MB up front
// (about 2 ms, which EXPLAIN ANALYZE would charge to whichever instruction
// rescopes first). All-zero bytes are the empty slot.
struct MemoShard {
  MemoShard()
      : slots(static_cast<MemoSlot*>(
            std::calloc(kMemoSlotsPerShard, sizeof(MemoSlot)))) {
    XST_CHECK(slots != nullptr);
  }
  ~MemoShard() { std::free(slots); }
  Mutex memo_mu XST_LOCK_RANK(45);
  MemoSlot* const slots XST_PT_GUARDED_BY(memo_mu);
};

MemoShard* MemoShards() {
  static MemoShard* shards = new MemoShard[kMemoShards];  // leaked with the arena
  return shards;
}

// Registry-backed hit/miss counters (one relaxed RMW per probe, same cost
// as the std::atomic fields they replaced, but visible in DumpMetricsJson
// and resettable for per-query attribution).
obs::Counter& MemoHits() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kRescopeMemoHitsCounter);
  return c;
}

obs::Counter& MemoMisses() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter(internal::kRescopeMemoMissesCounter);
  return c;
}

uint64_t MemoHash(const internal::Node* a, const internal::Node* sigma) {
  return HashCombine(a->hash, sigma->hash);
}

}  // namespace

XSet RescopeByScope(const XSet& a, const XSet& sigma) {
  // Trivial operands produce ∅ and skip the cache: atoms have no
  // memberships, and an empty σ drops everything.
  if (a.cardinality() == 0 || sigma.cardinality() == 0) return XSet::Empty();
  const internal::Node* na = a.node();
  const internal::Node* ns = sigma.node();
  const uint64_t h = MemoHash(na, ns);
  MemoShard& shard = MemoShards()[(h >> 48) & (kMemoShards - 1)];
  const size_t set_base = (h & (kMemoSetsPerShard - 1)) * kMemoWays;
  {
    MutexLock lock(&shard.memo_mu);
    MemoSlot* set = &shard.slots[set_base];
    for (size_t w = 0; w < kMemoWays; ++w) {
      if (set[w].a == na && set[w].sigma == ns) {
        MemoHits().Increment();
        // Keep the hit in way 0 so the colder way is the eviction victim.
        if (w != 0) std::swap(set[0], set[w]);
        return XSet::FromNode(set[0].result);
      }
    }
  }
  MemoMisses().Increment();
  std::vector<Membership> out;
  out.reserve(a.cardinality());
  AppendRescopeByScopeRaw(a, sigma, &out);
  // Validate before the memo stores the node: a bad entry would replay the
  // corruption on every future hit.
  XSet result = XST_VALIDATE(XSet::FromMembers(std::move(out)));
  {
    // Insert into way 1 (the LRU victim); a racing compute of the same key
    // wrote the identical interned node, so lost races are harmless.
    MutexLock lock(&shard.memo_mu);
    shard.slots[set_base + 1] = MemoSlot{na, ns, result.node()};
  }
  return result;
}

void AppendRescopeByScopeRaw(const XSet& a, const XSet& sigma,
                             std::vector<Membership>* out) {
  // x ∈ₛ A contributes x^w for every w with s ∈_w σ, i.e. for every
  // membership of σ whose element equals the old scope s. σ's members are
  // sorted by (element, scope), so the matches for one old scope are a
  // contiguous run found by binary search — no temporary vectors.
  if (a.cardinality() == 0 || sigma.cardinality() == 0) return;
  auto sms = sigma.members();
  for (const Membership& m : a.members()) {
    auto it = std::lower_bound(sms.begin(), sms.end(), m.scope,
                               [](const Membership& sm, const XSet& s) {
                                 return Compare(sm.element, s) < 0;
                               });
    for (; it != sms.end() && it->element == m.scope; ++it) {
      out->push_back(Membership{m.element, it->scope});
    }
  }
}

RescopeCacheStats GetRescopeCacheStats() {
  RescopeCacheStats stats;
  stats.hits = MemoHits().value();
  stats.misses = MemoMisses().value();
  for (size_t i = 0; i < kMemoShards; ++i) {
    MemoShard& shard = MemoShards()[i];
    MutexLock lock(&shard.memo_mu);
    for (const MemoSlot& slot : std::span(shard.slots, kMemoSlotsPerShard)) {
      if (slot.result != nullptr) ++stats.entries;
    }
  }
  return stats;
}

void ResetRescopeCacheStats() {
  MemoHits().Reset();
  MemoMisses().Reset();
}

XSet RescopeByElement(const XSet& a, const XSet& sigma) {
  // x ∈ₛ A contributes x^w for every element w of σ carried under scope s.
  // σ is indexed by scope once up front so the pass over A is a lookup.
  std::vector<Membership> out;
  if (a.cardinality() == 0 || sigma.cardinality() == 0) return XSet::Empty();
  // (scope of σ-membership, its element), sorted by scope for binary search.
  std::vector<std::pair<XSet, XSet>> by_scope;
  by_scope.reserve(sigma.cardinality());
  for (const Membership& m : sigma.members()) {
    by_scope.push_back({m.scope, m.element});
  }
  std::sort(by_scope.begin(), by_scope.end(), [](const auto& p, const auto& q) {
    int c = Compare(p.first, q.first);
    if (c != 0) return c < 0;
    return Compare(p.second, q.second) < 0;
  });
  for (const Membership& m : a.members()) {
    auto it = std::lower_bound(by_scope.begin(), by_scope.end(), m.scope,
                               [](const auto& p, const XSet& s) {
                                 return Compare(p.first, s) < 0;
                               });
    for (; it != by_scope.end() && it->first == m.scope; ++it) {
      out.push_back(Membership{m.element, it->second});
    }
  }
  return XST_VALIDATE(XSet::FromMembers(std::move(out)));
}

namespace internal {

std::vector<RescopeMemoEntry> SnapshotRescopeMemo() {
  std::vector<RescopeMemoEntry> entries;
  for (size_t i = 0; i < kMemoShards; ++i) {
    MemoShard& shard = MemoShards()[i];
    MutexLock lock(&shard.memo_mu);
    for (const MemoSlot& slot : std::span(shard.slots, kMemoSlotsPerShard)) {
      if (slot.result == nullptr) continue;
      entries.push_back(RescopeMemoEntry{XSet::FromNode(slot.a), XSet::FromNode(slot.sigma),
                                         XSet::FromNode(slot.result)});
    }
  }
  return entries;
}

bool PoisonRescopeMemoEntryForTest(const XSet& a, const XSet& sigma, const XSet& bogus) {
  const internal::Node* na = a.node();
  const internal::Node* ns = sigma.node();
  const uint64_t h = MemoHash(na, ns);
  MemoShard& shard = MemoShards()[(h >> 48) & (kMemoShards - 1)];
  MutexLock lock(&shard.memo_mu);
  MemoSlot* set = &shard.slots[(h & (kMemoSetsPerShard - 1)) * kMemoWays];
  for (size_t w = 0; w < kMemoWays; ++w) {
    if (set[w].a == na && set[w].sigma == ns) {
      set[w].result = bogus.node();
      return true;
    }
  }
  return false;
}

void ClearRescopeMemoForTest() {
  for (size_t i = 0; i < kMemoShards; ++i) {
    MemoShard& shard = MemoShards()[i];
    MutexLock lock(&shard.memo_mu);
    for (MemoSlot& slot : std::span(shard.slots, kMemoSlotsPerShard)) slot = MemoSlot{};
  }
}

}  // namespace internal

}  // namespace xst
