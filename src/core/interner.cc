#include "src/core/interner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "src/common/hash.h"
#include "src/common/sync.h"
#include "src/obs/metrics.h"

namespace xst {

namespace {

// Kind tags folded into hashes so atoms of different kinds never collide
// structurally (e.g. the int 1 vs the symbol "1" vs the string "1").
constexpr uint64_t kIntTag = 0xa11ce0fde1ce1e57ULL;
constexpr uint64_t kSymbolTag = 0x5e7a9b3c1d2e4f60ULL;
constexpr uint64_t kStringTag = 0x0df1ab7e6c5d4b3aULL;
constexpr uint64_t kSetTag = 0x9d3c2b1a0f8e7d6cULL;

// Arena size gauges (miss path only: the relaxed RMWs sit beside a node
// allocation). Hits are deliberately unmeasured to keep them untouched.
obs::Gauge& NodesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(internal::kInternerNodesGauge);
  return g;
}

obs::Gauge& BytesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(internal::kInternerBytesGauge);
  return g;
}

uint64_t HashSetNode(const std::vector<Membership>& members) {
  uint64_t h = HashCombine(kSetTag, members.size());
  for (const Membership& m : members) {
    h = HashCombine(h, m.element.hash());
    h = HashCombine(h, m.scope.hash());
  }
  return h;
}

// A lookup key: a node holding only a kind and its payload, shaped as an
// atom or ∅. Interning moves a missed key into the arena as the new node.
internal::Node Key(NodeKind kind) {
  internal::Node key{};
  key.kind = kind;
  key.tree_size = 1;
  return key;
}

internal::Node IntKey(int64_t v) {
  internal::Node key = Key(NodeKind::kInt);
  key.int_value = v;
  return key;
}

internal::Node TextKey(NodeKind kind, std::string_view text) {
  internal::Node key = Key(kind);
  key.str_value = std::string(text);
  return key;
}

// Same kind and payload; members compare by child pointer, as children are
// interned.
bool SameKey(const internal::Node& a, const internal::Node& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case NodeKind::kInt:
      return a.int_value == b.int_value;
    case NodeKind::kSymbol:
    case NodeKind::kString:
      return a.str_value == b.str_value;
    case NodeKind::kSet:
      return a.members == b.members;
  }
  return false;
}

// Heap bytes one node owns: its header, its member array, and text too long
// for the small-string buffer.
size_t NodeBytes(const internal::Node& n) {
  size_t bytes = sizeof(internal::Node) + n.members.capacity() * sizeof(Membership);
  if (n.str_value.capacity() > std::string().capacity()) bytes += n.str_value.capacity() + 1;
  return bytes;
}

// One open-addressing slot. The hash sits inline, so a probe dereferences
// only a node whose full 64-bit hash matches. A null node marks an empty
// slot; nodes are immortal, so nothing is erased and there are no
// tombstones. Hits probe without the shard lock while an insert may be
// filling a slot, so both fields are atomic: the writer stores the hash,
// then release-stores the node; a reader acquire-loads the node, then
// reads the hash.
struct Slot {
  std::atomic<uint64_t> hash{0};
  std::atomic<const internal::Node*> node{nullptr};
};

// A power-of-two slot array, at most half full. A grow replaces it with a
// doubled one, but a lock-free probe may still be walking it, so the
// successor owns it and it is never freed.
struct SlotTable {
  SlotTable(size_t size, SlotTable* replaced_table)
      : mask(size - 1), slots(new Slot[size]), replaced(replaced_table) {}

  size_t size() const { return mask + 1; }

  const size_t mask;
  const std::unique_ptr<Slot[]> slots;
  const std::unique_ptr<SlotTable> replaced;
};

constexpr size_t kInitialSlots = 256;  // per shard; a power of two

// Writes a slot for `n` (whose hash is `hash`) at the first empty slot of
// its probe run: the hash first, then the node with release.
void Place(SlotTable& t, uint64_t hash, const internal::Node* n) {
  size_t i = hash & t.mask;
  while (t.slots[i].node.load(std::memory_order_relaxed) != nullptr) i = (i + 1) & t.mask;
  t.slots[i].hash.store(hash, std::memory_order_relaxed);
  t.slots[i].node.store(n, std::memory_order_release);
}

}  // namespace

// A shard's nodes of every kind share one linear-probing table. The top
// kShardBits of a hash pick the shard and its low bits the home slot.
// Probes take no lock; inserts and growth take `shard_mu`.
struct alignas(64) Interner::Shard {
  Mutex shard_mu XST_LOCK_RANK(60);
  // The live table. Replaced only under `shard_mu`, by a release store
  // after the doubled table is filled; leaked with the arena.
  std::atomic<SlotTable*> table{new SlotTable(kInitialSlots, nullptr)};
  size_t used XST_GUARDED_BY(shard_mu) = 0;

  // The interned node with `key`'s kind and payload, or nullptr. Needs no
  // lock: it probes whichever table it loads, and a table holds every node
  // interned before it was published. A miss while an insert or a grow
  // runs may be stale, so Intern confirms a miss under the lock.
  const internal::Node* Find(uint64_t hash, const internal::Node& key) const {
    const SlotTable& t = *table.load(std::memory_order_acquire);
    for (size_t i = hash & t.mask;; i = (i + 1) & t.mask) {
      const Slot& slot = t.slots[i];
      const internal::Node* n = slot.node.load(std::memory_order_acquire);
      if (n == nullptr) return nullptr;
      if (slot.hash.load(std::memory_order_relaxed) == hash && SameKey(*n, key)) return n;
    }
  }

  // Adds `n`, which Find just missed under the lock, doubling the table
  // first if the insert would leave it more than half full. `n` must be
  // final: readers see it as soon as its slot is written.
  void Insert(const internal::Node* n) XST_REQUIRES(shard_mu) {
    SlotTable* t = table.load(std::memory_order_relaxed);
    if (2 * (used + 1) > t->size()) t = Grow(t);
    Place(*t, n->hash, n);
    ++used;
    NodesGauge().Add(1);
    BytesGauge().Add(static_cast<int64_t>(NodeBytes(*n)));
  }

  // Fills a doubled table by the stored hashes (no node is touched), then
  // publishes it. The replaced table stays allocated, owned by its
  // successor, for probes still walking it, and stays in the byte gauge.
  SlotTable* Grow(SlotTable* old) XST_REQUIRES(shard_mu) {
    auto* next = new SlotTable(2 * old->size(), old);
    for (size_t i = 0; i < old->size(); ++i) {
      const Slot& s = old->slots[i];
      if (const internal::Node* n = s.node.load(std::memory_order_relaxed)) {
        Place(*next, s.hash.load(std::memory_order_relaxed), n);
      }
    }
    table.store(next, std::memory_order_release);
    BytesGauge().Add(static_cast<int64_t>(next->size() * sizeof(Slot)));
    return next;
  }

  // Every node in the live table (the caller holds `shard_mu`, so no
  // insert or grow runs beside it).
  template <typename Fn>
  void ForEachNode(const Fn& fn) const XST_REQUIRES(shard_mu) {
    const SlotTable& t = *table.load(std::memory_order_relaxed);
    for (size_t i = 0; i < t.size(); ++i) {
      if (const internal::Node* n = t.slots[i].node.load(std::memory_order_relaxed)) fn(n);
    }
  }
};

Interner& Interner::Global() {
  static Interner* instance = new Interner();  // leaked with the arena
  return *instance;
}

Interner::Interner() : shards_(new Shard[kNumShards]) {
  BytesGauge().Add(static_cast<int64_t>(kNumShards * kInitialSlots * sizeof(Slot)));
  empty_ = Intern(Key(NodeKind::kSet));
  small_ints_.resize(static_cast<size_t>(kSmallIntMax - kSmallIntMin + 1));
  for (int64_t v = kSmallIntMin; v <= kSmallIntMax; ++v) {
    small_ints_[static_cast<size_t>(v - kSmallIntMin)] = Intern(IntKey(v));
  }
}

Interner::Shard& Interner::ShardFor(uint64_t hash) const {
  return shards_[(hash >> (64 - kShardBits)) & (kNumShards - 1)];
}

const internal::Node* Interner::Intern(internal::Node key) {
  key.hash = internal::ComputeNodeHash(key);
  Shard& shard = ShardFor(key.hash);
  // A hit, nearly every call, takes no lock; a miss confirms under it.
  if (const internal::Node* hit = shard.Find(key.hash, key)) return hit;
  MutexLock lock(&shard.shard_mu);
  if (const internal::Node* hit = shard.Find(key.hash, key)) return hit;
  auto* n = new internal::Node(std::move(key));
  for (const Membership& m : n->members) {
    n->depth = std::max(n->depth, 1 + std::max(m.element.depth(), m.scope.depth()));
    n->tree_size += m.element.tree_size() + m.scope.tree_size();
  }
  shard.Insert(n);
  return n;
}

const internal::Node* Interner::Int(int64_t v) {
  if (v >= kSmallIntMin && v <= kSmallIntMax) {
    return small_ints_[static_cast<size_t>(v - kSmallIntMin)];
  }
  return Intern(IntKey(v));
}

const internal::Node* Interner::Symbol(std::string_view name) {
  return Intern(TextKey(NodeKind::kSymbol, name));
}

const internal::Node* Interner::String(std::string_view text) {
  return Intern(TextKey(NodeKind::kString, text));
}

const internal::Node* Interner::Set(std::vector<Membership> members) {
  internal::Node key = Key(NodeKind::kSet);
  key.members = std::move(members);
  return Intern(std::move(key));
}

const internal::Node* Interner::Find(const internal::Node& key) const {
  const uint64_t h = internal::ComputeNodeHash(key);
  return ShardFor(h).Find(h, key);
}

std::vector<const internal::Node*> Interner::SnapshotNodes() const {
  std::vector<const internal::Node*> nodes;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(&shard.shard_mu);
    shard.ForEachNode([&](const internal::Node* n) { nodes.push_back(n); });
  }
  return nodes;
}

namespace internal {

uint64_t ComputeNodeHash(const Node& n) {
  switch (n.kind) {
    case NodeKind::kInt:
      return HashCombine(kIntTag, static_cast<uint64_t>(n.int_value));
    case NodeKind::kSymbol:
      return HashCombine(kSymbolTag, HashString(n.str_value));
    case NodeKind::kString:
      return HashCombine(kStringTag, HashString(n.str_value));
    case NodeKind::kSet:
      return HashSetNode(n.members);
  }
  return 0;
}

}  // namespace internal

InternerStats Interner::GetStats() const {
  InternerStats stats;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(&shard.shard_mu);
    shard.ForEachNode([&](const internal::Node* n) {
      if (n->kind == NodeKind::kSet) {
        ++stats.set_count;
        stats.membership_count += n->members.size();
      } else {
        ++stats.atom_count;
      }
    });
  }
  return stats;
}

}  // namespace xst
