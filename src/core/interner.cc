#include "src/core/interner.h"

#include <algorithm>
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
// tombstones.
struct Slot {
  uint64_t hash = 0;
  const internal::Node* node = nullptr;
};

constexpr size_t kInitialSlots = 256;  // per shard; a power of two

}  // namespace

// A shard's nodes of every kind share one linear-probing table. The top
// kShardBits of a hash pick the shard and its low bits the home slot.
struct alignas(64) Interner::Shard {
  Mutex shard_mu XST_LOCK_RANK(60);
  // Power-of-two size, at most half full.
  std::vector<Slot> slots XST_GUARDED_BY(shard_mu) = std::vector<Slot>(kInitialSlots);
  size_t used XST_GUARDED_BY(shard_mu) = 0;

  // The interned node with `key`'s kind and payload, or nullptr.
  const internal::Node* Find(uint64_t hash, const internal::Node& key) const
      XST_REQUIRES(shard_mu) {
    const size_t mask = slots.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots[i];
      if (slot.node == nullptr) return nullptr;
      if (slot.hash == hash && SameKey(*slot.node, key)) return slot.node;
    }
  }

  // Adds `n`, which Find just missed, doubling the table first if the
  // insert would leave it more than half full.
  void Insert(const internal::Node* n) XST_REQUIRES(shard_mu) {
    if (2 * (used + 1) > slots.size()) Grow();
    Place(Slot{n->hash, n});
    ++used;
    NodesGauge().Add(1);
    BytesGauge().Add(static_cast<int64_t>(NodeBytes(*n)));
  }

  void Place(Slot s) XST_REQUIRES(shard_mu) {
    const size_t mask = slots.size() - 1;
    size_t i = s.hash & mask;
    while (slots[i].node != nullptr) i = (i + 1) & mask;
    slots[i] = s;
  }

  // Re-places every slot by its stored hash; no node is touched.
  void Grow() XST_REQUIRES(shard_mu) {
    std::vector<Slot> old(2 * slots.size());
    old.swap(slots);
    for (const Slot& s : old) {
      if (s.node != nullptr) Place(s);
    }
    BytesGauge().Add(static_cast<int64_t>(old.size() * sizeof(Slot)));
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
  Shard& shard = ShardFor(h);
  MutexLock lock(&shard.shard_mu);
  return shard.Find(h, key);
}

std::vector<const internal::Node*> Interner::SnapshotNodes() const {
  std::vector<const internal::Node*> nodes;
  for (int i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(&shard.shard_mu);
    for (const Slot& s : shard.slots) {
      if (s.node != nullptr) nodes.push_back(s.node);
    }
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
    for (const Slot& s : shard.slots) {
      if (s.node == nullptr) continue;
      if (s.node->kind == NodeKind::kSet) {
        ++stats.set_count;
        stats.membership_count += s.node->members.size();
      } else {
        ++stats.atom_count;
      }
    }
  }
  return stats;
}

}  // namespace xst
