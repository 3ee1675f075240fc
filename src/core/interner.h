// The global hash-consing arena for extended set nodes.
//
// Every XSet value in the process is interned here exactly once, so that
// structural equality is pointer equality and common subtrees are shared.
// Nodes are immutable and live for the lifetime of the process (an arena, in
// the RocksDB sense: allocation is cheap, reclamation is wholesale-only —
// here, never, which is the right trade for a value system whose handles may
// be stored anywhere, including the buffer pool and user code).
//
// Layout: the arena is sharded 16 ways by the top bits of a node's hash.
// Each shard holds all its nodes, of every kind, in one power-of-two
// open-addressing table of {hash, node*} slots, probed linearly from the
// hash's low bits and doubled before it passes half full. A probe compares
// inline hashes and dereferences only a node whose hash matches, to confirm
// its kind and key. Re-interning a value that already exists (what every
// store decode does) is therefore a short run of slots and a read of the
// matching node, with no lock.
//
// Thread safety: fully thread-safe. Probes take no lock: a shard publishes
// its table through an atomic pointer, a slot's hash is stored before its
// node is release-stored, and a node is final before its slot is written.
// A miss takes the shard's mutex, probes again and inserts; growth fills a
// doubled table under that mutex and then publishes it. A replaced table
// is never freed (its successor owns it), because a lock-free probe may
// still be walking it. Small integer atoms, which dominate tuple-heavy
// workloads (tuple scopes are 1..n), come from a fixed cache.
//
// Metrics: the `interner.nodes` and `interner.bytes` gauges move only when
// a value is interned for the first time.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/xset.h"

namespace xst {

/// \brief Aggregate statistics about the interning arena.
struct InternerStats {
  uint64_t atom_count = 0;      ///< interned atoms (ints + symbols + strings)
  uint64_t set_count = 0;       ///< interned set nodes
  uint64_t membership_count = 0;  ///< total memberships across set nodes
};

class Interner {
 public:
  /// \brief The process-wide interner.
  static Interner& Global();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// \brief Interns an integer atom.
  const internal::Node* Int(int64_t v);
  /// \brief Interns a symbolic atom.
  const internal::Node* Symbol(std::string_view name);
  /// \brief Interns a string atom.
  const internal::Node* String(std::string_view text);
  /// \brief Interns a set node. `members` must already be canonical:
  /// sorted by CompareMembership with exact duplicates removed.
  const internal::Node* Set(std::vector<Membership> members);
  /// \brief The unique ∅ node.
  const internal::Node* EmptySet() const { return empty_; }

  /// \brief Lookup only (never interns, takes no lock): the interned node
  /// with `key`'s kind and payload (int value, text, or member list), found
  /// under the hash recomputed from them, or nullptr. A node interned
  /// before the call is always found; one interned concurrently may not be.
  /// The structural validator (core/validate.cc) passes a node itself,
  /// which must come back pointer-equal if hash-consing is coherent.
  const internal::Node* Find(const internal::Node& key) const;

  /// \brief Every interned node, copied out shard by shard. Safe to use
  /// without locks afterwards: nodes are immutable and immortal. New nodes
  /// interned concurrently may or may not appear.
  std::vector<const internal::Node*> SnapshotNodes() const;

  /// \brief Snapshot of arena statistics (approximate under concurrency).
  InternerStats GetStats() const;

 private:
  Interner();
  ~Interner() = default;

  struct Shard;
  static constexpr int kShardBits = 4;
  static constexpr int kNumShards = 1 << kShardBits;
  Shard& ShardFor(uint64_t hash) const;
  // The interned node with `key`'s kind and payload; on a miss, `key`
  // itself moves into the arena.
  const internal::Node* Intern(internal::Node key);

  // Lock-free cache for the hottest atoms: tuple ordinals and small ints.
  static constexpr int64_t kSmallIntMin = -16;
  static constexpr int64_t kSmallIntMax = 1024;
  std::vector<const internal::Node*> small_ints_;

  const internal::Node* empty_;
  Shard* shards_;  // kNumShards, leaked with the arena
};

namespace internal {

/// \brief Registry gauges sizing the arena: live nodes, and bytes held by
/// node headers, payloads and slot tables, replaced tables included
/// (allocator overhead excluded).
inline constexpr const char* kInternerNodesGauge = "interner.nodes";
inline constexpr const char* kInternerBytesGauge = "interner.bytes";

/// \brief Recomputes the structural hash of `n` from its payload / children,
/// exactly as interning would. A node whose stored hash disagrees with this
/// is corrupt (validator use).
uint64_t ComputeNodeHash(const Node& n);

}  // namespace internal

}  // namespace xst
