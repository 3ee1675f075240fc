// Shared test utilities: notation shortcuts, deterministic random
// extended-set generators for property suites, scratch store paths, and a
// pager run over its log with its counters.

#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/macros.h"
#include "src/core/parse.h"
#include "src/core/xset.h"
#include "src/obs/metrics.h"
#include "src/store/file.h"
#include "src/store/pager.h"
#include "src/store/setstore.h"
#include "src/store/wal.h"

namespace xst {
namespace testing {

/// \brief Parse shortcut: X("{a^1, b^2}").
inline XSet X(std::string_view text) { return ParseOrDie(text); }

/// \brief Deterministic generator of random extended sets.
///
/// Values are drawn over a small atom pool so that collisions (shared
/// members, equal scopes) actually occur — property tests over disjoint
/// random data would never exercise the interesting branches.
class RandomSetGen {
 public:
  explicit RandomSetGen(uint64_t seed) : rng_(seed) {}

  /// \brief A random atom from the pool (ints 0..7, symbols a..d).
  XSet Atom() {
    uint64_t pick = rng_() % 12;
    if (pick < 8) return XSet::Int(static_cast<int64_t>(pick));
    const char* names[] = {"a", "b", "c", "d"};
    return XSet::Symbol(names[pick - 8]);
  }

  /// \brief A random extended set of bounded depth and breadth.
  XSet Set(int max_depth = 2, int max_members = 4) {
    if (max_depth <= 0) return Atom();
    size_t count = rng_() % static_cast<uint64_t>(max_members + 1);
    std::vector<Membership> members;
    for (size_t i = 0; i < count; ++i) {
      XSet element = Value(max_depth - 1, max_members);
      XSet scope = (rng_() % 2 == 0) ? XSet::Empty() : Value(max_depth - 1, 2);
      members.push_back(Membership{element, scope});
    }
    return XSet::FromMembers(std::move(members));
  }

  /// \brief Atom or set, weighted toward atoms at the leaves.
  XSet Value(int max_depth, int max_members = 4) {
    if (max_depth <= 0 || rng_() % 3 == 0) return Atom();
    return Set(max_depth, max_members);
  }

  /// \brief A random classical relation: pairs over small symbol pools.
  XSet Relation(int max_pairs = 6, int domain_size = 4, int range_size = 4) {
    std::vector<XSet> pairs;
    size_t count = rng_() % static_cast<uint64_t>(max_pairs + 1);
    for (size_t i = 0; i < count; ++i) {
      XSet first = XSet::Symbol("d" + std::to_string(rng_() % domain_size));
      XSet second = XSet::Symbol("r" + std::to_string(rng_() % range_size));
      pairs.push_back(XSet::Pair(first, second));
    }
    return XSet::Classical(pairs);
  }

  /// \brief A random classical set of atoms from the relation domain pool.
  XSet DomainSubset(int domain_size = 4) {
    std::vector<XSet> elements;
    for (int i = 0; i < domain_size; ++i) {
      if (rng_() % 2 == 0) elements.push_back(XSet::Symbol("d" + std::to_string(i)));
    }
    return XSet::Classical(elements);
  }

  uint64_t Next() { return rng_(); }

 private:
  std::mt19937_64 rng_;
};

/// \brief The pager's registry counters, counted from construction or the
/// last Reset(). The counters are process-wide, so a delta is one pager's
/// work only over steps that run that pager alone.
class PagerCounters {
 public:
  PagerCounters() { Reset(); }

  /// \brief Restarts every delta at zero.
  void Reset() {
    for (size_t i = 0; i < kNames.size(); ++i) base_[i] = Value(i);
  }

  uint64_t hits() const { return Delta(0); }
  uint64_t misses() const { return Delta(1); }
  uint64_t evictions() const { return Delta(2); }
  uint64_t writebacks() const { return Delta(3); }
  uint64_t allocations() const { return Delta(4); }

 private:
  static constexpr std::array<const char*, 5> kNames = {
      internal::kPagerHitsCounter, internal::kPagerMissesCounter,
      internal::kPagerEvictionsCounter, internal::kPagerWritebacksCounter,
      internal::kPagerAllocationsCounter};

  static uint64_t Value(size_t i) {
    return obs::MetricsRegistry::Global().GetCounter(kNames[i]).value();
  }
  uint64_t Delta(size_t i) const { return Value(i) - base_[i]; }

  std::array<uint64_t, kNames.size()> base_{};
};

/// \brief A scratch store path: the files a store at `path` writes — the
/// main file, its ".wal" log, and a compaction's ".compact" pair — are
/// removed on construction (a stale log would replay an earlier run into a
/// fresh store) and again on destruction, so a test leaves nothing behind.
class ScopedStorePath {
 public:
  explicit ScopedStorePath(std::string path) : path_(std::move(path)) { Remove(); }
  ~ScopedStorePath() { Remove(); }
  ScopedStorePath(const ScopedStorePath&) = delete;
  ScopedStorePath& operator=(const ScopedStorePath&) = delete;

  const std::string& path() const { return path_; }

 private:
  void Remove() const {
    for (const char* suffix : {"", ".wal", ".compact", ".compact.wal"}) {
      std::remove((path_ + suffix).c_str());
    }
  }

  std::string path_;
};

/// \brief A pager run the way the store runs it: over its log, with a log
/// transaction open so that evictions can spill.
struct LoggedPager {
  std::unique_ptr<Wal> wal;
  std::unique_ptr<Pager> pager;  // declared after `wal`: destroyed first
};

/// \brief Opens the log `path + ".wal"` and a pager of `capacity` frames
/// over `main_file` (a StdioFile at `path` when null), then opens a log
/// transaction.
inline Result<LoggedPager> OpenLoggedPager(const std::string& path, size_t capacity,
                                           std::unique_ptr<File> main_file = nullptr) {
  LoggedPager out;
  XST_ASSIGN_OR_RAISE(out.wal, Wal::Open(path + ".wal"));
  if (main_file == nullptr) {
    XST_ASSIGN_OR_RAISE(main_file, StdioFile::Open(path));
  }
  XST_ASSIGN_OR_RAISE(out.pager, Pager::Open(std::move(main_file), *out.wal, capacity, path));
  out.wal->BeginTxn();
  return out;
}

/// \brief Seals the open log transaction, checkpoints it the way the store
/// does (images into the main file, fsync, recycle the log), and opens the
/// next transaction.
inline Status CommitAndCheckpoint(Pager& pager, Wal& wal) {
  XST_RETURN_NOT_OK(pager.DrainUnloggedToWal());
  XST_ASSIGN_OR_RAISE(CommitTicket ticket, wal.AppendCommit());
  XST_RETURN_NOT_OK(wal.WaitDurable(ticket));
  for (const auto& [id, image] : wal.SnapshotResident()) {
    XST_RETURN_NOT_OK(pager.ApplyCheckpointImage(id, image));
  }
  XST_RETURN_NOT_OK(pager.SyncFile());
  XST_RETURN_NOT_OK(wal.Reset(ticket.lsn));
  wal.BeginTxn();
  return Status::OK();
}

/// \brief Page touches (hits + misses) of one ValidateBTree of every ordered
/// index in `store`. Scrub validates each index once more than Get does, so
/// the difference of their touches is exactly that validation, measured
/// without going through the read a page-count bound is checking. Bounds on
/// index reads add it at XST_VALIDATE_LEVEL >= 2, where every read also
/// validates the whole tree.
inline Result<uint64_t> IndexValidationTouches(SetStore& store) {
  PagerCounters gets;
  for (const std::string& name : store.List()) {
    XST_RETURN_NOT_OK(store.Get(name).status());
  }
  const uint64_t get_touches = gets.hits() + gets.misses();
  PagerCounters scrub;
  XST_RETURN_NOT_OK(store.Scrub().status());
  return scrub.hits() + scrub.misses() - get_touches;
}

}  // namespace testing
}  // namespace xst
