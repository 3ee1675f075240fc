// Annotated synchronization primitives: the only lock types in libxst.
//
// xst::Mutex wraps std::mutex and carries the XST_CAPABILITY attribute, so
// Clang's thread-safety analysis can prove that every XST_GUARDED_BY field
// is touched only under its lock. xst::MutexLock is the scoped acquisition
// (RAII, like std::lock_guard but visible to the analysis); xst::CondVar
// pairs with MutexLock for wait/notify.
//
// House rules (enforced by -Werror=thread-safety on Clang CI and by
// tools/xst_lint.py's bare-mutex rule everywhere else):
//   * No bare std::mutex / std::shared_mutex / std::condition_variable
//     outside this file. All shared state goes behind xst::Mutex.
//   * Every field a Mutex protects is annotated XST_GUARDED_BY(mu) — even
//     fields of function-local structs (the analysis resolves member-
//     relative capabilities).
//   * Never hold a MutexLock across a ParallelFor: the pool inverts control
//     and a chunk that re-acquires the same lock self-deadlocks (xst_lint's
//     lock-across-parallelfor rule).
//   * Every Mutex declaration carries XST_LOCK_RANK(n): the locksmith rules
//     (lock-rank, blocking-under-latch; DESIGN.md §15) prove acquisitions
//     are strictly rank-increasing and that nothing blocking runs while a
//     latch-class lock (rank ≥ the pager-latch floor) is held.
//
// In release builds the wrappers compile to the exact same code as the std
// types they wrap (everything is inline; the attribute is metadata only);
// run_benches.py confirms BM_Union and friends are unchanged vs
// BENCH_PR1.json. Debug builds additionally track the owning thread so
// AssertHeld() can back REQUIRES-annotated helpers at runtime.

#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/thread_annotations.h"

namespace xst {

/// \brief An annotated standard mutex: the capability every piece of shared
/// mutable state in libxst is guarded by.
class XST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// \brief Acquires the mutex (blocking). Prefer MutexLock.
  void Lock() XST_ACQUIRE() {
    mu_.lock();
    NoteLocked();
  }

  /// \brief Releases the mutex. Prefer MutexLock.
  void Unlock() XST_RELEASE() {
    NoteUnlocked();
    mu_.unlock();
  }

  /// \brief Acquires iff available; returns true on acquisition.
  bool TryLock() XST_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    NoteLocked();
    return true;
  }

  /// \brief Debug-checks that the calling thread holds this mutex (aborts
  /// otherwise); a no-op in NDEBUG builds. Statically, tells the analysis
  /// the capability is held from here on — the runtime teeth behind
  /// XST_REQUIRES on helpers reached through un-annotated code.
  void AssertHeld() const XST_ASSERT_CAPABILITY(this);

 private:
  friend class CondVar;
  friend class MutexLock;

#ifndef NDEBUG
  void NoteLocked() { owner_.store(std::this_thread::get_id(), std::memory_order_relaxed); }
  void NoteUnlocked() { owner_.store(std::thread::id(), std::memory_order_relaxed); }
  std::atomic<std::thread::id> owner_{};
#else
  void NoteLocked() {}
  void NoteUnlocked() {}
#endif

  std::mutex mu_;
};

/// \brief RAII scoped acquisition of a Mutex — the std::lock_guard of this
/// codebase, but visible to the thread-safety analysis (and usable with
/// CondVar::Wait, which std::lock_guard is not).
class XST_SCOPED_CAPABILITY MutexLock {
 public:
  /// \brief Acquires `*mu` for the lifetime of this object.
  explicit MutexLock(Mutex* mu) XST_ACQUIRE(mu) : mu_(mu), lock_(mu->mu_) {
    mu_->NoteLocked();
  }

  /// \brief Releases the mutex.
  ~MutexLock() XST_RELEASE() { mu_->NoteUnlocked(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* mu_;
  std::unique_lock<std::mutex> lock_;  // destroyed (→ unlocked) after ~MutexLock's body
};

/// \brief Condition variable paired with Mutex/MutexLock.
///
/// Wait releases the caller's MutexLock while blocked and reacquires before
/// returning, exactly like std::condition_variable. Predicates that read
/// guarded state belong in an explicit `while (!cond) Wait(...)` loop in the
/// caller, where the analysis can see the lock is held.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Blocks until notified. `lock` must hold the mutex guarding the
  /// awaited state; it is released while blocked and reacquired on wakeup.
  /// Spurious wakeups happen: always wait in a predicate loop.
  ///
  /// A registered blocking point (locksmith): waiting releases only `lock`'s
  /// own mutex, so the checker exempts the innermost held lock and flags a
  /// wait that would park while any OTHER latch-class lock stays held.
  void XST_BLOCKING Wait(MutexLock& lock) {
    lock.mu_->NoteUnlocked();
    cv_.wait(lock.lock_);
    lock.mu_->NoteLocked();
  }

  /// \brief Wakes one waiter.
  void NotifyOne() { cv_.notify_one(); }

  /// \brief Wakes every waiter.
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace xst
