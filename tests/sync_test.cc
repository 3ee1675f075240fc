// Tests for the annotated synchronization vocabulary (src/common/sync.h):
// Mutex / MutexLock exclusion under real contention, CondVar wakeups across
// pool threads, TryLock, and the debug AssertHeld backstop. The suite is the
// TSan canary for the primitives themselves — CI runs it with
// XST_NUM_THREADS=4 under -fsanitize=thread.

#include "src/common/sync.h"

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"

namespace xst {
namespace {

TEST(MutexTest, ParallelIncrementsAllLand) {
  struct State {
    Mutex mu;
    int count XST_GUARDED_BY(mu) = 0;
  };
  State state;
  constexpr size_t kIncrements = 20000;
  ThreadPool pool(4);
  pool.ParallelFor(kIncrements, 1, [&state](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      MutexLock lock(&state.mu);
      ++state.count;
    }
  });
  MutexLock lock(&state.mu);
  EXPECT_EQ(state.count, static_cast<int>(kIncrements));
}

TEST(MutexTest, CriticalSectionsExclude) {
  // Each chunk read-modify-writes with a deliberate torn-update window; the
  // lock must make the sequence atomic or the final sum comes up short.
  struct State {
    Mutex mu;
    long total XST_GUARDED_BY(mu) = 0;
  };
  State state;
  constexpr size_t kChunks = 64;
  ThreadPool pool(4);
  pool.ParallelFor(kChunks, 1, [&state](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      MutexLock lock(&state.mu);
      long snapshot = state.total;
      volatile int spin = 0;
      while (spin < 100) spin = spin + 1;  // plain assignment: ++ on volatile is deprecated
      state.total = snapshot + 1;
    }
  });
  MutexLock lock(&state.mu);
  EXPECT_EQ(state.total, static_cast<long>(kChunks));
}

TEST(MutexTest, TryLockAcquiresWhenFree) {
  struct State {
    Mutex mu;
    int value XST_GUARDED_BY(mu) = 0;
  };
  State state;
  ASSERT_TRUE(state.mu.TryLock());
  state.value = 42;
  state.mu.Unlock();
  MutexLock lock(&state.mu);
  EXPECT_EQ(state.value, 42);
}

TEST(MutexTest, AssertHeldPassesUnderLock) {
  Mutex mu;
  MutexLock lock(&mu);
  mu.AssertHeld();  // must not abort
}

#ifndef NDEBUG
TEST(MutexDeathTest, AssertHeldAbortsWhenUnheld) {
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "does not hold the mutex");
}
#endif

TEST(CondVarTest, WakesWaiterAcrossThreads) {
  struct State {
    Mutex mu;
    CondVar cv;
    bool ready XST_GUARDED_BY(mu) = false;
    bool woke XST_GUARDED_BY(mu) = false;
  };
  State state;
  // Two chunks on a 2-worker pool (plus the participating caller): one
  // waits, the other flips the flag and notifies. The region cannot finish
  // unless the wakeup is delivered.
  ThreadPool pool(2);
  pool.ParallelFor(2, 1, [&state](size_t begin, size_t) {
    if (begin == 0) {
      MutexLock lock(&state.mu);
      while (!state.ready) state.cv.Wait(lock);
      state.woke = true;
    } else {
      MutexLock lock(&state.mu);
      state.ready = true;
      state.cv.NotifyAll();
    }
  });
  MutexLock lock(&state.mu);
  EXPECT_TRUE(state.ready);
  EXPECT_TRUE(state.woke);
}

TEST(CondVarTest, NotifyOneReleasesSingleWaiter) {
  // Producer/consumer ping-pong: every produced token is consumed exactly
  // once, through Wait/NotifyOne pairs.
  struct State {
    Mutex mu;
    CondVar cv;
    int tokens XST_GUARDED_BY(mu) = 0;
    int consumed XST_GUARDED_BY(mu) = 0;
    bool done XST_GUARDED_BY(mu) = false;
  };
  State state;
  constexpr int kTokens = 100;
  ThreadPool pool(2);
  pool.ParallelFor(2, 1, [&state](size_t begin, size_t) {
    if (begin == 0) {
      // Consumer.
      MutexLock lock(&state.mu);
      for (;;) {
        while (state.tokens == 0 && !state.done) state.cv.Wait(lock);
        if (state.tokens == 0 && state.done) return;
        --state.tokens;
        ++state.consumed;
      }
    } else {
      // Producer.
      for (int i = 0; i < kTokens; ++i) {
        MutexLock lock(&state.mu);
        ++state.tokens;
        state.cv.NotifyOne();
      }
      MutexLock lock(&state.mu);
      state.done = true;
      state.cv.NotifyAll();
    }
  });
  MutexLock lock(&state.mu);
  EXPECT_EQ(state.consumed, kTokens);
  EXPECT_EQ(state.tokens, 0);
}

}  // namespace
}  // namespace xst
