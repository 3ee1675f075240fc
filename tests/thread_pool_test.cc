// ThreadPool semantics: exact coverage, inline degradation, nested
// submission, exception propagation, cross-thread use, and ParallelCollect's
// chunk-ordered outputs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace xst {
namespace {

// Every index in [0, n) must be visited exactly once, whatever the pool
// size or grain.
TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
    ThreadPool pool(workers);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      for (size_t grain : {size_t{1}, size_t{16}, size_t{5000}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.ParallelFor(n, grain, [&](size_t lo, size_t hi) {
          ASSERT_LE(lo, hi);
          ASSERT_LE(hi, n);
          for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n
                                       << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPool, ZeroAndOneThreadPoolsRunInline) {
  // With no helpers the caller must execute the whole range itself, as a
  // single chunk on the calling thread.
  for (size_t workers : {size_t{0}, size_t{1}}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.size(), 0u);
    std::thread::id caller = std::this_thread::get_id();
    size_t calls = 0;
    pool.ParallelFor(100, 1, [&](size_t lo, size_t hi) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_FALSE(ThreadPool::InWorker());
      ++calls;
      EXPECT_EQ(lo, 0u);
      EXPECT_EQ(hi, 100u);
    });
    EXPECT_EQ(calls, 1u);
  }
}

// A ParallelFor issued from inside a worker must run inline on that worker
// (no re-queueing, no deadlock) and still cover its whole range.
TEST(ThreadPool, NestedSubmissionRunsInline) {
  ThreadPool pool(4);
  std::atomic<size_t> outer_count{0};
  std::atomic<size_t> outer_invocations{0};
  std::atomic<size_t> inner_count{0};
  pool.ParallelFor(64, 1, [&](size_t lo, size_t hi) {
    outer_count.fetch_add(hi - lo);
    outer_invocations.fetch_add(1);
    const bool in_worker = ThreadPool::InWorker();
    pool.ParallelFor(32, 1, [&](size_t ilo, size_t ihi) {
      inner_count.fetch_add(ihi - ilo);
      // Inside a worker the nested region must be a single inline chunk.
      if (in_worker) {
        EXPECT_EQ(ilo, 0u);
        EXPECT_EQ(ihi, 32u);
      }
    });
  });
  EXPECT_EQ(outer_count.load(), 64u);
  // The inner loop runs once per outer chunk and must cover its full range
  // each time.
  EXPECT_EQ(inner_count.load(), outer_invocations.load() * 32u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000, 1,
                       [&](size_t lo, size_t) {
                         if (lo == 0) throw std::runtime_error("chunk failed");
                       }),
      std::runtime_error);
  // The pool must stay fully usable after a failed loop.
  std::atomic<size_t> count{0};
  pool.ParallelFor(100, 1, [&](size_t lo, size_t hi) { count.fetch_add(hi - lo); });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, ExceptionPropagatesFromInlinePath) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.ParallelFor(10, 1, [](size_t, size_t) { throw std::logic_error("x"); }),
               std::logic_error);
}

TEST(ThreadPool, ExceptionPropagatesFromNestedLoop) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(16, 1,
                                [&](size_t, size_t) {
                                  pool.ParallelFor(16, 1, [](size_t lo, size_t) {
                                    if (lo == 0) throw std::runtime_error("inner");
                                  });
                                }),
               std::runtime_error);
}

// Several threads driving the same pool concurrently: chunks of distinct
// loops must not bleed into one another.
TEST(ThreadPool, ConcurrentCallers) {
  ThreadPool pool(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kPerCaller = 5000;
  std::vector<std::atomic<size_t>> sums(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kPerCaller, 64, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) sums[c].fetch_add(i);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  const size_t expected = kPerCaller * (kPerCaller - 1) / 2;
  for (size_t c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c].load(), expected);
}

// Each chunk appends its indices; concatenating the caller's buffer with the
// returned outputs must give 0..n-1 in order on every pool size.
std::vector<size_t> CollectIndices(ThreadPool& pool, size_t n, size_t grain,
                                   std::vector<size_t> out = {}) {
  std::vector<std::vector<size_t>> rest =
      pool.ParallelCollect(n, grain, &out, [](size_t lo, size_t hi, std::vector<size_t>* dst) {
        for (size_t i = lo; i < hi; ++i) dst->push_back(i);
      });
  for (const std::vector<size_t>& part : rest) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(ParallelCollect, SameOutputInChunkOrderForEveryPoolSize) {
  for (size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(workers);
    for (size_t n : {size_t{1}, size_t{7}, size_t{1000}, size_t{10007}}) {
      std::vector<size_t> expected(n);
      std::iota(expected.begin(), expected.end(), size_t{0});
      for (size_t grain : {size_t{1}, size_t{16}, size_t{5000}}) {
        EXPECT_EQ(CollectIndices(pool, n, grain), expected)
            << "workers=" << workers << " n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelCollect, ChunksComeBackInOrderWhateverFinishesFirst) {
  ThreadPool pool(4);
  // Early chunks are slowed down so later chunks finish first.
  std::vector<std::pair<size_t, size_t>> first;
  auto rest = pool.ParallelCollect(
      64, 1, &first, [](size_t lo, size_t hi, std::vector<std::pair<size_t, size_t>>* dst) {
        if (lo < 16) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        dst->push_back({lo, hi});
      });
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].first, 0u);
  size_t next = first[0].second;
  size_t chunks = 1;
  for (const auto& part : rest) {
    if (part.empty()) continue;  // a trailing chunk may be empty
    ASSERT_EQ(part.size(), 1u);
    EXPECT_EQ(part[0].first, next);
    next = part[0].second;
    ++chunks;
  }
  EXPECT_EQ(next, 64u);
  EXPECT_GT(chunks, 1u);
}

TEST(ParallelCollect, FirstChunkAppendsToCallerBufferKeepingCapacity) {
  for (size_t workers : {size_t{0}, size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<size_t> out = {7, 7};
    out.reserve(4096);
    const size_t* data = out.data();
    const size_t capacity = out.capacity();
    // One chunk (n below the grain): everything lands in the buffer, which
    // is neither reallocated nor shrunk, and nothing else is returned.
    auto rest = pool.ParallelCollect(100, 1000, &out,
                                     [](size_t lo, size_t hi, std::vector<size_t>* dst) {
                                       for (size_t i = lo; i < hi; ++i) dst->push_back(i);
                                     });
    EXPECT_TRUE(rest.empty());
    ASSERT_EQ(out.size(), 102u);
    EXPECT_EQ(out[0], 7u);
    EXPECT_EQ(out[1], 7u);
    EXPECT_EQ(out[2], 0u);
    EXPECT_EQ(out[101], 99u);
    EXPECT_EQ(out.data(), data);
    EXPECT_EQ(out.capacity(), capacity);
  }
  // Several chunks: chunk 0 still appends after the existing content.
  ThreadPool pool(4);
  std::vector<size_t> expected = {7, 7};
  for (size_t i = 0; i < 1000; ++i) expected.push_back(i);
  EXPECT_EQ(CollectIndices(pool, 1000, 10, {7, 7}), expected);
}

TEST(ParallelCollect, NestedCallInsideWorkerRunsInline) {
  ThreadPool pool(4);
  std::atomic<size_t> nested_in_worker{0};
  pool.ParallelFor(64, 1, [&](size_t, size_t) {
    // Slow chunks, so the workers take some of them from the caller.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Atomic: on the caller's own chunks the nested region does fork.
    std::atomic<size_t> calls{0};
    std::vector<size_t> out;
    auto rest = pool.ParallelCollect(5000, 1, &out,
                                     [&](size_t lo, size_t hi, std::vector<size_t>* dst) {
                                       ++calls;
                                       for (size_t i = lo; i < hi; ++i) dst->push_back(i);
                                     });
    size_t total = out.size();
    for (const std::vector<size_t>& part : rest) total += part.size();
    EXPECT_EQ(total, 5000u);
    if (ThreadPool::InWorker()) {
      EXPECT_EQ(calls.load(), 1u);
      EXPECT_TRUE(rest.empty());
      EXPECT_EQ(out.size(), 5000u);
      nested_in_worker.fetch_add(1);
    }
  });
  EXPECT_GT(nested_in_worker.load(), 0u);
}

TEST(ParallelCollect, ExceptionReachesCaller) {
  for (size_t workers : {size_t{0}, size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<int> out;
    EXPECT_THROW(pool.ParallelCollect(1000, 1, &out,
                                      [](size_t lo, size_t hi, std::vector<int>*) {
                                        if (lo <= 500 && 500 < hi) throw std::runtime_error("x");
                                      }),
                 std::runtime_error);
    // The pool stays usable.
    EXPECT_EQ(CollectIndices(pool, 100, 1).size(), 100u);
  }
}

TEST(ParallelCollect, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::vector<size_t> out = {1};
  bool called = false;
  auto rest = pool.ParallelCollect(0, 1, &out, [&](size_t, size_t, std::vector<size_t>*) {
    called = true;
  });
  EXPECT_FALSE(called);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(out, std::vector<size_t>{1});
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<size_t> count{0};
  ParallelFor(1000, 1, [&](size_t lo, size_t hi) { count.fetch_add(hi - lo); });
  EXPECT_EQ(count.load(), 1000u);
}

}  // namespace
}  // namespace xst
