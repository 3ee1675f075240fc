#include "src/common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/obs/metrics.h"

namespace xst {

namespace {

thread_local bool tls_in_worker = false;

// Pool telemetry: how often regions go parallel vs inline, and how the
// chunks split between workers and the participating caller.
obs::Counter& ParallelForCalls() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("pool.parallel_for.calls");
  return c;
}
obs::Counter& ParallelForInline() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("pool.parallel_for.inline");
  return c;
}
obs::Counter& TasksEnqueued() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("pool.tasks.enqueued");
  return c;
}
obs::Counter& WorkerChunks() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("pool.chunks.worker");
  return c;
}
obs::Counter& CallerChunks() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("pool.chunks.caller");
  return c;
}

size_t GlobalPoolSize() {
  if (const char* env = std::getenv("XST_NUM_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 0) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

struct ThreadPool::Impl {
  Mutex pool_mu XST_LOCK_RANK(70);
  CondVar work_available;
  std::deque<std::function<void()>> queue XST_GUARDED_BY(pool_mu);
  std::vector<std::thread> workers;  // written once at construction, then joined
  bool shutting_down XST_GUARDED_BY(pool_mu) = false;

  void WorkerLoop() {
    tls_in_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&pool_mu);
        // Explicit predicate loop (not the lambda overload) so the analysis
        // sees the guarded reads happen with `pool_mu` held.
        while (!shutting_down && queue.empty()) work_available.Wait(lock);
        if (queue.empty()) return;  // shutting down and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }

  void Enqueue(std::function<void()> task) {
    {
      MutexLock lock(&pool_mu);
      queue.push_back(std::move(task));
    }
    work_available.NotifyOne();
  }
};

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(GlobalPoolSize());  // leaked, like the interner
  return *pool;
}

ThreadPool::ThreadPool(size_t threads) : impl_(new Impl()) {
  // One worker is pointless: the caller already participates in ParallelFor.
  workers_count_ = threads <= 1 ? 0 : threads;
  for (size_t i = 0; i < workers_count_; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&impl_->pool_mu);
    impl_->shutting_down = true;
  }
  impl_->work_available.NotifyAll();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

bool ThreadPool::InWorker() { return tls_in_worker; }

void ThreadPool::ParallelFor(size_t n, size_t min_chunk,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  const size_t chunks = PlanChunks(n, min_chunk);
  if (chunks == 1) {
    body(0, n);
    return;
  }
  RunChunks(n, chunks, [&body](size_t, size_t begin, size_t end) { body(begin, end); });
}

size_t ThreadPool::PlanChunks(size_t n, size_t min_chunk) {
  if (min_chunk == 0) min_chunk = 1;
  const size_t max_chunks = (n + min_chunk - 1) / min_chunk;
  // Inline when there is nothing to split across, the range is a single
  // chunk, or we are already inside a worker (nested region).
  const size_t parallelism = workers_count_ + 1;  // workers + caller
  ParallelForCalls().Increment();
  if (parallelism <= 1 || max_chunks <= 1 || tls_in_worker) {
    ParallelForInline().Increment();
    return 1;
  }
  // 4 chunks per participant smooths over uneven chunk costs without
  // shrinking chunks below the grain.
  return std::min(max_chunks, parallelism * 4);
}

void ThreadPool::RunChunks(size_t n, size_t num_chunks,
                           const std::function<void(size_t, size_t, size_t)>& body) {
  const size_t chunk = (n + num_chunks - 1) / num_chunks;

  struct Shared {
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> done_chunks{0};
    Mutex region_mu XST_LOCK_RANK(71);
    CondVar all_done;
    std::exception_ptr error XST_GUARDED_BY(region_mu);
  };
  auto shared = std::make_shared<Shared>();

  auto run_chunks = [shared, num_chunks, chunk, n, &body]() {
    for (;;) {
      size_t c = shared->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      size_t begin = c * chunk;
      size_t end = std::min(n, begin + chunk);
      try {
        if (begin < end) {
          (tls_in_worker ? WorkerChunks() : CallerChunks()).Increment();
          body(c, begin, end);
        }
      } catch (...) {
        MutexLock lock(&shared->region_mu);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        MutexLock lock(&shared->region_mu);
        shared->all_done.NotifyAll();
      }
    }
  };

  // The body reference only lives for this call, so every task must finish
  // before we return — which the done_chunks wait below guarantees. Helpers
  // beyond the number of remaining chunks exit immediately.
  const size_t helpers = std::min(workers_count_, num_chunks - 1);
  TasksEnqueued().Add(helpers);
  for (size_t i = 0; i < helpers; ++i) impl_->Enqueue(run_chunks);
  run_chunks();  // caller participates
  {
    MutexLock lock(&shared->region_mu);
    while (shared->done_chunks.load(std::memory_order_acquire) != num_chunks) {
      shared->all_done.Wait(lock);
    }
    if (shared->error) std::rethrow_exception(shared->error);
  }
}

}  // namespace xst
