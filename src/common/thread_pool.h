// A fixed-size thread pool with two chunked parallel primitives.
//
// The pool backs the bulk set-operation kernels (relative product, image,
// cross product, canonicalization sort): whole-set operators are data
// parallel by construction — the paper's set-processing claim is that the
// system, not the user, gets to exploit that — so one process-wide pool is
// shared by every operator.
//
// Design points (deliberately boring, in the Arrow/RocksDB tradition):
//   * Fixed size, chosen once from std::thread::hardware_concurrency() (or
//     the XST_NUM_THREADS environment variable); no dynamic growth.
//   * ParallelFor splits [0, n) into chunks, runs them on the workers AND
//     the calling thread (the caller is always a worker, so a pool of size 1
//     degrades to a plain loop with no queueing), and returns when every
//     chunk is done.
//   * ParallelCollect is ParallelFor for kernels that produce output: each
//     chunk fills its own output object and the caller gets them back in
//     chunk order, so merging needs no lock and the result does not depend
//     on scheduling. Chunk 0 writes straight into the caller's object, so a
//     region that runs as one chunk allocates and copies nothing.
//   * Nested parallelism is safe: a region issued from inside a worker runs
//     inline on that worker. This bounds stack depth and can never deadlock
//     on pool capacity.
//   * Exceptions thrown by chunk bodies are captured; the first one is
//     rethrown on the calling thread after all chunks settle, so a parallel
//     loop fails exactly like its serial equivalent.
//
// All XSet values are immutable and the interner is thread-safe, so operator
// bodies may intern freely from any worker.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace xst {

class ThreadPool {
 public:
  /// \brief The process-wide pool. Sized from XST_NUM_THREADS if set,
  /// otherwise std::thread::hardware_concurrency().
  static ThreadPool& Global();

  /// \brief A pool with `threads` workers (0 and 1 both mean "run inline").
  /// Mainly for tests; operators use Global().
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of worker threads (0 when the pool runs everything inline).
  size_t size() const { return workers_count_; }

  /// \brief Applies `body(begin, end)` over disjoint chunks covering [0, n).
  ///
  /// Chunks are at least `min_chunk` items (the grain below which splitting
  /// costs more than it buys). The calling thread participates; the call
  /// returns only when all chunks are done. If any body throws, the first
  /// exception is rethrown here after the loop settles. Bodies run
  /// concurrently and must not mutate shared state without synchronization.
  void ParallelFor(size_t n, size_t min_chunk,
                   const std::function<void(size_t, size_t)>& body);

  /// \brief Applies `body(begin, end, out)` over the chunks ParallelFor
  /// would use, giving each chunk its own output object.
  ///
  /// Chunk 0 writes into `*first` (appending to whatever it holds); every
  /// other chunk writes into a default-constructed `Out`, and those outputs
  /// are returned in chunk order. Concatenating `*first` with the
  /// returned outputs therefore reproduces the serial loop's output order
  /// with no lock. When the region runs as a single chunk (small `n`, an
  /// inline pool, or a nested call from a worker) `body(0, n, first)` runs
  /// on the caller and the returned vector is empty. Exceptions propagate
  /// as in ParallelFor.
  template <typename Out, typename Body>
  std::vector<Out> ParallelCollect(size_t n, size_t min_chunk, Out* first, const Body& body) {
    std::vector<Out> rest;
    if (n == 0) return rest;
    const size_t chunks = PlanChunks(n, min_chunk);
    if (chunks == 1) {
      body(size_t{0}, n, first);
      return rest;
    }
    rest.resize(chunks - 1);
    RunChunks(n, chunks, [&](size_t chunk, size_t begin, size_t end) {
      if (chunk == 0) {
        body(begin, end, first);
        return;
      }
      // Grow a local and move it in once: adjacent slots of `rest` share
      // cache lines, and bodies update their output on every item.
      Out local;
      body(begin, end, &local);
      rest[chunk - 1] = std::move(local);
    });
    return rest;
  }

  /// \brief True in code dynamically reached from a pool worker (used to run
  /// nested parallel regions inline).
  static bool InWorker();

 private:
  // How many chunks a region over [0, n) splits into: 1 when it runs inline
  // on the caller. Counts the region in the pool telemetry.
  size_t PlanChunks(size_t n, size_t min_chunk);
  // Runs body(chunk, begin, end) over `chunks` equal slices of [0, n) on the
  // workers and the caller, and returns when all are done.
  void RunChunks(size_t n, size_t chunks,
                 const std::function<void(size_t, size_t, size_t)>& body);

  struct Impl;
  Impl* impl_;
  size_t workers_count_;
};

/// \brief Convenience: chunked parallel loop on the global pool.
inline void ParallelFor(size_t n, size_t min_chunk,
                        const std::function<void(size_t, size_t)>& body) {
  ThreadPool::Global().ParallelFor(n, min_chunk, body);
}

/// \brief Convenience: ThreadPool::ParallelCollect on the global pool.
template <typename Out, typename Body>
std::vector<Out> ParallelCollect(size_t n, size_t min_chunk, Out* first, const Body& body) {
  return ThreadPool::Global().ParallelCollect(n, min_chunk, first, body);
}

}  // namespace xst
